package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// Metrics aggregates the server's operational counters. All methods are
// safe for concurrent use; counters are monotone since process start.
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]*int64 // "<handler> <status-class>" → count

	// latency buckets request duration by handler; streamRecords and
	// streamBytes bucket what one synthesize response released.
	latency       *obs.HistogramVec
	streamRecords *obs.Histogram
	streamBytes   *obs.Histogram

	synthesizeInFlight int64
	recordsReleased    int64
	candidatesDrawn    int64
	seedsChecked       int64
	modelsFitted       int64
	modelsFailed       int64
	modelsEvicted      int64
	cacheHits          int64
	budgetDenied       int64
}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		requests:      make(map[string]*int64),
		latency:       obs.NewHistogramVec("handler", obs.LatencyBuckets),
		streamRecords: obs.NewHistogram(obs.SizeBuckets),
		streamBytes:   obs.NewHistogram(obs.ByteBuckets),
	}
}

// ObserveRequest records one finished request's latency under its handler
// label.
func (m *Metrics) ObserveRequest(handler string, seconds float64) {
	m.latency.With(handler).Observe(seconds)
}

// ObserveStream records the size of one finished synthesize stream.
func (m *Metrics) ObserveStream(records int, bytes int64) {
	m.streamRecords.Observe(float64(records))
	m.streamBytes.Observe(float64(bytes))
}

// Request records one finished HTTP request for the named handler with the
// given status code.
func (m *Metrics) Request(handler string, status int) {
	key := fmt.Sprintf("%s %dxx", handler, status/100)
	m.mu.Lock()
	c, ok := m.requests[key]
	if !ok {
		c = new(int64)
		m.requests[key] = c
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
}

// SynthesizeStart/SynthesizeDone bracket one synthesize request.
func (m *Metrics) SynthesizeStart() { atomic.AddInt64(&m.synthesizeInFlight, 1) }
func (m *Metrics) SynthesizeDone()  { atomic.AddInt64(&m.synthesizeInFlight, -1) }

// Generated records the outcome of one generation run.
func (m *Metrics) Generated(released, candidates int, checked int64) {
	atomic.AddInt64(&m.recordsReleased, int64(released))
	atomic.AddInt64(&m.candidatesDrawn, int64(candidates))
	atomic.AddInt64(&m.seedsChecked, checked)
}

// ModelFitted/ModelFailed/ModelEvicted/CacheHit record registry events.
func (m *Metrics) ModelFitted()  { atomic.AddInt64(&m.modelsFitted, 1) }
func (m *Metrics) ModelFailed()  { atomic.AddInt64(&m.modelsFailed, 1) }
func (m *Metrics) ModelEvicted() { atomic.AddInt64(&m.modelsEvicted, 1) }
func (m *Metrics) CacheHit()     { atomic.AddInt64(&m.cacheHits, 1) }

// BudgetDenied records a synthesize request refused by the lifetime
// privacy budget (403).
func (m *Metrics) BudgetDenied() { atomic.AddInt64(&m.budgetDenied, 1) }

// RecordsReleased returns the total number of synthetic records released.
func (m *Metrics) RecordsReleased() int64 { return atomic.LoadInt64(&m.recordsReleased) }

// PassRate returns released/candidates over the whole process lifetime
// (0 when no candidates have been drawn): the privacy-test pass rate.
func (m *Metrics) PassRate() float64 {
	cands := atomic.LoadInt64(&m.candidatesDrawn)
	if cands == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&m.recordsReleased)) / float64(cands)
}

// WriteTo renders the counters in the Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	uptime := time.Since(m.start).Seconds()
	released := atomic.LoadInt64(&m.recordsReleased)
	perSec := 0.0
	if uptime > 0 {
		perSec = float64(released) / uptime
	}

	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	add("# TYPE sgfd_uptime_seconds gauge\nsgfd_uptime_seconds %.3f\n", uptime)

	add("# TYPE sgfd_requests_total counter\n")
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var handler, class string
		fmt.Sscanf(k, "%s %s", &handler, &class)
		add("sgfd_requests_total{handler=%q,class=%q} %d\n", handler, class, atomic.LoadInt64(m.requests[k]))
	}
	m.mu.Unlock()

	add("# TYPE sgfd_synthesize_in_flight gauge\nsgfd_synthesize_in_flight %d\n",
		atomic.LoadInt64(&m.synthesizeInFlight))
	add("# TYPE sgfd_records_released_total counter\nsgfd_records_released_total %d\n", released)
	add("# TYPE sgfd_candidates_drawn_total counter\nsgfd_candidates_drawn_total %d\n",
		atomic.LoadInt64(&m.candidatesDrawn))
	add("# TYPE sgfd_seeds_checked_total counter\nsgfd_seeds_checked_total %d\n",
		atomic.LoadInt64(&m.seedsChecked))
	add("# TYPE sgfd_privacy_test_pass_rate gauge\nsgfd_privacy_test_pass_rate %.6f\n", m.PassRate())
	add("# TYPE sgfd_records_per_second gauge\nsgfd_records_per_second %.3f\n", perSec)
	add("# TYPE sgfd_models_fitted_total counter\nsgfd_models_fitted_total %d\n",
		atomic.LoadInt64(&m.modelsFitted))
	add("# TYPE sgfd_models_failed_total counter\nsgfd_models_failed_total %d\n",
		atomic.LoadInt64(&m.modelsFailed))
	add("# TYPE sgfd_models_evicted_total counter\nsgfd_models_evicted_total %d\n",
		atomic.LoadInt64(&m.modelsEvicted))
	add("# TYPE sgfd_model_cache_hits_total counter\nsgfd_model_cache_hits_total %d\n",
		atomic.LoadInt64(&m.cacheHits))
	add("# TYPE sgfd_privacy_budget_denied_total counter\nsgfd_privacy_budget_denied_total %d\n",
		atomic.LoadInt64(&m.budgetDenied))

	n, err := w.Write(b)
	if err != nil {
		return int64(n), err
	}
	total := int64(n)
	for _, h := range []struct {
		name  string
		write func(io.Writer, string) (int64, error)
	}{
		{"sgfd_request_duration_seconds", m.latency.WriteProm},
		{"sgfd_synthesize_stream_records", m.streamRecords.WriteProm},
		{"sgfd_synthesize_stream_bytes", m.streamBytes.WriteProm},
	} {
		hn, err := h.write(w, h.name)
		total += hn
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeTenantMetrics renders the per-tenant counters in the Prometheus text
// exposition format. The numbers come from the tenant registry (its
// counters are the source of truth); this helper only formats them. The
// snapshot is name-sorted, so the series order is stable scrape to scrape.
func writeTenantMetrics(w io.Writer, tenants []tenant.Stats) (int64, error) {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	add("# TYPE sgfd_tenant_requests_total counter\n")
	for _, t := range tenants {
		add("sgfd_tenant_requests_total{tenant=%q} %d\n", t.Name, t.Requests)
	}
	add("# TYPE sgfd_tenant_throttled_total counter\n")
	for _, t := range tenants {
		add("sgfd_tenant_throttled_total{tenant=%q} %d\n", t.Name, t.Throttled)
	}
	add("# TYPE sgfd_tenant_workers_in_flight gauge\n")
	for _, t := range tenants {
		add("sgfd_tenant_workers_in_flight{tenant=%q} %d\n", t.Name, t.WorkersInUse)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// writeLedgerMetrics renders the per-tenant privacy-ledger counters in the
// Prometheus text exposition format. The numbers come from the ledger (its
// accounting is the source of truth); this helper only formats them. The
// snapshot is name-sorted, so the series order is stable scrape to scrape.
// The anonymous account (authentication disabled) exports as tenant="".
func writeLedgerMetrics(w io.Writer, stats []ledgerStat) (int64, error) {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	add("# TYPE sgfd_tenant_privacy_budget_records_total counter\n")
	for _, t := range stats {
		add("sgfd_tenant_privacy_budget_records_total{tenant=%q} %d\n", t.Tenant, t.Records)
	}
	add("# TYPE sgfd_tenant_privacy_budget_denied_total counter\n")
	for _, t := range stats {
		add("sgfd_tenant_privacy_budget_denied_total{tenant=%q} %d\n", t.Tenant, t.Denied)
	}
	add("# TYPE sgfd_tenant_privacy_budget_eps_spent gauge\n")
	for _, t := range stats {
		add("sgfd_tenant_privacy_budget_eps_spent{tenant=%q} %g\n", t.Tenant, t.EpsSpent)
	}
	n, err := w.Write(b)
	return int64(n), err
}
