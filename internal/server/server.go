// Package server implements sgfd's HTTP layer: a long-running service
// exposing the full plausible-deniability pipeline (fit a generative model,
// then stream privacy-tested synthetic records) to many concurrent clients.
//
// Endpoints:
//
//	POST   /v1/models                  upload a CSV (or reference a built-in
//	                                   dataset) and fit a model in the
//	                                   background; returns a model ID
//	GET    /v1/models                  list models (resident + persisted)
//	GET    /v1/models/{id}             fit status + structure summary
//	POST   /v1/models/{id}/synthesize  run Mechanism 1 and stream records
//	                                   back as NDJSON
//	GET    /v1/models/{id}/export      download the model's binary snapshot
//	POST   /v1/models/import           upload a snapshot exported elsewhere
//	DELETE /v1/models/{id}             drop a model and its snapshot
//	GET    /v1/debug/traces            recent request traces with per-stage
//	                                   spans (admin role)
//	GET    /healthz                    liveness + store/ledger status
//	GET    /metrics                    Prometheus counters + histograms
//
// The paper's §6 evaluation is not served: it runs on simulated data, not
// on a tenant's model, through eval.RunSuite (cmd/experiments).
//
// Three pieces make the service safe under load. The model Registry is an
// LRU cache keyed by dataset hash + fit config, so repeated uploads of the
// same data share one fit; concurrent fits are bounded by a semaphore and
// a pending-fit admission limit (429 past it). The WorkerPool bounds total
// generation parallelism across requests, so N concurrent synthesize calls
// cannot oversubscribe GOMAXPROCS. And because generation keys every candidate's
// RNG stream on the candidate index (core.GenerateCtx), a request's output
// depends only on its seed and parameters — never on how many workers the
// pool happened to grant — so identical requests are reproducible even on a
// busy server.
//
// With Config.StoreDir set, durable server state is written to
// internal/store (snapshot container format v2) and warm-starts from disk
// at boot: fitted models (so a restarted server answers repeat fit
// requests — and serves synthesize requests byte-identically — without
// refitting), each model's tenant ownership set (so a restart preserves
// tenant isolation), and the per-tenant records-released privacy ledger.
// Each is written where it changes: a model's snapshot when its fit ends
// and again when its owner set grows (Registry.AddOwner), and the ledger
// behind the stream by its own flusher, so a crash can drop settled
// charges not yet written. The ledger is what makes the served (ε, δ)
// accounting honest across restarts: the paper's end-to-end guarantee
// composes over every record a tenant has *ever* drawn, and with
// Config.TenantBudgetEps set (or per-tenant key-file budgets) a tenant past
// its lifetime budget gets 403 before any generation work is admitted.
//
// With Config.Auth set, the server is multi-tenant: every /v1/* request
// must present a configured API key (401 otherwise), routes are gated by
// the tenant's role (reader: reads + synthesize; writer: + fit/import;
// admin: + deletion, traces, and visibility into every tenant's models;
// 403 below the bar), requests pass the tenant's token-bucket rate limit
// and worker quota (429 + Retry-After), and models are scoped to the
// tenants that registered them — another tenant's models read as 404.
// /healthz and /metrics stay open; /metrics additionally exports
// per-tenant sgfd_tenant_* series.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Config parameterizes a Server.
type Config struct {
	// PoolSize bounds total synthesis parallelism across all requests
	// (0 = GOMAXPROCS).
	PoolSize int
	// CacheCap is the maximum number of resident models (0 = 8).
	CacheCap int
	// MaxUploadBytes caps a fit request body (0 = 32 MiB).
	MaxUploadBytes int64
	// StoreDir enables model persistence: fitted models are snapshotted
	// there on fit completion and warm-started at boot ("" = models live
	// only in memory and every restart refits).
	StoreDir string
	// StoreMaxBytes caps the total snapshot bytes kept in StoreDir
	// (0 = unlimited); past it the oldest snapshots are evicted from disk.
	StoreMaxBytes int64
	// Deprecated: ignored. sgfd no longer runs evaluation jobs; these
	// fields remain only for callers that still set them.
	EvalMaxRunning, EvalMaxPending, EvalRetain, EvalMaxN int
	// Auth enables multi-tenant access control: every /v1/* request must
	// carry a configured API key, routes are gated by the tenant's role,
	// the tenant's rate limit and worker quota apply, and models are scoped
	// to their owning tenants. /healthz and /metrics stay open. nil (the
	// default) serves every request anonymously, exactly as before.
	Auth *tenant.Registry
	// TenantBudgetEps/TenantBudgetDelta set the default lifetime privacy
	// budget per tenant: the total (ε, δ) a tenant's released synthetic
	// records may ever cost under the composed Theorem 1 guarantee
	// (privacy.PlanRelease over the records-released ledger). A synthesize
	// request that would push a tenant past the budget is refused with 403
	// before any generation work starts. TenantBudgetEps 0 (the default)
	// disables enforcement — the ledger still counts. Per-tenant key-file
	// overrides (budget_eps/budget_delta) win over these defaults. With
	// StoreDir set the ledger persists there and survives restarts.
	TenantBudgetEps   float64
	TenantBudgetDelta float64
	// Logger receives the server's structured log lines (startup/warm-start
	// notices, failed snapshot and ledger writes, store error reports,
	// and — with AccessLog — one line per request). nil discards everything.
	Logger *slog.Logger
	// AccessLog enables the per-request access-log line on Logger.
	AccessLog bool
	// TraceBufferSize caps the ring of recent request traces served on
	// GET /v1/debug/traces (0 = 128).
	TraceBufferSize int
}

// Server is the sgfd HTTP handler. Create it with New; the zero value is
// not usable.
type Server struct {
	cfg     Config
	log     *slog.Logger
	pool    *WorkerPool
	reg     *Registry
	metrics *Metrics
	store   *store.Store // nil without StoreDir
	ledger  *ledger
	traces  *obs.TraceBuffer
	// logLimit rate-limits repeated error lines (failed snapshot and
	// ledger writes, store lazy-load errors) per model or ledger key, so a
	// flapping disk reports once per interval instead of flooding the log.
	logLimit *obs.Limiter
}

// New returns a ready-to-serve Server. With Config.StoreDir set it opens
// the snapshot store and warm-starts the registry from it, so previously
// fitted models are servable immediately. A store that cannot be opened is
// an error, and so is a privacy ledger there that cannot be read: serving
// without them would silently refit every model, or forget every record
// released before and admit tenants past their lifetime budgets.
func New(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 32 << 20
	}
	// The same bounds the tenant key file enforces on per-tenant budget
	// overrides: a δ that is not a probability (or a negative ε silently
	// reading as "enforcement off") would make every admission decision
	// meaningless.
	if cfg.TenantBudgetEps < 0 {
		return nil, errors.New("server: negative TenantBudgetEps")
	}
	if cfg.TenantBudgetDelta < 0 || cfg.TenantBudgetDelta >= 1 {
		return nil, errors.New("server: TenantBudgetDelta must be in [0, 1)")
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir, cfg.StoreMaxBytes); err != nil {
			return nil, err
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	metrics := NewMetrics()
	s := &Server{
		cfg:      cfg,
		log:      logger,
		pool:     NewWorkerPool(cfg.PoolSize),
		reg:      NewRegistry(cfg.CacheCap, 0, 0, metrics, st),
		metrics:  metrics,
		store:    st,
		ledger:   newLedger(),
		traces:   obs.NewTraceBuffer(cfg.TraceBufferSize),
		logLimit: obs.NewLimiter(0),
	}
	s.reg.logStoreError = func(op, id string, err error) {
		s.logStoreError("model store "+op, "model", id, err)
	}
	if st != nil {
		// Owner sets are written by Registry.AddOwner and the ledger by its
		// own flusher.
		switch led, err := st.GetLedger(); {
		case err == nil:
			s.ledger.restore(led)
		case !errors.Is(err, store.ErrNotFound): // an absent ledger is an empty one
			return nil, fmt.Errorf("server: %w; move the file aside to start with an empty privacy ledger", err)
		}
		s.ledger.persistTo(st, func(err error) {
			s.logStoreError("privacy ledger write", "ledger", "ledger", err)
		})
		if n := s.reg.WarmStart(); n > 0 {
			logger.Info("warm start", slog.Int("models", n), slog.String("store_dir", cfg.StoreDir))
		}
		if n := countJobRecords(cfg.StoreDir); n > 0 {
			logger.Warn("store holds evaluation-job records, which sgfd no longer serves; they are left in place",
				slog.Int("job_records", n), slog.String("store_dir", cfg.StoreDir))
		}
	}
	return s, nil
}

// countJobRecords counts the *.job files that releases serving evaluation
// jobs left in a store directory. Nothing reads them any more; the store
// treats them as foreign files. A directory that cannot be read counts
// none: the warning is advisory, and store.Open has just read it.
func countJobRecords(dir string) int {
	entries, _ := os.ReadDir(dir)
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".job") {
			n++
		}
	}
	return n
}

// Metrics exposes the server's counters (used by tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close flushes the durable state: the ledger's flusher stops after
// writing any settled spend still unwritten, and every ready resident
// model without a snapshot gets one (a second chance for writes that
// failed or files removed behind the server's back). Ledger charges that
// change after Close are not written. Call it after the HTTP server has
// drained; it is idempotent and a no-op without a store.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	s.ledger.close()
	return s.reg.Flush()
}

// logStoreError emits one rate-limited levelled line for a failed load or
// write of durable state, keyed per operation and record, so a flapping
// disk reports once per interval per model or ledger with a suppressed
// count.
func (s *Server) logStoreError(what, keyName, key string, err error) {
	allowed, suppressed := s.logLimit.Allow(what + ":" + key)
	if !allowed {
		return
	}
	s.log.Error(what+" failed",
		slog.String(keyName, key),
		slog.String("error", err.Error()),
		slog.Int64("suppressed", suppressed))
}

// statusWriter captures the response code and body size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer (for the
// per-batch write deadlines of the synthesize stream).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// obsKey keys the per-request observability carrier in the request context.
type obsKey struct{}

// reqObs is the per-request observability state the middleware threads to
// handlers: the trace to hang spans on, plus fields the handler fills for
// the access-log line. One goroutine owns it at a time (the middleware
// before and after route; the handler in between), so fields need no locks.
type reqObs struct {
	trace *obs.Trace
	// tenant is the authenticated tenant name ("" anonymous), set by route.
	tenant string
	// records counts what a synthesize stream released, set by the handler.
	records int
}

// obsFrom extracts the request's observability carrier (nil when the
// request did not come through ServeHTTP — direct handler tests).
func obsFrom(ctx context.Context) *reqObs {
	ro, _ := ctx.Value(obsKey{}).(*reqObs)
	return ro
}

// traceFrom extracts the request's trace (nil-safe for direct handler
// tests; every obs.Trace/Span method tolerates nil receivers).
func traceFrom(ctx context.Context) *obs.Trace {
	if ro := obsFrom(ctx); ro != nil {
		return ro.trace
	}
	return nil
}

// ServeHTTP is the instrumentation middleware around the hand-rolled router
// (not ServeMux patterns, so the module keeps working under the pre-1.22 mux
// semantics selected by its go directive): it mints the request's trace
// (ingesting a W3C traceparent header when one arrives), echoes X-Request-Id,
// and after routing records the trace into the debug ring, the latency
// histogram, the per-handler counters, and one structured access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID, parentID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	tr := obs.NewTrace(traceID, parentID)
	ro := &reqObs{trace: tr}
	r = r.WithContext(context.WithValue(r.Context(), obsKey{}, ro))
	w.Header().Set("X-Request-Id", tr.RequestID)

	root := tr.StartSpan("request", nil)
	sw := &statusWriter{ResponseWriter: w}
	handler := s.route(sw, r)
	if sw.status == 0 {
		// Nothing was written: the client went away while queued or
		// waiting on a fit. Log/count it as 499 (client closed request,
		// nginx convention) rather than a misleading 200.
		sw.status = 499
	}
	root.SetAttr("handler", handler)
	root.SetAttr("status", strconv.Itoa(sw.status))
	root.End()
	tr.Finish()
	s.traces.Add(tr)

	dur := time.Since(start)
	s.metrics.Request(handler, sw.status)
	s.metrics.ObserveRequest(handler, dur.Seconds())
	if s.cfg.AccessLog {
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("handler", handler),
			slog.Int("status", sw.status),
			slog.Int64("dur_ms", dur.Milliseconds()),
			slog.Int64("bytes", sw.bytes),
			slog.String("tenant", ro.tenant),
			slog.Int("records", ro.records),
			slog.String("request_id", tr.RequestID),
			slog.String("trace_id", tr.TraceID),
		)
	}
}

// route dispatches and returns the handler name for metrics. /healthz and
// /metrics are handled before authentication — they stay open; everything
// else passes the tenant middleware first (a no-op when Config.Auth is
// nil), then a per-route role gate.
func (s *Server) route(w http.ResponseWriter, r *http.Request) string {
	path := r.URL.Path
	switch path {
	case "/healthz":
		if requireMethod(w, r, http.MethodGet) {
			s.handleHealthz(w, r)
		}
		return "healthz"
	case "/metrics":
		if requireMethod(w, r, http.MethodGet) {
			s.handleMetrics(w, r)
		}
		return "metrics"
	}

	tn, ok := s.authenticate(w, r)
	if !ok {
		return "auth"
	}
	if ro := obsFrom(r.Context()); ro != nil {
		ro.tenant = ownerOf(tn)
	}

	switch {
	case path == "/v1/debug/traces":
		if !requireMethod(w, r, http.MethodGet) {
			return "debugtraces"
		}
		if requireRole(w, tn, tenant.RoleAdmin) {
			s.handleDebugTraces(w, r)
		}
		return "debugtraces"
	case path == "/v1/models":
		switch r.Method {
		case http.MethodPost:
			if requireRole(w, tn, tenant.RoleWriter) {
				s.handleFit(w, r, tn)
			}
			return "fit"
		case http.MethodGet:
			if requireRole(w, tn, tenant.RoleReader) {
				s.handleListModels(w, r, tn)
			}
			return "models"
		default:
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, "%s requires GET or POST", path)
			return "fit"
		}
	case path == "/v1/models/import":
		if !requireMethod(w, r, http.MethodPost) {
			return "import"
		}
		if requireRole(w, tn, tenant.RoleWriter) {
			s.handleImport(w, r, tn)
		}
		return "import"
	case strings.HasPrefix(path, "/v1/models/"):
		rest := strings.TrimPrefix(path, "/v1/models/")
		if id, ok := strings.CutSuffix(rest, "/synthesize"); ok {
			if !validModelID(id) {
				writeError(w, http.StatusNotFound, "malformed model id %q", id)
				return "synthesize"
			}
			if !requireMethod(w, r, http.MethodPost) {
				return "synthesize"
			}
			if requireRole(w, tn, tenant.RoleReader) {
				s.handleSynthesize(w, r, id, tn)
			}
			return "synthesize"
		}
		if id, ok := strings.CutSuffix(rest, "/export"); ok {
			if !validModelID(id) {
				writeError(w, http.StatusNotFound, "malformed model id %q", id)
				return "export"
			}
			if !requireMethod(w, r, http.MethodGet) {
				return "export"
			}
			if requireRole(w, tn, tenant.RoleReader) {
				s.handleExport(w, r, id, tn)
			}
			return "export"
		}
		if !validModelID(rest) {
			writeError(w, http.StatusNotFound, "malformed model id %q", rest)
			return "status"
		}
		switch r.Method {
		case http.MethodGet:
			if requireRole(w, tn, tenant.RoleReader) {
				s.handleStatus(w, r, rest, tn)
			}
			return "status"
		case http.MethodDelete:
			if requireRole(w, tn, tenant.RoleAdmin) {
				s.handleDeleteModel(w, r, rest)
			}
			return "delete"
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", path)
			return "status"
		}
	default:
		writeError(w, http.StatusNotFound, "no route for %s", path)
		return "notfound"
	}
}

// validModelID rejects ids with path separators or the wrong shape before
// they reach the registry.
func validModelID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\") && strings.HasPrefix(id, "m-")
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, method)
		return false
	}
	return true
}
