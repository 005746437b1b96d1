package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// This file is the observability acceptance suite: it drives the real HTTP
// surface and asserts the instrumentation contract end to end — request IDs
// and traceparent ingestion, the JSON access-log schema, per-stage spans on
// /v1/debug/traces, histogram exposition on /metrics, and the trace ring's
// bound under churn.

// syncWriter is a concurrency-safe log sink: request goroutines all write
// through the server's one slog handler.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// logLines parses every JSON log line written so far.
func (w *syncWriter) logLines(t *testing.T) []map[string]any {
	t.Helper()
	w.mu.Lock()
	raw := w.buf.String()
	w.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// newObsServer builds a test server with the full observability stack on: a
// JSON access log into the returned sink, plus any extra config via mutate.
func newObsServer(t testing.TB, mutate func(*server.Config)) (*httptest.Server, *syncWriter) {
	t.Helper()
	sink := &syncWriter{}
	cfg := server.Config{
		PoolSize:  8,
		CacheCap:  4,
		StoreDir:  t.TempDir(),
		Logger:    obs.NewLogger(sink, true, slog.LevelInfo),
		AccessLog: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(newServer(t, cfg))
	t.Cleanup(ts.Close)
	return ts, sink
}

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestAccessLogAndRequestID pins the middleware contract: every response
// carries a fresh 16-hex X-Request-Id, a supplied W3C traceparent is
// ingested as the request's trace ID, and the access-log line carries the
// full schema (method, path, handler, status, duration, bytes, tenant,
// records, request and trace IDs).
func TestAccessLogAndRequestID(t *testing.T) {
	ts, sink := newObsServer(t, nil)

	traceID := strings.Repeat("ab", 16)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-1234567890abcdef-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models status = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if !hex16.MatchString(reqID) {
		t.Fatalf("X-Request-Id = %q, want 16 lowercase hex digits", reqID)
	}

	var line map[string]any
	for _, m := range sink.logLines(t) {
		if m["msg"] == "request" && m["path"] == "/v1/models" {
			line = m
		}
	}
	if line == nil {
		t.Fatal("no access-log line for GET /v1/models")
	}
	want := map[string]any{
		"method":     "GET",
		"handler":    "models",
		"status":     float64(http.StatusOK),
		"tenant":     "",
		"records":    float64(0),
		"request_id": reqID,
		"trace_id":   traceID,
	}
	for k, v := range want {
		if line[k] != v {
			t.Errorf("access log %s = %v, want %v", k, line[k], v)
		}
	}
	for _, k := range []string{"dur_ms", "bytes"} {
		if _, ok := line[k].(float64); !ok {
			t.Errorf("access log missing numeric %s: %v", k, line[k])
		}
	}

	// A request without traceparent mints its own distinct trace ID.
	resp2, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id2 := resp2.Header.Get("X-Request-Id")
	if !hex16.MatchString(id2) || id2 == reqID {
		t.Fatalf("second X-Request-Id = %q, want a fresh 16-hex id (first was %q)", id2, reqID)
	}
}

// TestDebugTracesSynthesizeStages drives one synthesize request and asserts
// its trace — per-stage spans included — is retrievable on
// GET /v1/debug/traces, and that the stage timings also reached the client
// in the X-Sgf-Stage-Ms trailer. The request's first chunk spans several
// candidate batches, so its records stream while it is generated, and the
// time to its first record cannot exceed generate.
func TestDebugTracesSynthesizeStages(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	id := fitTestModel(t, ts)
	req := baseSynthReq()
	req["records"] = 2000
	body, resp := synthesize(t, ts, id, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}
	stageMS := resp.Trailer.Get("X-Sgf-Stage-Ms")
	stages := make(map[string]int)
	for _, part := range strings.Split(stageMS, ";") {
		name, ms, _ := strings.Cut(part, "=")
		n, err := strconv.Atoi(ms)
		if err != nil {
			t.Fatalf("X-Sgf-Stage-Ms %q: part %q is not name=ms", stageMS, part)
		}
		stages[name] = n
	}
	for _, stage := range []string{"admit", "acquire_workers", "generate", "stream_flush", "first_record"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("X-Sgf-Stage-Ms %q missing %q", stageMS, stage)
		}
	}
	if stages["first_record"] > stages["generate"] {
		t.Errorf("X-Sgf-Stage-Ms %q: first_record after the end of generate", stageMS)
	}

	hr, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Count  int             `json:"count"`
		Traces []obs.TraceView `json:"traces"`
	}
	decodeJSON(t, hr, &traces)
	if traces.Count != len(traces.Traces) || traces.Count == 0 {
		t.Fatalf("traces count = %d with %d entries", traces.Count, len(traces.Traces))
	}
	var synth *obs.TraceView
	for i := range traces.Traces {
		for _, sp := range traces.Traces[i].Spans {
			for _, a := range sp.Attrs {
				if a.Key == "handler" && a.Value == "synthesize" {
					synth = &traces.Traces[i]
				}
			}
		}
	}
	if synth == nil {
		t.Fatal("no trace with handler=synthesize in /v1/debug/traces")
	}
	if synth.RequestID == "" || synth.TraceID == "" {
		t.Fatalf("synthesize trace missing ids: %+v", synth)
	}
	spans := make(map[string]bool, len(synth.Spans))
	workers := ""
	for _, sp := range synth.Spans {
		spans[sp.Name] = true
		for _, a := range sp.Attrs {
			if sp.Name == "generate" && a.Key == "workers" {
				workers = a.Value
			}
		}
	}
	for _, name := range []string{"request", "admit", "acquire_workers", "generate", "stream_flush", "first_record"} {
		if !spans[name] {
			t.Errorf("synthesize trace missing span %q (have %v)", name, synth.Spans)
		}
	}
	// On an idle pool of 8, the request's first chunk of 8 batches runs
	// all of its "workers": 4, the one it holds and three borrowed.
	if workers != "4" {
		t.Errorf("generate span workers = %q, want 4", workers)
	}
}

// TestMetricsHistograms asserts the /metrics exposition renders the latency
// and stream-size histograms as parseable Prometheus text with cumulative
// buckets and consistent counts.
func TestMetricsHistograms(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	id := fitTestModel(t, ts)
	req := baseSynthReq()
	req["records"] = 64
	if body, resp := synthesize(t, ts, id, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}

	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	samples := map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:i]] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The synthesize latency series must exist, with cumulative buckets
	// ending in an +Inf bucket equal to _count.
	count, ok := samples[`sgfd_request_duration_seconds_count{handler="synthesize"}`]
	if !ok || count < 1 {
		t.Fatalf("missing or zero synthesize latency count (samples: %d)", len(samples))
	}
	inf, ok := samples[`sgfd_request_duration_seconds_bucket{handler="synthesize",le="+Inf"}`]
	if !ok || inf != count {
		t.Fatalf("+Inf bucket = %v, want count %v", inf, count)
	}
	prev := 0.0
	nBuckets := 0
	for _, le := range []string{"0.001", "0.01", "0.1", "1", "10", "60", "+Inf"} {
		key := `sgfd_request_duration_seconds_bucket{handler="synthesize",le="` + le + `"}`
		v, ok := samples[key]
		if !ok {
			continue
		}
		nBuckets++
		if v < prev {
			t.Fatalf("bucket le=%s = %v not cumulative (prev %v)", le, v, prev)
		}
		prev = v
	}
	if nBuckets < 3 {
		t.Fatalf("only %d synthesize latency buckets rendered", nBuckets)
	}

	// The stream-size histogram observed the 64-record stream.
	if v := samples[`sgfd_synthesize_stream_records_count`]; v < 1 {
		t.Fatalf("stream records histogram count = %v, want >= 1", v)
	}
	if v := samples[`sgfd_synthesize_stream_records_sum`]; v < 64 {
		t.Fatalf("stream records histogram sum = %v, want >= 64", v)
	}
}

// TestTraceRingBounded hammers a small trace ring with concurrent requests
// and asserts /v1/debug/traces never exceeds its configured capacity — the
// ring is the memory bound that makes always-on tracing safe.
func TestTraceRingBounded(t *testing.T) {
	const cap = 4
	ts, _ := newObsServer(t, func(cfg *server.Config) {
		cfg.TraceBufferSize = cap
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + "/v1/models")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	hr, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Count  int               `json:"count"`
		Traces []json.RawMessage `json:"traces"`
	}
	decodeJSON(t, hr, &traces)
	if traces.Count > cap || len(traces.Traces) > cap {
		t.Fatalf("trace ring returned %d traces, configured cap %d", traces.Count, cap)
	}
	if traces.Count == 0 {
		t.Fatal("trace ring empty after 200 requests")
	}
}

// TestSynthesizeAccessLogRecords asserts the access-log line for a
// synthesize request carries the released-record count — the field that
// makes privacy accounting greppable per request.
func TestSynthesizeAccessLogRecords(t *testing.T) {
	ts, sink := newObsServer(t, nil)
	id := fitTestModel(t, ts)
	req := baseSynthReq()
	req["records"] = 48
	if body, resp := synthesize(t, ts, id, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}
	var found bool
	for _, m := range sink.logLines(t) {
		if m["msg"] == "request" && m["handler"] == "synthesize" {
			found = true
			if m["records"] != float64(48) {
				t.Fatalf("synthesize access log records = %v, want 48", m["records"])
			}
			if m["status"] != float64(http.StatusOK) {
				t.Fatalf("synthesize access log status = %v", m["status"])
			}
		}
	}
	if !found {
		t.Fatal("no access-log line for the synthesize request")
	}
}
