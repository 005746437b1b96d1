package server_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestSynthesizeTrailerLedgerAgree pins the one-number contract of the
// Released accounting: the NDJSON body, the X-Sgf-Released trailer, the
// release metrics and the privacy ledger must all report exactly the records
// the client received. The stream layer caps GenStats.Released at what the
// sink accepted, so the handler no longer keeps a counter of its own.
func TestSynthesizeTrailerLedgerAgree(t *testing.T) {
	ts := newTestServer(t)
	id := fitTestModel(t, ts)

	req := baseSynthReq()
	req["records"] = 37
	req["eps0"] = 0.5 // randomized test: chunks genuinely under/over-deliver
	body, resp := synthesize(t, ts, id, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}
	lines := len(strings.Split(strings.TrimSpace(body), "\n"))
	if lines != 37 {
		t.Fatalf("streamed %d records, want 37", lines)
	}
	if got := resp.Trailer.Get("X-Sgf-Released"); got != fmt.Sprint(lines) {
		t.Fatalf("X-Sgf-Released trailer = %q, body has %d records", got, lines)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		RecordsReleased int64 `json:"records_released"`
		Privacy         struct {
			RecordsTotal int64 `json:"records_total"`
		} `json:"privacy_ledger"`
	}
	decodeJSON(t, hr, &health)
	if health.RecordsReleased != int64(lines) {
		t.Fatalf("metrics records_released = %d, body has %d records", health.RecordsReleased, lines)
	}
	if health.Privacy.RecordsTotal != int64(lines) {
		t.Fatalf("ledger records_total = %d, body has %d records", health.Privacy.RecordsTotal, lines)
	}
}

// benchmarkSynthesize measures the full handler-to-trailer /synthesize path
// — JSON decode, ledger admission, worker grant, generation over the
// model's tables, NDJSON encoding, HTTP chunking — against a fitted model.
func benchmarkSynthesize(b *testing.B, ts *httptest.Server, records int) {
	id := fitTestModel(b, ts)
	req := map[string]any{"records": records, "k": 3, "gamma": 8, "seed": 42, "workers": 4}
	want := fmt.Sprint(records)
	// The first request waits out the background fit and warms the path.
	if body, resp := synthesize(b, ts, id, req); resp.StatusCode != http.StatusOK {
		b.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, resp := synthesize(b, ts, id, req)
		if got := resp.Trailer.Get("X-Sgf-Released"); got != want {
			b.Fatalf("X-Sgf-Released = %q, want %s", got, want)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkSynthesize is the server-layer benchmark of the CI gate: 16000
// records per request through the real HTTP stack (sized so one op sits
// above the gate's noise floor).
func BenchmarkSynthesize(b *testing.B) { benchmarkSynthesize(b, newTestServer(b), 16000) }

// BenchmarkSynthesizeInstrumented is the same workload with the full
// observability stack turned on: a JSON access-log line per request (written
// to io.Discard so the sink costs nothing), per-stage trace spans, the trace
// ring buffer, and the latency/stream histograms. CI diffs it against
// BenchmarkSynthesize with `benchjson ratio` to pin the instrumentation
// overhead at <5% time and ≤1 alloc per streamed record.
func BenchmarkSynthesizeInstrumented(b *testing.B) {
	srv := newServer(b, server.Config{
		PoolSize:  8,
		CacheCap:  4,
		StoreDir:  b.TempDir(),
		Logger:    obs.NewLogger(io.Discard, true, slog.LevelInfo),
		AccessLog: true,
	})
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	benchmarkSynthesize(b, ts, 16000)
}
