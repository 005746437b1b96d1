package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/server"
)

// testMetaJSON is the schema of the test upload: three categorical
// attributes with mild dependencies.
const testMetaJSON = `[
  {"name": "COLOR", "kind": "categorical", "values": ["red", "green", "blue"]},
  {"name": "SIZE",  "kind": "categorical", "values": ["s", "m", "l"]},
  {"name": "GRADE", "kind": "numerical",   "values": ["0", "1", "2", "3"]}
]`

// testCSV deterministically generates n correlated rows for the schema
// above (plus a few dirty rows exercising the cleaning pipeline).
func testCSV(n int) string {
	r := rng.New(7)
	colors := []string{"red", "green", "blue"}
	sizes := []string{"s", "m", "l"}
	var b strings.Builder
	b.WriteString("COLOR,SIZE,GRADE\n")
	for i := 0; i < n; i++ {
		c := r.Intn(3)
		s := c // SIZE correlates with COLOR
		if r.Float64() < 0.3 {
			s = r.Intn(3)
		}
		g := (c + r.Intn(2)) % 4
		fmt.Fprintf(&b, "%s,%s,%d\n", colors[c], sizes[s], g)
	}
	b.WriteString("red,?,1\n")    // missing marker: dropped
	b.WriteString("purple,s,1\n") // out of domain: dropped
	return b.String()
}

// newServer builds the handler or fails the test. Closing the server is
// registered before the caller's ts.Close cleanup (LIFO), so the ledger
// flusher drains after the HTTP server stops and before t.TempDir removes
// the store directory — otherwise a background ledger write races the
// directory cleanup.
func newServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// newTestServer serves the default test config. Every test server gets a
// temporary snapshot store so the persistence paths (write-through
// snapshotting, warm-start plumbing) run under the race detector alongside
// everything else.
func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(t, server.Config{PoolSize: 8, CacheCap: 4, StoreDir: t.TempDir()}))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t testing.TB, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// fitTestModel uploads the test CSV and returns the model ID (fitting may
// still be in progress; synthesize waits for it).
func fitTestModel(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/models", map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     11,
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("fit status = %d, body %s", resp.StatusCode, body)
	}
	var fit struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Clean struct {
			DroppedMissing int `json:"DroppedMissing"`
			DroppedInvalid int `json:"DroppedInvalid"`
		} `json:"clean"`
	}
	decodeJSON(t, resp, &fit)
	if fit.ID == "" {
		t.Fatal("fit response missing model id")
	}
	if fit.Clean.DroppedMissing != 1 || fit.Clean.DroppedInvalid != 1 {
		t.Errorf("cleaning stats = %+v, want 1 missing and 1 invalid drop", fit.Clean)
	}
	return fit.ID
}

// synthesize posts a synthesize request and returns the NDJSON body and the
// response for header/trailer inspection.
func synthesize(t testing.TB, ts *httptest.Server, id string, req map[string]any) (string, *http.Response) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/models/"+id+"/synthesize", req)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func baseSynthReq() map[string]any {
	return map[string]any{
		"records": 25,
		"k":       3,
		"gamma":   8,
		"seed":    42,
		"workers": 4,
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	decodeJSON(t, resp, &health)
	if health.Status != "ok" || health.Workers != 8 {
		t.Fatalf("healthz = %+v", health)
	}
}

func TestFitSynthesizeRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	id := fitTestModel(t, ts)

	body, resp := synthesize(t, ts, id, baseSynthReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 25 {
		t.Fatalf("streamed %d records, want 25", len(lines))
	}
	for i, line := range lines {
		var rec map[string]string
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not a JSON record: %v (%s)", i, err, line)
		}
		for _, attr := range []string{"COLOR", "SIZE", "GRADE"} {
			if _, ok := rec[attr]; !ok {
				t.Fatalf("line %d missing attribute %s: %s", i, attr, line)
			}
		}
	}
	if got := resp.Trailer.Get("X-Sgf-Released"); got != "25" {
		t.Errorf("X-Sgf-Released trailer = %q, want 25", got)
	}
	if resp.Trailer.Get("X-Sgf-Candidates") == "" {
		t.Error("missing X-Sgf-Candidates trailer")
	}

	// Identical request, identical bytes.
	body2, _ := synthesize(t, ts, id, baseSynthReq())
	if body2 != body {
		t.Error("identical synthesize requests returned different records")
	}

	// Worker count must not perturb the stream (per-candidate RNG streams).
	reqW1 := baseSynthReq()
	reqW1["workers"] = 1
	bodyW1, _ := synthesize(t, ts, id, reqW1)
	if bodyW1 != body {
		t.Error("workers=1 and workers=4 returned different records")
	}

	// A different seed must (overwhelmingly) change the stream.
	reqSeed := baseSynthReq()
	reqSeed["seed"] = 4242
	bodySeed, _ := synthesize(t, ts, id, reqSeed)
	if bodySeed == body {
		t.Error("different seed returned identical records")
	}
}

func TestModelStatusAndStructure(t *testing.T) {
	ts := newTestServer(t)
	id := fitTestModel(t, ts)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/models/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint = %d", resp.StatusCode)
		}
		var st struct {
			State     string `json:"state"`
			Error     string `json:"error"`
			Splits    *[3]int
			Structure *struct {
				Order   []string            `json:"order"`
				Parents map[string][]string `json:"parents"`
			} `json:"structure"`
		}
		decodeJSON(t, resp, &st)
		switch st.State {
		case "ready":
			if st.Structure == nil || len(st.Structure.Order) != 3 {
				t.Fatalf("ready model lacks structure summary: %+v", st)
			}
			if st.Splits == nil || st.Splits[0]+st.Splits[1]+st.Splits[2] != 300 {
				t.Fatalf("splits = %v, want sum 300", st.Splits)
			}
			return
		case "failed":
			t.Fatalf("fit failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("model never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFitCacheDeduplicates(t *testing.T) {
	ts := newTestServer(t)
	id1 := fitTestModel(t, ts)

	resp := postJSON(t, ts.URL+"/v1/models", map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached fit status = %d, want 200", resp.StatusCode)
	}
	var fit struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	decodeJSON(t, resp, &fit)
	if !fit.Cached || fit.ID != id1 {
		t.Fatalf("repeat upload got id=%s cached=%v, want id=%s cached=true", fit.ID, fit.Cached, id1)
	}

	// A different fit seed is a different cache key.
	resp = postJSON(t, ts.URL+"/v1/models", map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     12,
	})
	var fit2 struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("new-config fit status = %d, want 202", resp.StatusCode)
	}
	decodeJSON(t, resp, &fit2)
	if fit2.Cached || fit2.ID == id1 {
		t.Fatalf("different seed reused cache entry %s", fit2.ID)
	}
	// Both fits run in the background and write their snapshots into the
	// test's temporary store; let them finish before it is removed.
	awaitFit(t, ts, id1)
	awaitFit(t, ts, fit2.ID)
}

// awaitFit polls the model's status until it has left "fitting". A fit
// writes its snapshot before it leaves that state.
func awaitFit(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for i := 0; ; i++ {
		resp, err := http.Get(ts.URL + "/v1/models/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		decodeJSON(t, resp, &st)
		if st.State != "fitting" {
			return
		}
		if i > 3000 {
			t.Fatalf("model %s never left fitting", id)
		}
	}
}

func TestBuiltinDataset(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/models", map[string]any{
		"dataset":      "acs",
		"rows":         400,
		"dataset_seed": 3,
		"seed":         5,
	})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("builtin fit status = %d, body %s", resp.StatusCode, body)
	}
	var fit struct {
		ID   string `json:"id"`
		Rows int    `json:"rows"`
	}
	decodeJSON(t, resp, &fit)
	if fit.Rows != 400 {
		t.Fatalf("builtin rows = %d, want 400", fit.Rows)
	}

	req := map[string]any{"records": 10, "k": 2, "gamma": 16, "seed": 1, "max_check_plausible": 100}
	body, sresp := synthesize(t, ts, fit.ID, req)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("builtin synthesize status = %d, body %s", sresp.StatusCode, body)
	}
	if n := len(strings.Split(strings.TrimSpace(body), "\n")); n != 10 {
		t.Fatalf("builtin synthesize streamed %d records, want 10", n)
	}
}

// TestConcurrentSynthesize drives N parallel synthesize requests against
// one cached model; every stream must succeed and be byte-identical (same
// seed), whatever worker grants the shared pool hands out. Run under
// -race this also exercises registry/pool/metrics synchronization.
func TestConcurrentSynthesize(t *testing.T) {
	ts := newTestServer(t)
	id := fitTestModel(t, ts)

	const parallel = 8
	bodies := make([]string, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(baseSynthReq())
			resp, err := http.Post(ts.URL+"/v1/models/"+id+"/synthesize", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = string(body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < parallel; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d streamed different records than request 0", i)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/v1/models/m-0123456789abcdef"); code != http.StatusNotFound {
		t.Errorf("unknown model status = %d, want 404", code)
	}
	if code := get("/v1/models/../../etc/passwd"); code != http.StatusNotFound {
		t.Errorf("traversal id status = %d, want 404", code)
	}
	if code := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown route status = %d, want 404", code)
	}
	// GET /v1/models is the list endpoint, so the wrong-method probe uses
	// PUT.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT models status = %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fit body status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/models", map[string]any{"csv": "A,B\n1,2\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("csv without metadata status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/models", map[string]any{"dataset": "census"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown builtin status = %d, want 400", resp.StatusCode)
	}

	// A typoed privacy knob must be rejected, not silently ignored.
	resp = postJSON(t, ts.URL+"/v1/models", map[string]any{
		"dataset": "acs", "rows": 300, "model_epsilon": 1.0,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fit field status = %d, want 400", resp.StatusCode)
	}

	id := fitTestModel(t, ts)
	body, sresp := synthesize(t, ts, id, map[string]any{"records": 0})
	if sresp.StatusCode != http.StatusBadRequest {
		t.Errorf("records=0 status = %d (%s), want 400", sresp.StatusCode, body)
	}
	body, sresp = synthesize(t, ts, id, map[string]any{"records": 2_000_000_000})
	if sresp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge records status = %d (%s), want 400", sresp.StatusCode, body)
	}
	body, sresp = synthesize(t, ts, id, map[string]any{"records": 5, "k": 3, "gamma": 0.5})
	if sresp.StatusCode != http.StatusBadRequest {
		t.Errorf("gamma<=1 status = %d (%s), want 400", sresp.StatusCode, body)
	}
}

func TestOversizedUploadGets413(t *testing.T) {
	ts := httptest.NewServer(newServer(t, server.Config{MaxUploadBytes: 256}))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/models", map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status = %d, want 413", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id := fitTestModel(t, ts)
	if _, resp := synthesize(t, ts, id, baseSynthReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	metrics := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			metrics[line[:i]] = line[i+1:]
		}
	}
	if metrics["sgfd_records_released_total"] != "25" {
		t.Errorf("sgfd_records_released_total = %q, want 25", metrics["sgfd_records_released_total"])
	}
	if metrics["sgfd_models_fitted_total"] != "1" {
		t.Errorf("sgfd_models_fitted_total = %q, want 1", metrics["sgfd_models_fitted_total"])
	}
	if v, ok := metrics["sgfd_privacy_test_pass_rate"]; !ok || v == "0.000000" {
		t.Errorf("sgfd_privacy_test_pass_rate = %q, want > 0", v)
	}
	found := false
	for k := range metrics {
		if strings.HasPrefix(k, `sgfd_requests_total{handler="synthesize"`) {
			found = true
		}
	}
	if !found {
		t.Error("metrics missing per-handler request counter for synthesize")
	}
}

// heldWriter holds a response's first write until release is closed, as
// a client that stopped reading would, and closes holding when it starts
// to hold.
type heldWriter struct {
	http.ResponseWriter
	holding, release chan struct{}
	once             sync.Once
}

func (w *heldWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.holding)
		<-w.release
	})
	return w.ResponseWriter.Write(p)
}

func (w *heldWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestSynthesizeLendsIdleWorkers pins lending over HTTP on a pool of 2. A
// request of many candidate batches that does not name workers borrows the
// idle token; while its stream is held mid-way, holding its own token, a
// second request still completes. Both streams equal the same requests
// sent with "workers": 1, which never borrows.
func TestSynthesizeLendsIdleWorkers(t *testing.T) {
	srv := newServer(t, server.Config{PoolSize: 2, CacheCap: 4, StoreDir: t.TempDir()})
	held := &heldWriter{holding: make(chan struct{}), release: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Test-Hold") != "" {
			held.ResponseWriter = w
			w = held
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	id := fitTestModel(t, ts)
	url := ts.URL + "/v1/models/" + id + "/synthesize"
	long := map[string]any{"records": 3000, "k": 3, "gamma": 8, "seed": 42} // 12 batches in its first chunk
	short := map[string]any{"records": 25, "k": 3, "gamma": 8, "seed": 43}
	one := func(req map[string]any) map[string]any {
		out := map[string]any{"workers": 1}
		for k, v := range req {
			out[k] = v
		}
		return out
	}
	wantLong, _ := synthesize(t, ts, id, one(long))
	wantShort, _ := synthesize(t, ts, id, one(short))
	if got := scrapeMetric(t, ts, "sgfd_workers_borrowed_total"); got != "0" {
		t.Fatalf(`sgfd_workers_borrowed_total = %q after "workers": 1 requests, want 0`, got)
	}

	longBody := make(chan string, 1)
	go func() {
		raw, _ := json.Marshal(long)
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
		req.Header.Set("X-Test-Hold", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			longBody <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		longBody <- string(body)
	}()
	<-held.holding
	gotShort, resp := synthesize(t, ts, id, short)
	if resp.StatusCode != http.StatusOK || gotShort != wantShort {
		t.Fatalf("second request: status %d, stream equal to its workers=1 stream: %v", resp.StatusCode, gotShort == wantShort)
	}
	if got := scrapeMetric(t, ts, "sgfd_synthesize_in_flight"); got != "1" {
		t.Fatalf("sgfd_synthesize_in_flight = %q after the second request, want 1 (the held stream)", got)
	}
	if got := scrapeMetric(t, ts, "sgfd_workers_borrowed_total"); got == "0" || got == "" {
		t.Fatalf("sgfd_workers_borrowed_total = %q, want the held request's loans", got)
	}
	close(held.release)
	if got := <-longBody; got != wantLong {
		t.Fatalf("the lending request streamed %d bytes unequal to its workers=1 stream (%d bytes)", len(got), len(wantLong))
	}
	var hz struct {
		InUse int `json:"workers_in_use"`
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, r, &hz)
	if hz.InUse != 0 {
		t.Fatalf("workers_in_use = %d after both streams, want 0", hz.InUse)
	}
}
