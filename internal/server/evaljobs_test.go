package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/server"
)

// smallSuiteConfig mirrors the eval package's fast end-to-end workload so
// the integration test can compare the served result against a direct
// in-process run of the same config.
func smallSuiteConfig() eval.SuiteConfig {
	cfg := eval.DefaultSuiteConfig(12000, 3)
	cfg.K = 10
	cfg.MaxCost = 32
	cfg.SynthPerVariant = 400
	cfg.MaxCheckPlausible = 6000
	cfg.Omegas = []eval.OmegaSpec{{Lo: 5, Hi: 11}}
	cfg.Reps = 1
	cfg.Sections = []string{"fig34", "fig6", "table5", "attack"}
	cfg.Fig6Ks = []int{5, 20}
	cfg.Fig6Candidates = 120
	cfg.Table5Train = 150
	cfg.Table5Test = 80
	cfg.AttackCandidates = 120
	return cfg
}

// launchEval POSTs a suite config to /v1/eval and returns the job ID.
func launchEval(t *testing.T, ts *httptest.Server, cfg eval.SuiteConfig) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/eval", cfg)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/eval status %d", resp.StatusCode)
	}
	var acc struct {
		Job     jobs.Info `json:"job"`
		Version string    `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(acc.Job.ID, "j-") {
		t.Fatalf("malformed job id %q", acc.Job.ID)
	}
	if acc.Version == "" {
		t.Fatal("launch response missing version")
	}
	return acc.Job.ID
}

// pollJob polls GET /v1/jobs/{id} without a key until the job reaches a
// terminal state (see pollJobAs).
func pollJob(t *testing.T, ts *httptest.Server, id string) jobs.Info {
	t.Helper()
	return pollJobAs(t, ts, id, "")
}

// pollJobAs polls GET /v1/jobs/{id} with a key ("" sends none) until the
// job reaches a terminal state, asserting monotone non-decreasing progress
// along the way. It gives up on a wall-clock deadline, not a poll count, so
// how fast the polls run cannot decide whether a slow job "finished".
func pollJobAs(t *testing.T, ts *httptest.Server, id, key string) jobs.Info {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	last := -1.0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time", id)
		}
		var info jobs.Info
		decodeJSON(t, do(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, key, nil), &info)
		if info.Progress < last {
			t.Fatalf("progress regressed from %v to %v", last, info.Progress)
		}
		last = info.Progress
		if info.State.Finished() {
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEvalJobEndToEnd is the acceptance path: POST /v1/eval completes in
// the httptest suite, and GET /v1/jobs/{id}/result returns the same
// table/figure rows a direct eval.RunSuite (the cmd/experiments path)
// produces for the same seed and config.
func TestEvalJobEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	cfg := smallSuiteConfig()
	id := launchEval(t, ts, cfg)

	info := pollJob(t, ts, id)
	if info.State != jobs.StateDone {
		t.Fatalf("job finished %s: %s", info.State, info.Error)
	}
	if info.Progress != 1 {
		t.Fatalf("done job progress %v", info.Progress)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result status %d", resp.StatusCode)
	}
	var got struct {
		Job     jobs.Info         `json:"job"`
		Version string            `json:"version"`
		Result  *eval.SuiteResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Version == "" {
		t.Fatal("result missing version")
	}

	direct, err := eval.RunSuite(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-timing number must match the direct run bit for bit: the
	// figure series, the tables, the attack outcome, and the per-variant
	// generation statistics.
	if !reflect.DeepEqual(got.Result.Fig34, direct.Fig34) {
		t.Errorf("fig34 differs:\nserved %+v\ndirect %+v", got.Result.Fig34, direct.Fig34)
	}
	if !reflect.DeepEqual(got.Result.Fig6, direct.Fig6) {
		t.Errorf("fig6 differs:\nserved %+v\ndirect %+v", got.Result.Fig6, direct.Fig6)
	}
	if !reflect.DeepEqual(got.Result.Table5, direct.Table5) {
		t.Errorf("table5 differs:\nserved %+v\ndirect %+v", got.Result.Table5, direct.Table5)
	}
	if !reflect.DeepEqual(got.Result.Attack, direct.Attack) {
		t.Errorf("attack differs:\nserved %+v\ndirect %+v", got.Result.Attack, direct.Attack)
	}
	if !reflect.DeepEqual(got.Result.Pipeline.Variants, direct.Pipeline.Variants) {
		t.Errorf("variant stats differ:\nserved %+v\ndirect %+v", got.Result.Pipeline.Variants, direct.Pipeline.Variants)
	}

	// The job shows up in the listing with the build version.
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Version string      `json:"version"`
		Jobs    []jobs.Info `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Version == "" {
		t.Fatal("job listing missing version")
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == id
	}
	if !found {
		t.Fatalf("job %s missing from listing %+v", id, list.Jobs)
	}
}

// TestEvalJobCancellation launches a long run, cancels it mid-flight, and
// verifies it lands in failed with a cancellation reason — and that the
// run slot is freed for the next job.
func TestEvalJobCancellation(t *testing.T) {
	ts := newTestServer(t)
	big := eval.DefaultSuiteConfig(150000, 1)
	id := launchEval(t, ts, big)

	// While unfinished, the result endpoint refuses with 409.
	resResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resResp.Body.Close()
	if resResp.StatusCode != http.StatusConflict {
		t.Fatalf("result of unfinished job: status %d", resResp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusAccepted && delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", delResp.StatusCode)
	}

	info := pollJob(t, ts, id)
	if info.State != jobs.StateFailed {
		t.Fatalf("cancelled job state %s", info.State)
	}
	if !strings.Contains(info.Error, "cancel") {
		t.Fatalf("cancelled job error %q carries no cancellation reason", info.Error)
	}

	// The slot is free: a small follow-up job completes (EvalMaxRunning
	// defaults to 1, so a leaked slot would hang this forever).
	small := smallSuiteConfig()
	small.Sections = []string{"fig6"}
	followID := launchEval(t, ts, small)
	if follow := pollJob(t, ts, followID); follow.State != jobs.StateDone {
		t.Fatalf("follow-up job %s: %s", follow.State, follow.Error)
	}
}

// TestJobDeleteFinishedEvicts is the regression test for the
// finished-job DELETE race: deleting a done job must evict it (200 with
// the final state), deleting it again must 404, and the cancel path must
// never fire for a job that already finished.
func TestJobDeleteFinishedEvicts(t *testing.T) {
	ts := newTestServer(t)
	small := smallSuiteConfig()
	small.Sections = []string{"fig6"}
	id := launchEval(t, ts, small)
	if info := pollJob(t, ts, id); info.State != jobs.StateDone {
		t.Fatalf("job finished %s: %s", info.State, info.Error)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("DELETE finished job = %d (%s), want 200", resp.StatusCode, body)
	}
	var evicted struct {
		Job jobs.Info `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&evicted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if evicted.Job.State != jobs.StateDone {
		t.Errorf("evicted job reported state %s, want done (not a stale cancel)", evicted.Job.State)
	}

	// Actually evicted: gone from status and a second DELETE.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Errorf("status after evict = %d, want 404", sresp.StatusCode)
	}
	again, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
	if again.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", again.StatusCode)
	}
}

func TestEvalRequestValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"tiny n", `{"n": 50, "seed": 1}`, http.StatusBadRequest},
		{"oversized n", `{"n": 100000000, "seed": 1}`, http.StatusBadRequest},
		{"unknown section", `{"n": 2000, "sections": ["fig99"]}`, http.StatusBadRequest},
		{"unknown field", `{"n": 2000, "model_epsilon": 1}`, http.StatusBadRequest},
		{"oversized reps", `{"n": 2000, "reps": 1000}`, http.StatusBadRequest},
		{"negative knob", `{"n": 2000, "fig6_candidates": -5}`, http.StatusBadRequest},
		{"oversized fig5 count", `{"n": 2000, "fig5_counts": [2000000000]}`, http.StatusBadRequest},
		{"negative synth", `{"n": 2000, "synth_per_variant": -5}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Unknown and malformed job IDs.
	for path, want := range map[string]int{
		"/v1/jobs/j-0123456789abcdef":        http.StatusNotFound,
		"/v1/jobs/j-0123456789abcdef/result": http.StatusNotFound,
		"/v1/jobs/nope":                      http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestEvalPendingLimit verifies the 429 admission bound on unfinished jobs.
func TestEvalPendingLimit(t *testing.T) {
	srv := newServer(t, server.Config{PoolSize: 4, EvalMaxRunning: 1, EvalMaxPending: 1, StoreDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// One admitted job fills the pending budget...
	cfg := smallSuiteConfig()
	id := launchEval(t, ts, cfg)
	// ...so a second launch is refused while the first is unfinished.
	resp := postJSON(t, ts.URL+"/v1/eval", cfg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit launch status %d", resp.StatusCode)
	}
	if info := pollJob(t, ts, id); info.State != jobs.StateDone {
		t.Fatalf("job finished %s: %s", info.State, info.Error)
	}
}

// TestHealthzAndMetricsReportJobs checks the observability satellite: the
// jobs section on /healthz (with the build version) and the sgfd_jobs_*
// series on /metrics.
func TestHealthzAndMetricsReportJobs(t *testing.T) {
	ts := newTestServer(t)
	small := smallSuiteConfig()
	small.Sections = []string{"fig6"}
	id := launchEval(t, ts, small)
	if info := pollJob(t, ts, id); info.State != jobs.StateDone {
		t.Fatalf("job finished %s: %s", info.State, info.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status  string     `json:"status"`
		Version string     `json:"version"`
		Jobs    jobs.Stats `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Version == "" {
		t.Fatal("healthz missing version")
	}
	if health.Jobs.Launched != 1 || health.Jobs.Done != 1 {
		t.Fatalf("healthz jobs section %+v", health.Jobs)
	}

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	raw, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"sgfd_jobs_launched_total 1",
		"sgfd_jobs_done_total 1",
		"sgfd_jobs_failed_total 0",
		"sgfd_jobs_running 0",
		"sgfd_jobs_retained 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
