package server_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// This file holds the durable-state acceptance tests of snapshot format
// v2: restarting sgfd with the same -store-dir preserves (a) model
// ownership (cross-tenant access still 404), (b) finished job results
// (GET /v1/jobs/{id}/result identical bytes), and (c) the per-tenant
// records-released privacy ledger — and a tenant over its lifetime (ε, δ)
// budget gets 403 before any synthesis work is admitted.

// authStoreServer starts an auth-enabled test server persisting to dir,
// returning both handles so tests can Close (flush) and restart it.
func authStoreServer(t *testing.T, dir string, cfg server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(authKeysJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	auth, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StoreDir = dir
	cfg.Auth = auth
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 8
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 4
	}
	srv := newServer(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// getBody performs an authenticated GET and returns status and body.
func getBody(t *testing.T, url, key string) (int, string) {
	t.Helper()
	resp := do(t, http.MethodGet, url, key, nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRestartPreservesDurableState is the acceptance path for the v2
// durable-state layer, end to end: fit + synthesize + eval as alice, stop
// the server, start a fresh one over the same directory, and verify
// ownership isolation, the served job result bytes and the ledger counts
// all survived.
func TestRestartPreservesDurableState(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})

	// Alice fits a model and draws 25 records.
	id := fitAs(t, ts1, keyAlice, 11)
	sresp := do(t, http.MethodPost, ts1.URL+"/v1/models/"+id+"/synthesize", keyAlice, baseSynthReq())
	stream1, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d err %v", sresp.StatusCode, err)
	}

	// Alice runs a cheap evaluation job (pipeline only) to completion.
	cfg := smallSuiteConfig()
	cfg.Sections = []string{"pipeline"}
	eresp := do(t, http.MethodPost, ts1.URL+"/v1/eval", keyAlice, cfg)
	if eresp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(eresp.Body)
		eresp.Body.Close()
		t.Fatalf("eval launch status %d: %s", eresp.StatusCode, body)
	}
	var acc struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	decodeJSON(t, eresp, &acc)
	jobID := acc.Job.ID
	deadline := 0
	for {
		st, body := getBody(t, ts1.URL+"/v1/jobs/"+jobID, keyAlice)
		if st != http.StatusOK {
			t.Fatalf("job status %d: %s", st, body)
		}
		if strings.Contains(body, `"state":"done"`) {
			break
		}
		if strings.Contains(body, `"state":"failed"`) {
			t.Fatalf("job failed: %s", body)
		}
		if deadline++; deadline > 2400 {
			t.Fatal("job did not finish")
		}
		time.Sleep(50 * time.Millisecond)
	}
	resultStatus, result1 := getBody(t, ts1.URL+"/v1/jobs/"+jobID+"/result", keyAlice)
	if resultStatus != http.StatusOK {
		t.Fatalf("result status %d", resultStatus)
	}

	// Bob cannot see alice's model or job before the restart (baseline).
	if st, _ := getBody(t, ts1.URL+"/v1/models/"+id, keyBob); st != http.StatusNotFound {
		t.Fatalf("bob sees alice's model pre-restart: %d", st)
	}

	// Graceful stop: drain the statelog and flush.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart over the same directory.
	ts2, _ := authStoreServer(t, dir, server.Config{})

	// (a) Ownership survived: alice 200, bob 404, admin 200.
	if st, _ := getBody(t, ts2.URL+"/v1/models/"+id, keyAlice); st != http.StatusOK {
		t.Fatalf("alice lost her model across the restart: %d", st)
	}
	if st, _ := getBody(t, ts2.URL+"/v1/models/"+id, keyBob); st != http.StatusNotFound {
		t.Fatalf("bob gained access to alice's model across the restart: %d", st)
	}
	if st, _ := getBody(t, ts2.URL+"/v1/models/"+id, keyRoot); st != http.StatusOK {
		t.Fatalf("admin cannot see the restored model: %d", st)
	}
	// And the model still streams the same bytes, without a refit.
	sresp2 := do(t, http.MethodPost, ts2.URL+"/v1/models/"+id+"/synthesize", keyAlice, baseSynthReq())
	stream2, err := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if err != nil || sresp2.StatusCode != http.StatusOK {
		t.Fatalf("warm synthesize status %d err %v", sresp2.StatusCode, err)
	}
	if string(stream2) != string(stream1) {
		t.Fatal("restored model streamed different bytes")
	}
	if got := scrapeMetric(t, ts2, "sgfd_models_fitted_total"); got != "0" {
		t.Fatalf("restart refitted %s models", got)
	}

	// (b) The finished job result survived, byte-identically, and stays
	// tenant-scoped: bob 404, alice identical bytes.
	if st, _ := getBody(t, ts2.URL+"/v1/jobs/"+jobID, keyBob); st != http.StatusNotFound {
		t.Fatalf("bob sees alice's restored job: %d", st)
	}
	resultStatus2, result2 := getBody(t, ts2.URL+"/v1/jobs/"+jobID+"/result", keyAlice)
	if resultStatus2 != http.StatusOK {
		t.Fatalf("restored result status %d: %s", resultStatus2, result2)
	}
	if result2 != result1 {
		t.Fatalf("restored job result differs:\npre:  %s\npost: %s", result1, result2)
	}

	// (c) The ledger survived: alice's 25 released records (the synthesize
	// stream above adds 25 more in this process — the restored base is what
	// proves durability).
	got := scrapeMetric(t, ts2, `sgfd_tenant_privacy_budget_records_total{tenant="alice"}`)
	if got != "50" {
		t.Fatalf("alice's restored ledger = %q records, want 50 (25 restored + 25 fresh)", got)
	}
}

// TestBudgetExhausted403 drives the lifetime (ε, δ) budget over HTTP: a
// request past the budget is refused with 403 before any synthesis work
// runs, and the refusal keys off restored ledger state after a restart.
func TestBudgetExhausted403(t *testing.T) {
	dir := t.TempDir()
	// ε=5, δ=1e-6 admits 4 records lifetime at (k=50, γ=4, ε0=1).
	budget := server.Config{PoolSize: 4, CacheCap: 4, StoreDir: dir, TenantBudgetEps: 5, TenantBudgetDelta: 1e-6}
	srv1 := newServer(t, budget)
	ts1 := httptest.NewServer(srv1)
	t.Cleanup(ts1.Close)

	id := fitTestModel(t, ts1)
	synthReq := func(records int) map[string]any {
		return map[string]any{"records": records, "k": 50, "gamma": 4, "eps0": 1, "seed": 9}
	}

	// Over-budget up front: 403 before any generation work — no candidates
	// are ever drawn.
	body, resp := synthesize(t, ts1, id, synthReq(25))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget synthesize = %d (%s), want 403", resp.StatusCode, body)
	}
	if !strings.Contains(body, "lifetime privacy budget") {
		t.Fatalf("403 body does not explain the budget: %s", body)
	}
	if got := scrapeMetric(t, ts1, "sgfd_candidates_drawn_total"); got != "0" {
		t.Fatalf("denied request drew %s candidates, want 0", got)
	}
	if got := scrapeMetric(t, ts1, "sgfd_privacy_budget_denied_total"); got != "1" {
		t.Fatalf("sgfd_privacy_budget_denied_total = %q, want 1", got)
	}

	// Within budget: 3 records stream fine.
	if _, resp := synthesize(t, ts1, id, synthReq(3)); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget synthesize = %d", resp.StatusCode)
	}
	// 3 spent of 4: three more do not fit.
	if _, resp := synthesize(t, ts1, id, synthReq(3)); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("second over-budget synthesize = %d, want 403", resp.StatusCode)
	}

	// A deterministic-test release (eps0 absent) cannot be accounted and is
	// refused under enforcement.
	if body, resp := synthesize(t, ts1, id, map[string]any{"records": 1, "k": 50, "gamma": 4}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("deterministic-test release = %d (%s), want 403", resp.StatusCode, body)
	}

	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the 3 spent records are restored, so 2 more still overflow
	// (3+2 > 4) while 1 fits. Enforcement is running on disk state alone.
	srv2 := newServer(t, budget)
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	if _, resp := synthesize(t, ts2, id, synthReq(2)); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("post-restart over-budget synthesize = %d, want 403", resp.StatusCode)
	}
	if _, resp := synthesize(t, ts2, id, synthReq(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart in-budget synthesize = %d, want 200", resp.StatusCode)
	}
}

// TestWriterDeletesOwnJob covers the job-deletion satellite: a writer may
// cancel/delete its own jobs, another tenant's job reads as 404, and the
// denied probe never cancels anything.
func TestWriterDeletesOwnJob(t *testing.T) {
	ts, _ := authStoreServer(t, t.TempDir(), server.Config{})

	cfg := smallSuiteConfig()
	cfg.Sections = []string{"pipeline"}
	resp := do(t, http.MethodPost, ts.URL+"/v1/eval", keyAlice, cfg)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("eval launch status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	decodeJSON(t, resp, &acc)
	jobID := acc.Job.ID

	// Bob (writer, different tenant): 404 — and the job is NOT cancelled.
	if got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, keyBob, nil)); got != http.StatusNotFound {
		t.Fatalf("bob DELETE alice's job = %d, want 404", got)
	}
	if st, body := getBody(t, ts.URL+"/v1/jobs/"+jobID, keyAlice); st != http.StatusOK || strings.Contains(body, `"state":"failed"`) {
		t.Fatalf("denied DELETE cancelled the job: %d %s", st, body)
	}

	// Carol (reader, even of the same server): 403 by role.
	if got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, keyCarol, nil)); got != http.StatusForbidden {
		t.Fatalf("reader DELETE job = %d, want 403", got)
	}

	// Alice (writer, owner): allowed — 202 while active, 200 once finished.
	dresp := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, keyAlice, nil)
	if got := status(t, dresp); got != http.StatusAccepted && got != http.StatusOK {
		t.Fatalf("alice DELETE own job = %d, want 202 or 200", got)
	}
	// A cancelled job stays pollable (failed) until deleted again; an
	// evicted one is already a 404. Either way a repeat delete converges to
	// 404.
	deadline := 0
	for {
		got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, keyAlice, nil))
		if got == http.StatusNotFound {
			break
		}
		if got != http.StatusOK && got != http.StatusAccepted {
			t.Fatalf("repeat DELETE = %d", got)
		}
		if deadline++; deadline > 500 {
			t.Fatal("job never became deletable")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConfigRejectsBadBudget: the server refuses budget configuration the
// tenant key file would reject too — a δ that is not a probability or a
// negative ε must fail loudly, not corrupt every admission decision.
func TestConfigRejectsBadBudget(t *testing.T) {
	if _, err := server.New(server.Config{TenantBudgetEps: -1}); err == nil {
		t.Error("negative TenantBudgetEps accepted")
	}
	if _, err := server.New(server.Config{TenantBudgetEps: 5, TenantBudgetDelta: 1}); err == nil {
		t.Error("TenantBudgetDelta = 1 accepted")
	}
	if _, err := server.New(server.Config{TenantBudgetEps: 5, TenantBudgetDelta: -0.1}); err == nil {
		t.Error("negative TenantBudgetDelta accepted")
	}
}

// TestHealthzReportsLedgerErrorsDistinctly covers the /healthz satellite:
// a failing ledger flush surfaces as last_ledger_error without touching
// the snapshot save-error fields, and the store section carries the
// format version.
func TestHealthzReportsLedgerErrorsDistinctly(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(t, server.Config{PoolSize: 2, CacheCap: 2, StoreDir: dir})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	id := fitTestModel(t, ts)

	// Make the ledger path unwritable: a directory squats on the ledger
	// temp-rename target... the rename itself fails only if the target is a
	// non-empty directory, so plant exactly that.
	if err := os.MkdirAll(filepath.Join(dir, "ledger.v2", "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, resp := synthesize(t, ts, id, baseSynthReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d", resp.StatusCode)
	}
	// Drain the write-behind flusher deterministically.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Store struct {
			FormatVersion   int    `json:"format_version"`
			SaveErrors      int64  `json:"save_errors"`
			LedgerErrors    int64  `json:"ledger_errors"`
			LastSaveError   string `json:"last_save_error"`
			LastLedgerError string `json:"last_ledger_error"`
		} `json:"store"`
		Privacy struct {
			RecordsTotal int64 `json:"records_total"`
		} `json:"privacy_ledger"`
	}
	decodeJSON(t, resp, &health)
	if health.Store.FormatVersion != 2 {
		t.Fatalf("format_version = %d, want 2", health.Store.FormatVersion)
	}
	if health.Store.LedgerErrors == 0 || health.Store.LastLedgerError == "" {
		t.Fatalf("ledger flush failure not surfaced: %+v", health.Store)
	}
	if health.Store.SaveErrors != 0 || health.Store.LastSaveError != "" {
		t.Fatalf("ledger failure bled into snapshot save errors: %+v", health.Store)
	}
	if health.Privacy.RecordsTotal != 25 {
		t.Fatalf("privacy_ledger records_total = %d, want 25", health.Privacy.RecordsTotal)
	}
}

// waitModelReady polls GET /v1/models/{id} until the model is ready.
func waitModelReady(t *testing.T, ts *httptest.Server, id, key string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, body := getBody(t, ts.URL+"/v1/models/"+id, key)
		if st == http.StatusOK && strings.Contains(body, `"state":"ready"`) {
			return
		}
		if st != http.StatusOK || strings.Contains(body, `"state":"failed"`) {
			t.Fatalf("model %s: status %d: %s", id, st, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("model %s never became ready", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runEvalJob launches a pipeline-only evaluation as the given writer and
// waits until it is done, returning its ID.
func runEvalJob(t *testing.T, ts *httptest.Server, key string) string {
	t.Helper()
	cfg := smallSuiteConfig()
	cfg.Sections = []string{"pipeline"}
	resp := do(t, http.MethodPost, ts.URL+"/v1/eval", key, cfg)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("eval launch status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	decodeJSON(t, resp, &acc)
	if info := pollJobAs(t, ts, acc.Job.ID, key); info.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", acc.Job.ID, info.State, info.Error)
	}
	return acc.Job.ID
}

// waitJobRecord waits until the finished job's record is on disk.
func waitJobRecord(t *testing.T, dir, id string) string {
	t.Helper()
	path := filepath.Join(dir, id+".job")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return path
		}
		if time.Now().After(deadline) {
			t.Fatalf("job record %s never written", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopServer stops serving, then closes the server (the flush every
// restart test goes through).
func stopServer(t *testing.T, ts *httptest.Server, srv *server.Server) {
	t.Helper()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCoOwnershipSurvivesRestart: a second tenant's identical upload makes
// it a co-owner on disk whenever it arrives — while the first owner's fit
// is still running, or after the model is ready. After a restart both
// owners read the model and a third writer still gets 404.
func TestCoOwnershipSurvivesRestart(t *testing.T) {
	for _, duringFit := range []bool{true, false} {
		name := "after-ready"
		if duringFit {
			name = "during-fit"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ts1, srv1 := authStoreServer(t, dir, server.Config{})
			entered, gate := make(chan struct{}), make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(release) // never leave the fit parked
			if duringFit {
				srv1.SetFitHook(func() { close(entered); <-gate })
			}

			id := fitAs(t, ts1, keyAlice, 11)
			if duringFit {
				<-entered // alice's fit holds the gate: the entry is fitting
				if got := fitAs(t, ts1, keyBob, 11); got != id {
					t.Fatalf("bob's identical upload got %s, want %s", got, id)
				}
				release()
			}
			waitModelReady(t, ts1, id, keyAlice)
			if !duringFit {
				if got := fitAs(t, ts1, keyBob, 11); got != id {
					t.Fatalf("bob's identical upload got %s, want %s", got, id)
				}
			}
			stopServer(t, ts1, srv1)

			ts2, _ := authStoreServer(t, dir, server.Config{})
			for _, key := range []string{keyAlice, keyBob} {
				if st, body := getBody(t, ts2.URL+"/v1/models/"+id, key); st != http.StatusOK {
					t.Fatalf("owner lost the model across the restart: %d %s", st, body)
				}
			}
			if st, _ := getBody(t, ts2.URL+"/v1/models/"+id, keyTurtle); st != http.StatusNotFound {
				t.Fatalf("a third writer sees the model after the restart: %d", st)
			}
		})
	}
}

// TestDeletedJobStaysDeleted: a finished job deleted before a restart does
// not come back after it.
func TestDeletedJobStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	jobID := runEvalJob(t, ts1, keyAlice)
	waitJobRecord(t, dir, jobID) // the delete must remove a written record
	if got := status(t, do(t, http.MethodDelete, ts1.URL+"/v1/jobs/"+jobID, keyAlice, nil)); got != http.StatusOK {
		t.Fatalf("DELETE finished job = %d, want 200", got)
	}
	stopServer(t, ts1, srv1)

	ts2, _ := authStoreServer(t, dir, server.Config{})
	for _, path := range []string{"/v1/jobs/" + jobID, "/v1/jobs/" + jobID + "/result"} {
		if st, body := getBody(t, ts2.URL+path, keyAlice); st != http.StatusNotFound {
			t.Fatalf("GET %s after the restart = %d (%s), want 404", path, st, body)
		}
	}
}

// TestFailedLedgerFlushRecovers: a ledger write that fails (a directory
// squats on the ledger file) is retried at Close, so the charge survives
// the restart once the squat is gone.
func TestFailedLedgerFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	id := fitAs(t, ts1, keyAlice, 11)

	squat := filepath.Join(dir, "ledger.v2")
	if err := os.MkdirAll(filepath.Join(squat, "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	sresp := do(t, http.MethodPost, ts1.URL+"/v1/models/"+id+"/synthesize", keyAlice, baseSynthReq())
	if got := status(t, sresp); got != http.StatusOK {
		t.Fatalf("synthesize status %d", got)
	}
	// Wait for the failed write, so the retry is what the restart sees.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var health struct {
			Store struct {
				LedgerErrors int64 `json:"ledger_errors"`
			} `json:"store"`
		}
		resp, err := http.Get(ts1.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		decodeJSON(t, resp, &health)
		if health.Store.LedgerErrors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the ledger write never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	stopServer(t, ts1, srv1)

	ts2, _ := authStoreServer(t, dir, server.Config{})
	if got := scrapeMetric(t, ts2, `sgfd_tenant_privacy_budget_records_total{tenant="alice"}`); got != "25" {
		t.Fatalf("alice's restored ledger = %q records, want 25", got)
	}
}

// TestServerCloseRestoresJobRecords: Close writes the record of every
// retained finished job whose record is missing from disk (the second
// chance Close gives model snapshots), so the result survives the restart
// byte for byte.
func TestServerCloseRestoresJobRecords(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	jobID := runEvalJob(t, ts1, keyAlice)
	st, result1 := getBody(t, ts1.URL+"/v1/jobs/"+jobID+"/result", keyAlice)
	if st != http.StatusOK {
		t.Fatalf("result status %d", st)
	}
	// Simulate a lost record (removed behind the server's back).
	if err := os.Remove(waitJobRecord(t, dir, jobID)); err != nil {
		t.Fatal(err)
	}
	stopServer(t, ts1, srv1)

	ts2, _ := authStoreServer(t, dir, server.Config{})
	st, result2 := getBody(t, ts2.URL+"/v1/jobs/"+jobID+"/result", keyAlice)
	if st != http.StatusOK || result2 != result1 {
		t.Fatalf("result after the restart: status %d\npre:  %s\npost: %s", st, result1, result2)
	}
}

// TestUnreadableLedgerStopsBoot: a ledger file that exists but cannot be
// read or decoded stops New with an error naming the file, and the file is
// left exactly as it was. Starting from an empty ledger instead would
// forget every record released before the restart.
func TestUnreadableLedgerStopsBoot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, path string)
	}{
		{"newer-version", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[8] = store.Version + 1
			sum := crc32.Checksum(raw[:len(raw)-4], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x08
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutLedger(&store.Ledger{Entries: []store.LedgerEntry{
				{Tenant: "alice", K: 3, Gamma: 8, Records: 25},
			}}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "ledger.v2")
			tc.spoil(t, path)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			srv, err := server.New(server.Config{StoreDir: dir})
			if err == nil {
				srv.Close()
				t.Fatal("New started over an unreadable ledger")
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "move") {
				t.Errorf("error does not name the file and the way out: %v", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
				t.Errorf("ledger file changed (read err %v)", err)
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "ledger.v2.*")); len(files) != 0 {
				t.Errorf("ledger moved aside: %v", files)
			}
		})
	}
}
