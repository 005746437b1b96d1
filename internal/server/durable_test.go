package server_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// This file holds the durable-state acceptance tests of snapshot format
// v2: restarting sgfd with the same -store-dir preserves (a) model
// ownership (cross-tenant access still 404) and (b) the per-tenant
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
// durable-state layer, end to end: fit + synthesize as alice, stop the
// server, start a fresh one over the same directory, and verify ownership
// isolation and the ledger counts both survived.
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

	// Bob cannot see alice's model before the restart (baseline).
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

	// (b) The ledger survived: alice's 25 released records (the synthesize
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

// oldJobRecord is an evaluation-job record (container kind 2) written by
// sgfd when it still served POST /v1/eval: a pipeline-only §6 run,
// persisted when the job finished.
const oldJobRecord = "testdata/j-10f418854e28610e.job"

// TestOldStoreWithJobRecordBoots boots over a store directory that also
// holds an evaluation-job record from a release that served them. The
// record is left exactly where it is, one warning names it, the job routes
// answer 404, and the model and the ledger come back as before.
func TestOldStoreWithJobRecordBoots(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	id := fitAs(t, ts1, keyAlice, 11)
	sresp := do(t, http.MethodPost, ts1.URL+"/v1/models/"+id+"/synthesize", keyAlice, baseSynthReq())
	stream1, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d err %v", sresp.StatusCode, err)
	}
	stopServer(t, ts1, srv1)

	job, err := os.ReadFile(oldJobRecord)
	if err != nil {
		t.Fatal(err)
	}
	jobPath := filepath.Join(dir, filepath.Base(oldJobRecord))
	if err := os.WriteFile(jobPath, job, 0o600); err != nil {
		t.Fatal(err)
	}

	sink := &syncWriter{}
	ts2, _ := authStoreServer(t, dir, server.Config{Logger: obs.NewLogger(sink, true, slog.LevelInfo)})
	var warnings []map[string]any
	for _, line := range sink.logLines(t) {
		if line["level"] == "WARN" {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 1 || warnings[0]["job_records"] != 1.0 || warnings[0]["store_dir"] != dir {
		t.Fatalf("boot warnings = %v, want one naming 1 job record in %s", warnings, dir)
	}
	if got := scrapeMetric(t, ts2, `sgfd_tenant_privacy_budget_records_total{tenant="alice"}`); got != "25" {
		t.Fatalf("alice's restored ledger = %q records, want 25", got)
	}
	sresp2 := do(t, http.MethodPost, ts2.URL+"/v1/models/"+id+"/synthesize", keyAlice, baseSynthReq())
	stream2, err := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if err != nil || sresp2.StatusCode != http.StatusOK || !bytes.Equal(stream2, stream1) {
		t.Fatalf("restored model: status %d err %v, same bytes %v", sresp2.StatusCode, err, bytes.Equal(stream2, stream1))
	}
	jobID := strings.TrimSuffix(filepath.Base(oldJobRecord), ".job")
	for _, path := range []string{"/v1/jobs/" + jobID, "/v1/jobs/" + jobID + "/result"} {
		if st, body := getBody(t, ts2.URL+path, keyAlice); st != http.StatusNotFound {
			t.Fatalf("GET %s = %d (%s), want 404", path, st, body)
		}
	}
	if got, err := os.ReadFile(jobPath); err != nil || !bytes.Equal(got, job) {
		t.Fatalf("job record moved or changed: %v", err)
	}
	if _, err := os.Stat(jobPath + ".corrupt"); err == nil {
		t.Fatal("job record was quarantined")
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
