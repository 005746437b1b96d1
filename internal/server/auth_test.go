package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/tenant"
)

// Keys for the auth-matrix test tenants. alice/bob are writers in separate
// tenants (the isolation pair), carol is a reader, root is the admin, and
// turtle is a writer with a tiny burst for the 429 path.
const (
	keyAlice     = "alice-writer-key-000001"
	keyAliceRead = "alice-read-key-0000001"
	keyBob       = "bob-writer-key-0000001"
	keyCarol     = "carol-reader-key-00001"
	keyRoot      = "root-admin-key-000001"
	keyTurtle    = "turtle-limited-key-01"
)

const authKeysJSON = `{
  "tenants": [
    {"name": "alice",  "key": "` + keyAlice + `",  "read_key": "` + keyAliceRead + `", "role": "writer"},
    {"name": "bob",    "key": "` + keyBob + `",    "role": "writer"},
    {"name": "carol",  "key": "` + keyCarol + `",  "role": "reader"},
    {"name": "root",   "key": "` + keyRoot + `",   "role": "admin"},
    {"name": "turtle", "key": "` + keyTurtle + `", "role": "writer", "rate_per_sec": 0.001, "burst": 2}
  ]
}`

// newAuthServer serves the standard test config with authentication on.
func newAuthServer(t *testing.T) *httptest.Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(authKeysJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	auth, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(t, server.Config{PoolSize: 8, CacheCap: 4, StoreDir: t.TempDir(), Auth: auth}))
	t.Cleanup(ts.Close)
	return ts
}

// do sends a request with the given API key ("" = none) and JSON body
// (nil = empty) and returns the response.
func do(t *testing.T, method, url, key string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// status drains and closes the response, returning its code.
func status(t *testing.T, resp *http.Response) int {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// fitAs uploads the standard test CSV under the given key with a
// tenant-distinct fit seed and returns the model ID.
func fitAs(t *testing.T, ts *httptest.Server, key string, seed int) string {
	t.Helper()
	resp := do(t, http.MethodPost, ts.URL+"/v1/models", key, map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     seed,
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("fit as %s: status %d, body %s", key, resp.StatusCode, body)
	}
	var fit struct {
		ID string `json:"id"`
	}
	decodeJSON(t, resp, &fit)
	return fit.ID
}

// TestAuthMatrix covers the 401/403 grid: missing and unknown keys, and
// each role probing one route above its bar.
func TestAuthMatrix(t *testing.T) {
	ts := newAuthServer(t)

	// Missing key: 401 with a WWW-Authenticate challenge, on reads and
	// writes alike.
	resp := do(t, http.MethodGet, ts.URL+"/v1/models", "", nil)
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 carries no WWW-Authenticate challenge")
	}
	if got := status(t, resp); got != http.StatusUnauthorized {
		t.Errorf("missing key GET /v1/models = %d, want 401", got)
	}
	if got := status(t, do(t, http.MethodPost, ts.URL+"/v1/models", "", map[string]any{"dataset": "acs"})); got != http.StatusUnauthorized {
		t.Errorf("missing key POST /v1/models = %d, want 401", got)
	}
	// Unknown key: 401 too.
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models", "who-is-this-key-000001", nil)); got != http.StatusUnauthorized {
		t.Errorf("unknown key = %d, want 401", got)
	}
	// X-Api-Key works as an alternative to the Bearer header.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
	req.Header.Set("X-Api-Key", keyCarol)
	if xresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if got := status(t, xresp); got != http.StatusOK {
		t.Errorf("X-Api-Key GET /v1/models = %d, want 200", got)
	}
	// The auth scheme is case-insensitive (RFC 7235).
	lreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
	lreq.Header.Set("Authorization", "bearer "+keyCarol)
	if lresp, err := http.DefaultClient.Do(lreq); err != nil {
		t.Fatal(err)
	} else if got := status(t, lresp); got != http.StatusOK {
		t.Errorf("lower-case bearer GET /v1/models = %d, want 200", got)
	}

	// Reader hitting writer and admin routes: 403 (the fit body is never
	// parsed — the gate sits in front of the handler).
	if got := status(t, do(t, http.MethodPost, ts.URL+"/v1/models", keyCarol, map[string]any{"dataset": "acs", "rows": 300})); got != http.StatusForbidden {
		t.Errorf("reader POST /v1/models = %d, want 403", got)
	}
	if got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/models/m-0123456789abcdef", keyCarol, nil)); got != http.StatusForbidden {
		t.Errorf("reader DELETE model = %d, want 403", got)
	}
	// The evaluation and job routes are gone: every role gets the plain
	// no-route 404.
	for _, tc := range []struct{ method, path, key string }{
		{http.MethodPost, "/v1/eval", keyCarol},
		{http.MethodPost, "/v1/eval", keyAlice},
		{http.MethodGet, "/v1/jobs", keyCarol},
		{http.MethodDelete, "/v1/jobs/j-0123456789abcdef", keyCarol},
		{http.MethodDelete, "/v1/jobs/j-0123456789abcdef", keyRoot},
	} {
		resp := do(t, tc.method, ts.URL+tc.path, tc.key, map[string]any{"n": 12000})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "no route for "+tc.path) {
			t.Errorf("%s %s = %d %s, want 404 no route", tc.method, tc.path, resp.StatusCode, body)
		}
	}
	// Reader on a reader route: fine.
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models", keyCarol, nil)); got != http.StatusOK {
		t.Errorf("reader GET /v1/models = %d, want 200", got)
	}

	// Open endpoints need no key.
	for _, path := range []string{"/healthz", "/metrics"} {
		if got := status(t, do(t, http.MethodGet, ts.URL+path, "", nil)); got != http.StatusOK {
			t.Errorf("GET %s without key = %d, want 200", path, got)
		}
	}
}

// TestAuthRateLimit drives a burst=2 tenant into a 429 with a Retry-After
// hint, and checks the throttle shows up in the tenant metrics.
func TestAuthRateLimit(t *testing.T) {
	ts := newAuthServer(t)

	var last *http.Response
	throttledAt := -1
	for i := 0; i < 3; i++ {
		last = do(t, http.MethodGet, ts.URL+"/v1/models", keyTurtle, nil)
		if last.StatusCode == http.StatusTooManyRequests {
			throttledAt = i
			break
		}
		status(t, last)
	}
	if throttledAt != 2 {
		t.Fatalf("throttled at request %d, want the 3rd (burst 2)", throttledAt+1)
	}
	if ra := last.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	} else if ra == "0" {
		t.Errorf("Retry-After = %q, want >= 1", ra)
	}
	status(t, last)

	// Other tenants are unaffected.
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models", keyCarol, nil)); got != http.StatusOK {
		t.Errorf("unthrottled tenant = %d, want 200", got)
	}

	// The throttle is visible on /metrics.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		`sgfd_tenant_throttled_total{tenant="turtle"} 1`,
		`sgfd_tenant_requests_total{tenant="turtle"} 2`,
		`sgfd_tenant_requests_total{tenant="carol"} 1`,
		`sgfd_tenant_workers_in_flight{tenant="turtle"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAuthModelScoping checks that models read as 404 across tenants, that
// uploading identical data grants co-ownership, and that admins see
// everything.
func TestAuthModelScoping(t *testing.T) {
	ts := newAuthServer(t)
	id := fitAs(t, ts, keyAlice, 11)

	// Bob cannot see alice's model: status, synthesize and export all 404.
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/v1/models/" + id, nil},
		{http.MethodPost, "/v1/models/" + id + "/synthesize", baseSynthReq()},
		{http.MethodGet, "/v1/models/" + id + "/export", nil},
	} {
		if got := status(t, do(t, probe.method, ts.URL+probe.path, keyBob, probe.body)); got != http.StatusNotFound {
			t.Errorf("bob %s %s = %d, want 404", probe.method, probe.path, got)
		}
	}
	// Alice can.
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models/"+id, keyAlice, nil)); got != http.StatusOK {
		t.Errorf("alice GET own model = %d, want 200", got)
	}
	// The admin can too.
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models/"+id, keyRoot, nil)); got != http.StatusOK {
		t.Errorf("admin GET model = %d, want 200", got)
	}

	// Bob's listing is empty; alice's and the admin's show the model.
	listIDs := func(key string) []string {
		resp := do(t, http.MethodGet, ts.URL+"/v1/models", key, nil)
		var list struct {
			Models []struct {
				ID string `json:"id"`
			} `json:"models"`
		}
		decodeJSON(t, resp, &list)
		ids := make([]string, len(list.Models))
		for i, m := range list.Models {
			ids[i] = m.ID
		}
		return ids
	}
	if ids := listIDs(keyBob); len(ids) != 0 {
		t.Errorf("bob sees models %v, want none", ids)
	}
	for _, key := range []string{keyAlice, keyRoot} {
		found := false
		for _, got := range listIDs(key) {
			found = found || got == id
		}
		if !found {
			t.Errorf("model %s missing from %s's listing", id, key)
		}
	}

	// Alice's read key reaches the tenant's own model (same ownership,
	// reader privileges)...
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models/"+id, keyAliceRead, nil)); got != http.StatusOK {
		t.Errorf("alice read key GET own model = %d, want 200", got)
	}
	// ...but cannot register new ones.
	if got := status(t, do(t, http.MethodPost, ts.URL+"/v1/models", keyAliceRead, map[string]any{"dataset": "acs", "rows": 300})); got != http.StatusForbidden {
		t.Errorf("alice read key POST /v1/models = %d, want 403", got)
	}

	// Bob uploads the identical dataset + config: cache hit, and bob is
	// now a co-owner with full access.
	if got := fitAs(t, ts, keyBob, 11); got != id {
		t.Fatalf("identical upload got id %s, want %s", got, id)
	}
	if got := status(t, do(t, http.MethodGet, ts.URL+"/v1/models/"+id, keyBob, nil)); got != http.StatusOK {
		t.Errorf("co-owner GET model = %d, want 200", got)
	}

	// Deletion is admin-only; the writers get 403 before any lookup.
	if got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/models/"+id, keyAlice, nil)); got != http.StatusForbidden {
		t.Errorf("writer DELETE model = %d, want 403", got)
	}
	// Wait out the background fit — deleting a fitting model is 409 by
	// design — then the admin's delete lands.
	for i := 0; ; i++ {
		resp := do(t, http.MethodGet, ts.URL+"/v1/models/"+id, keyAlice, nil)
		var st struct {
			State string `json:"state"`
		}
		decodeJSON(t, resp, &st)
		if st.State != "fitting" {
			break
		}
		if i > 3000 {
			t.Fatal("model never left fitting")
		}
	}
	if got := status(t, do(t, http.MethodDelete, ts.URL+"/v1/models/"+id, keyRoot, nil)); got != http.StatusNoContent {
		t.Errorf("admin DELETE model = %d, want 204", got)
	}
}

// TestAuthWorkerQuota pins the worker-grant quota: with max_workers=1 and
// the single grant held, a synthesize request is refused with 429 +
// Retry-After instead of queueing on the shared pool.
func TestAuthWorkerQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	keys := `{"tenants": [
		{"name": "w", "key": "worker-quota-key-0001", "role": "writer", "max_workers": 1}
	]}`
	if err := os.WriteFile(path, []byte(keys), 0o600); err != nil {
		t.Fatal(err)
	}
	auth, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(t, server.Config{PoolSize: 8, CacheCap: 4, StoreDir: t.TempDir(), Auth: auth}))
	t.Cleanup(ts.Close)
	const key = "worker-quota-key-0001"

	resp := do(t, http.MethodPost, ts.URL+"/v1/models", key, map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     11,
	})
	var fit struct {
		ID string `json:"id"`
	}
	decodeJSON(t, resp, &fit)

	// Hold the tenant's only worker unit by reserving it directly (the
	// HTTP path would race stream completion).
	tn, ok := auth.Authenticate(key)
	if !ok {
		t.Fatal("tenant missing")
	}
	release, ok := tn.ReserveWorker()
	if !ok {
		t.Fatal("initial reservation refused")
	}

	blocked := do(t, http.MethodPost, ts.URL+"/v1/models/"+fit.ID+"/synthesize", key, baseSynthReq())
	if blocked.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(blocked.Body)
		blocked.Body.Close()
		t.Fatalf("synthesize with quota held = %d (%s), want 429", blocked.StatusCode, body)
	}
	if blocked.Header.Get("Retry-After") == "" {
		t.Error("worker-quota 429 carries no Retry-After")
	}
	status(t, blocked)
	if st := tn.Stats(); st.Throttled != 1 {
		t.Errorf("Throttled after worker-quota 429 = %d, want 1", st.Throttled)
	}

	release()
	ok200 := do(t, http.MethodPost, ts.URL+"/v1/models/"+fit.ID+"/synthesize", key, baseSynthReq())
	if ok200.StatusCode != http.StatusOK {
		t.Fatalf("synthesize after release = %d, want 200", ok200.StatusCode)
	}
	body, _ := io.ReadAll(ok200.Body)
	ok200.Body.Close()
	if n := len(strings.Split(strings.TrimSpace(string(body)), "\n")); n != 25 {
		t.Fatalf("streamed %d records, want 25", n)
	}
}

// TestAuthDeniedProbeDoesNotLoadStoreOnlyModels pins the denied-request
// containment: a non-admin probing a store-only snapshot ID must get its
// 404 without the registry decoding the snapshot into the LRU — a load
// there could evict a resident model and delete its snapshot for good, so
// repeated probes would let any tenant churn the cache and destroy other
// tenants' persisted models.
func TestAuthDeniedProbeDoesNotLoadStoreOnlyModels(t *testing.T) {
	storeDir := t.TempDir()

	// Phase 1 — no auth: fit two models so the store holds two snapshots.
	srvA := newServer(t, server.Config{PoolSize: 4, CacheCap: 4, StoreDir: storeDir})
	tsA := httptest.NewServer(srvA)
	ids := []string{fitTestModel(t, tsA)}
	resp := postJSON(t, tsA.URL+"/v1/models", map[string]any{
		"metadata": json.RawMessage(testMetaJSON),
		"csv":      testCSV(300),
		"seed":     12,
	})
	var fit2 struct {
		ID string `json:"id"`
	}
	decodeJSON(t, resp, &fit2)
	ids = append(ids, fit2.ID)
	for _, id := range ids { // ready ⇒ write-through snapshot exists
		for i := 0; ; i++ {
			r, err := http.Get(tsA.URL + "/v1/models/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
			}
			decodeJSON(t, r, &st)
			if st.State == "ready" {
				break
			}
			if st.State == "failed" || i > 3000 {
				t.Fatalf("model %s state %s", id, st.State)
			}
		}
	}
	tsA.Close()

	// Phase 2 — auth on, cache capacity 1: the warm start loads only the
	// newest snapshot; the other is store-only.
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(authKeysJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	auth, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB := newServer(t, server.Config{PoolSize: 4, CacheCap: 1, StoreDir: storeDir, Auth: auth})
	tsB := httptest.NewServer(srvB)
	t.Cleanup(tsB.Close)

	residentCount := func() int {
		r, err := http.Get(tsB.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Models int `json:"models"`
		}
		decodeJSON(t, r, &h)
		return h.Models
	}
	if got := residentCount(); got != 1 {
		t.Fatalf("warm start loaded %d models, want 1 (cap)", got)
	}
	// Which ID is store-only? The one not resident — probe both as bob;
	// both must 404 (bob owns neither), and neither probe may change
	// residency.
	for _, id := range ids {
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/v1/models/" + id},
			{http.MethodPost, "/v1/models/" + id + "/synthesize"},
		} {
			if got := status(t, do(t, probe.method, tsB.URL+probe.path, keyBob, baseSynthReq())); got != http.StatusNotFound {
				t.Errorf("bob %s %s = %d, want 404", probe.method, probe.path, got)
			}
		}
	}
	if got := residentCount(); got != 1 {
		t.Fatalf("denied probes changed residency to %d models (store-only snapshot was loaded)", got)
	}
}

// TestAuthHealthzReportsTenants checks the /healthz auth section flips on
// with a registry and reports the tenant count.
func TestAuthHealthzReportsTenants(t *testing.T) {
	ts := newAuthServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Auth struct {
			Enabled bool `json:"enabled"`
			Tenants int  `json:"tenants"`
		} `json:"auth"`
	}
	decodeJSON(t, resp, &health)
	if !health.Auth.Enabled || health.Auth.Tenants != 5 {
		t.Fatalf("healthz auth section = %+v", health.Auth)
	}

	// And the anonymous server reports it off.
	anon := newTestServer(t)
	resp2, err := http.Get(anon.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health2 struct {
		Auth struct {
			Enabled bool `json:"enabled"`
		} `json:"auth"`
	}
	decodeJSON(t, resp2, &health2)
	if health2.Auth.Enabled {
		t.Fatal("anonymous server reports auth enabled")
	}
}
