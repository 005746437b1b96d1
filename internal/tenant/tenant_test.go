package tenant

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// writeKeys writes a key file and returns its path.
func writeKeys(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const threeTenants = `{
  "tenants": [
    {"name": "reader-co", "key": "reader-key-0123456789", "role": "reader"},
    {"name": "writer-co", "key": "writer-key-0123456789", "role": "writer", "max_workers": 2},
    {"name": "admin-co",  "key": "admin-key-0123456789",  "role": "admin", "rate_per_sec": 2, "burst": 3}
  ]
}`

func TestLoadAndAuthenticate(t *testing.T) {
	reg, err := Load(writeKeys(t, threeTenants))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("Len = %d, want 3", reg.Len())
	}

	tn, ok := reg.Authenticate("writer-key-0123456789")
	if !ok || tn.Name != "writer-co" || tn.Role() != RoleWriter {
		t.Fatalf("Authenticate(writer key) = %+v, %v", tn, ok)
	}
	if tn.MaxWorkers() != 2 {
		t.Fatalf("writer quota = %d workers, want 2", tn.MaxWorkers())
	}
	for _, bad := range []string{"", "writer-key", "writer-key-0123456789x", "WRITER-KEY-0123456789"} {
		if _, ok := reg.Authenticate(bad); ok {
			t.Errorf("Authenticate(%q) succeeded", bad)
		}
	}
}

func TestBudgetOverride(t *testing.T) {
	reg, err := Load(writeKeys(t, `{
  "tenants": [
    {"name": "capped", "key": "capped-key-0123456789", "role": "writer", "budget_eps": 12.5, "budget_delta": 1e-7},
    {"name": "free",   "key": "free-key-012345678901", "role": "writer"}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	capped, _ := reg.Authenticate("capped-key-0123456789")
	if eps, delta, ok := capped.Budget(); !ok || eps != 12.5 || delta != 1e-7 {
		t.Fatalf("capped budget = (%g, %g, %v)", eps, delta, ok)
	}
	free, _ := reg.Authenticate("free-key-012345678901")
	if _, _, ok := free.Budget(); ok {
		t.Fatal("tenant without override reports one")
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	for name, body := range map[string]string{
		"empty":          `{}`,
		"no tenants":     `{"tenants": []}`,
		"short key":      `{"tenants": [{"name": "a", "key": "short", "role": "reader"}]}`,
		"bad role":       `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "root"}]}`,
		"no name":        `{"tenants": [{"key": "aaaaaaaaaaaaaaaa", "role": "reader"}]}`,
		"negative rate":  `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "rate_per_sec": -1}]}`,
		"negative quota": `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "max_workers": -1}]}`,
		"dup name": `{"tenants": [
			{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader"},
			{"name": "a", "key": "bbbbbbbbbbbbbbbb", "role": "reader"}]}`,
		"dup key": `{"tenants": [
			{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader"},
			{"name": "b", "key": "aaaaaaaaaaaaaaaa", "role": "reader"}]}`,
		"negative budget eps": `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "budget_eps": -1}]}`,
		"budget delta >= 1":   `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "budget_eps": 5, "budget_delta": 1}]}`,
		"delta without eps":   `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "budget_delta": 1e-6}]}`,
		"not json":            `nope`,
	} {
		if _, err := Load(writeKeys(t, body)); err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load(missing file) succeeded")
	}
}

// TestLoadRejectsUnknownFields pins the strict key-file decoder: a field
// the package does not know fails Load and Reload with an error naming it,
// instead of loading a tenant without the setting (a misspelled
// "budget_eps" would otherwise silently drop the tenant's budget), and a
// refused Reload leaves the previous tenant set serving.
func TestLoadRejectsUnknownFields(t *testing.T) {
	for _, field := range []string{"max_jobs", "budget_esp"} {
		body := `{"tenants": [{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "writer", "` + field + `": 2}]}`
		_, err := Load(writeKeys(t, body))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Load with %q: err = %v, want an error naming the field", field, err)
		}
	}
	if _, err := Load(writeKeys(t, threeTenants+` {}`)); err == nil {
		t.Error("Load accepted data after the key file's object")
	}

	path := writeKeys(t, threeTenants)
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	withJobs := strings.Replace(threeTenants, `"max_workers": 2`, `"max_workers": 2, "max_jobs": 1`, 1)
	if err := os.WriteFile(path, []byte(withJobs), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil || !strings.Contains(err.Error(), "max_jobs") {
		t.Fatalf("Reload with max_jobs: err = %v, want an error naming the field", err)
	}
	tn, ok := reg.Authenticate("writer-key-0123456789")
	if !ok || reg.Len() != 3 || tn.MaxWorkers() != 2 {
		t.Fatal("a refused Reload changed the tenant set")
	}
}

func TestRoleHierarchy(t *testing.T) {
	cases := []struct {
		holder, required Role
		want             bool
	}{
		{RoleReader, RoleReader, true},
		{RoleReader, RoleWriter, false},
		{RoleReader, RoleAdmin, false},
		{RoleWriter, RoleReader, true},
		{RoleWriter, RoleWriter, true},
		{RoleWriter, RoleAdmin, false},
		{RoleAdmin, RoleReader, true},
		{RoleAdmin, RoleAdmin, true},
		{Role("bogus"), RoleReader, false},
	}
	for _, c := range cases {
		if got := c.holder.Allows(c.required); got != c.want {
			t.Errorf("%s allows %s = %v, want %v", c.holder, c.required, got, c.want)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	reg, err := Load(writeKeys(t, threeTenants))
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("admin-key-0123456789")

	// burst=3: three immediate requests pass, the fourth is throttled with
	// a positive Retry-After.
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := tn.Allow(now); !ok {
			t.Fatalf("request %d throttled within burst", i)
		}
	}
	ok, retry := tn.Allow(now)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("Retry-After = %v, want (0, 1s] at 2 req/s", retry)
	}

	// rate=2/s: after 500ms one token has refilled.
	if ok, _ := tn.Allow(now.Add(500 * time.Millisecond)); !ok {
		t.Fatal("request after refill throttled")
	}
	// The bucket never refills beyond its burst.
	later := now.Add(time.Hour)
	passed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := tn.Allow(later); ok {
			passed++
		}
	}
	if passed != 3 {
		t.Fatalf("passed %d requests after long idle, want burst of 3", passed)
	}

	if st := tn.Stats(); st.Throttled == 0 {
		t.Error("throttled counter did not move")
	}

	// Unlimited tenants never throttle.
	free, _ := reg.Authenticate("reader-key-0123456789")
	for i := 0; i < 100; i++ {
		if ok, _ := free.Allow(now); !ok {
			t.Fatal("unlimited tenant throttled")
		}
	}
}

// reserve takes n worker units from tn one at a time, failing the test on
// a refusal, and returns the function that gives all of them back.
func reserve(t *testing.T, tn *Tenant, n int) (releaseAll func()) {
	t.Helper()
	var releases []func()
	for i := 0; i < n; i++ {
		release, ok := tn.ReserveWorker()
		if !ok {
			t.Fatalf("reservation %d of %d refused", i+1, n)
		}
		releases = append(releases, release)
	}
	return func() {
		for _, release := range releases {
			release()
		}
	}
}

func TestReserveWorkers(t *testing.T) {
	reg, err := Load(writeKeys(t, threeTenants))
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("writer-key-0123456789") // max_workers=2

	first, ok := tn.ReserveWorker()
	if !ok {
		t.Fatal("first reservation refused under quota")
	}
	second, ok := tn.ReserveWorker()
	if !ok {
		t.Fatal("second reservation refused under quota")
	}
	if st := tn.Stats(); st.WorkersInUse != 2 {
		t.Fatalf("WorkersInUse = %d, want 2", st.WorkersInUse)
	}
	// Quota fully committed: further reservations refuse. The refusal is
	// not a throttle by itself — only the HTTP layer's 429 counts one.
	if _, ok := tn.ReserveWorker(); ok {
		t.Fatal("reservation beyond quota succeeded")
	}
	if st := tn.Stats(); st.Throttled != 0 {
		t.Fatalf("Throttled = %d, want 0 (refusals count only when answered with 429)", st.Throttled)
	}
	tn.CountThrottle()
	if st := tn.Stats(); st.Throttled != 1 {
		t.Fatalf("Throttled after CountThrottle = %d, want 1", st.Throttled)
	}
	// A released unit frees quota for the next reservation.
	first()
	if again, ok := tn.ReserveWorker(); !ok {
		t.Fatal("reservation after a release refused")
	} else {
		again()
	}
	second()
	if st := tn.Stats(); st.WorkersInUse != 0 {
		t.Fatalf("WorkersInUse after full release = %d, want 0", st.WorkersInUse)
	}

	// Unbounded tenants never refuse.
	free, _ := reg.Authenticate("reader-key-0123456789")
	releaseAll := reserve(t, free.Tenant, 64)
	if st := free.Stats(); st.WorkersInUse != 64 {
		t.Fatalf("unbounded tenant reports %d workers in use, want 64", st.WorkersInUse)
	}
	releaseAll()
	if st := free.Stats(); st.WorkersInUse != 0 {
		t.Fatalf("unbounded tenant reports %d workers in use after release, want 0", st.WorkersInUse)
	}
}

func TestReloadPreservesRuntimeState(t *testing.T) {
	path := writeKeys(t, threeTenants)
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("writer-key-0123456789")
	tn.CountRequest()
	tn.CountRequest()
	release := reserve(t, tn.Tenant, 1)
	defer release()

	// Rotate writer-co's key, drop reader-co, add a new tenant.
	rotated := `{
	  "tenants": [
	    {"name": "writer-co", "key": "rotated-key-0123456789", "role": "admin", "max_workers": 2},
	    {"name": "newcomer",  "key": "newcomer-key-0123456789", "role": "reader"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(rotated), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}

	if _, ok := reg.Authenticate("writer-key-0123456789"); ok {
		t.Error("rotated-away key still authenticates")
	}
	if _, ok := reg.Authenticate("reader-key-0123456789"); ok {
		t.Error("removed tenant still authenticates")
	}
	tn2, ok := reg.Authenticate("rotated-key-0123456789")
	if !ok {
		t.Fatal("rotated key does not authenticate")
	}
	if tn2.Tenant != tn.Tenant {
		t.Error("reload did not preserve the tenant's runtime identity")
	}
	if tn2.Role() != RoleAdmin {
		t.Errorf("reloaded role = %s, want admin", tn2.Role())
	}
	st := tn2.Stats()
	if st.Requests != 2 || st.WorkersInUse != 1 {
		t.Errorf("reloaded stats = %+v, want 2 requests and 1 worker in use", st)
	}
	if _, ok := reg.Authenticate("newcomer-key-0123456789"); !ok {
		t.Error("new tenant does not authenticate")
	}

	// A broken rewrite keeps the previous set serving.
	if err := os.WriteFile(path, []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Fatal("Reload of broken file succeeded")
	}
	if _, ok := reg.Authenticate("rotated-key-0123456789"); !ok {
		t.Error("failed reload dropped the previous tenant set")
	}
}

// TestReloadKeepsDrainingTenantsInSnapshot pins the metrics accounting
// across removals: a tenant dropped by a reload while holding worker
// grants keeps its sgfd_tenant_* series (so pool tokens never go
// unattributed), stops authenticating immediately, and is pruned from the
// snapshot once its grants return.
func TestReloadKeepsDrainingTenantsInSnapshot(t *testing.T) {
	path := writeKeys(t, threeTenants)
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("writer-key-0123456789")
	release := reserve(t, tn.Tenant, 2)

	// Remove writer-co while it holds both units.
	readerOnly := `{"tenants": [
		{"name": "reader-co", "key": "reader-key-0123456789", "role": "reader"}
	]}`
	if err := os.WriteFile(path, []byte(readerOnly), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Authenticate("writer-key-0123456789"); ok {
		t.Error("removed tenant still authenticates")
	}
	found := false
	for _, st := range reg.Snapshot() {
		if st.Name == "writer-co" {
			found = true
			if st.WorkersInUse != 2 {
				t.Errorf("draining tenant reports %d workers, want 2", st.WorkersInUse)
			}
		}
	}
	if !found {
		t.Fatal("draining tenant missing from snapshot while holding grants")
	}

	// Re-add writer-co while it still holds grants: the same runtime object
	// comes back, so its grants do not mint a fresh quota.
	if err := os.WriteFile(path, []byte(threeTenants), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	back, ok := reg.Authenticate("writer-key-0123456789")
	if !ok || back.Tenant != tn.Tenant {
		t.Fatal("re-added tenant did not recover its draining identity")
	}

	// Drop it again, return the grants: the next snapshot prunes the series.
	if err := os.WriteFile(path, []byte(readerOnly), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	release()
	for _, st := range reg.Snapshot() {
		if st.Name == "writer-co" {
			t.Fatal("idle draining tenant still in snapshot")
		}
	}
	if got := len(reg.Snapshot()); got != 1 {
		t.Fatalf("snapshot has %d tenants, want 1", got)
	}
}

// TestReloadRaceWithTraffic exercises a SIGHUP reload concurrent with the
// reads request handlers perform (Role, Allow, ReserveWorker, Stats,
// Authenticate). Run under -race this pins that reload mutates tenant
// configuration only behind the tenant lock.
func TestReloadRaceWithTraffic(t *testing.T) {
	path := writeKeys(t, threeTenants)
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("writer-key-0123456789")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		now := time.Unix(0, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tn.Role()
			_, _ = tn.Allow(now)
			if release, ok := tn.ReserveWorker(); ok {
				release()
			}
			_ = tn.Stats()
			_, _ = reg.Authenticate("writer-key-0123456789")
			_ = reg.Snapshot()
		}
	}()
	for i := 0; i < 50; i++ {
		if err := reg.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

func TestSnapshotSortedByName(t *testing.T) {
	reg, err := Load(writeKeys(t, threeTenants))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d tenants", len(snap))
	}
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	if got := strings.Join(names, ","); got != "admin-co,reader-co,writer-co" {
		t.Fatalf("snapshot order = %s", got)
	}
}

// TestReadKey pins the per-key role model: a read_key authenticates as the
// same tenant (same runtime identity, counters, quotas) but clamped to the
// reader role — the mechanism that makes the reader tier usable (a
// read-only credential for a tenant whose writer key registered the data).
func TestReadKey(t *testing.T) {
	reg, err := Load(writeKeys(t, `{"tenants": [
		{"name": "acme", "key": "acme-write-key-000001", "read_key": "acme-read-key-0000001", "role": "writer", "max_workers": 3}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	writer, ok := reg.Authenticate("acme-write-key-000001")
	if !ok || writer.Role() != RoleWriter {
		t.Fatalf("writer key = %+v, %v", writer, ok)
	}
	reader, ok := reg.Authenticate("acme-read-key-0000001")
	if !ok || reader.Role() != RoleReader {
		t.Fatalf("read key = %+v, %v", reader, ok)
	}
	if reader.Tenant != writer.Tenant {
		t.Fatal("read key resolved to a different tenant identity")
	}
	// Shared runtime state: a reservation through one key is visible (and
	// counted) through the other.
	release := reserve(t, writer.Tenant, 2)
	if st := reader.Stats(); st.WorkersInUse != 2 {
		t.Fatalf("read key sees %d workers in use, want 2", st.WorkersInUse)
	}
	// Both keys draw on the one max_workers=3 quota.
	third := reserve(t, reader.Tenant, 1)
	if _, ok := writer.ReserveWorker(); ok {
		t.Fatal("a fourth unit reserved past the shared quota of 3")
	}
	third()
	release()

	// A short or duplicate read_key is rejected at load time.
	if _, err := Load(writeKeys(t, `{"tenants": [
		{"name": "a", "key": "aaaaaaaaaaaaaaaa", "read_key": "short", "role": "writer"}
	]}`)); err == nil {
		t.Error("short read_key accepted")
	}
	if _, err := Load(writeKeys(t, `{"tenants": [
		{"name": "a", "key": "aaaaaaaaaaaaaaaa", "read_key": "aaaaaaaaaaaaaaaa", "role": "writer"}
	]}`)); err == nil {
		t.Error("read_key duplicating the primary key accepted")
	}
}

// TestNameCharset pins the tenant-name restriction: names travel into
// Prometheus label values, whose text format cannot carry control
// characters, so anything outside [A-Za-z0-9._-] is rejected at load.
func TestNameCharset(t *testing.T) {
	for _, bad := range []string{"has space", "tab\tname", "new\nline", "quo\"te", "back\\slash", "", strings.Repeat("x", 65)} {
		body := `{"tenants": [{"name": ` + strconv.Quote(bad) + `, "key": "aaaaaaaaaaaaaaaa", "role": "reader"}]}`
		if _, err := Load(writeKeys(t, body)); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if _, err := Load(writeKeys(t, `{"tenants": [{"name": "Team-1.prod_x", "key": "aaaaaaaaaaaaaaaa", "role": "reader"}]}`)); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
}

func TestRateWithoutBurstGetsDepthOne(t *testing.T) {
	reg, err := Load(writeKeys(t, `{"tenants": [
		{"name": "a", "key": "aaaaaaaaaaaaaaaa", "role": "reader", "rate_per_sec": 1}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := reg.Authenticate("aaaaaaaaaaaaaaaa")
	now := time.Unix(0, 0)
	if ok, _ := tn.Allow(now); !ok {
		t.Fatal("first request refused despite implied burst of 1")
	}
	if ok, _ := tn.Allow(now); ok {
		t.Fatal("second immediate request allowed with burst 1")
	}
}
