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
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// exportAs downloads a model's snapshot as the given tenant.
func exportAs(t *testing.T, ts *httptest.Server, id, key string) []byte {
	t.Helper()
	st, body := getBody(t, ts.URL+"/v1/models/"+id+"/export", key)
	if st != http.StatusOK {
		t.Fatalf("export %s: status %d: %s", id, st, body)
	}
	return []byte(body)
}

// importAs uploads snapshot bytes as the given tenant and returns status
// and body.
func importAs(t *testing.T, ts *httptest.Server, key string, raw []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/import", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// reencode decodes a snapshot, lets edit change it, and encodes it again.
func reencode(t *testing.T, raw []byte, edit func(*store.Snapshot)) []byte {
	t.Helper()
	snap, err := store.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	edit(snap)
	out, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// synthesizeAs streams the standard synthesize request as the given
// tenant and returns the NDJSON body.
func synthesizeAs(t *testing.T, ts *httptest.Server, id, key string) string {
	t.Helper()
	resp := do(t, http.MethodPost, ts.URL+"/v1/models/"+id+"/synthesize", key, baseSynthReq())
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize %s: status %d err %v: %s", id, resp.StatusCode, err, body)
	}
	return string(body)
}

// residency lists the models an admin sees, by ID, as resident or not.
func residency(t *testing.T, ts *httptest.Server) map[string]bool {
	t.Helper()
	var list struct {
		Models []struct {
			ID       string `json:"id"`
			Resident bool   `json:"resident"`
		} `json:"models"`
	}
	decodeJSON(t, do(t, http.MethodGet, ts.URL+"/v1/models", keyRoot, nil), &list)
	out := make(map[string]bool, len(list.Models))
	for _, m := range list.Models {
		out[m.ID] = m.Resident
	}
	return out
}

// TestImportConflictLeavesModelUntouched: bob re-labels his own export
// with alice's model ID and cache key and imports it. Whether alice's
// model is resident or only on disk, the import is refused with 409
// naming the ID, bob still gets 404, nothing is loaded or evicted,
// alice's snapshot file is unchanged, and after a restart alice streams
// the same bytes as before.
func TestImportConflictLeavesModelUntouched(t *testing.T) {
	for _, resident := range []bool{true, false} {
		name := "on-disk"
		if resident {
			name = "resident"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ts1, srv1 := authStoreServer(t, dir, server.Config{})
			id := fitAs(t, ts1, keyAlice, 11)
			waitModelReady(t, ts1, id, keyAlice)
			stream := synthesizeAs(t, ts1, id, keyAlice)
			bobID := fitAs(t, ts1, keyBob, 12)
			waitModelReady(t, ts1, bobID, keyBob)
			alice, err := store.Decode(exportAs(t, ts1, id, keyAlice))
			if err != nil {
				t.Fatal(err)
			}
			forged := reencode(t, exportAs(t, ts1, bobID, keyBob), func(s *store.Snapshot) {
				s.ID, s.Key = alice.ID, alice.Key
			})

			ts := ts1
			if !resident {
				// Restart with room for one model: warm start loads bob's,
				// the newer snapshot, and leaves alice's on disk only.
				stopServer(t, ts1, srv1)
				// The store orders snapshots by mtime, which comes from a
				// coarse clock: two writes in a row can tie, and a tie goes
				// by ID. Age alice's snapshot so bob's is the newer one.
				aged := time.Now().Add(-time.Minute)
				if err := os.Chtimes(filepath.Join(dir, id+".snap"), aged, aged); err != nil {
					t.Fatal(err)
				}
				ts, srv1 = authStoreServer(t, dir, server.Config{CacheCap: 1})
				if got := residency(t, ts); got[id] || !got[bobID] {
					t.Fatalf("residency before the import = %v", got)
				}
			}
			path := filepath.Join(dir, id+".snap")
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			st, body := importAs(t, ts, keyBob, forged)
			if st != http.StatusConflict || !strings.Contains(body, id) {
				t.Fatalf("forged import = %d %s, want 409 naming %s", st, body, id)
			}
			if st, _ := getBody(t, ts.URL+"/v1/models/"+id, keyBob); st != http.StatusNotFound {
				t.Fatalf("bob reads alice's model after the forged import: %d", st)
			}
			if got := residency(t, ts); got[id] != resident || !got[bobID] {
				t.Fatalf("residency after the import = %v", got)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("alice's snapshot changed (read err %v)", err)
			}
			stopServer(t, ts, srv1)

			ts2, _ := authStoreServer(t, dir, server.Config{})
			if got := synthesizeAs(t, ts2, id, keyAlice); got != stream {
				t.Fatal("alice's model streams different bytes after the restart")
			}
			if st, _ := getBody(t, ts2.URL+"/v1/models/"+id, keyBob); st != http.StatusNotFound {
				t.Fatalf("bob reads alice's model after the restart: %d", st)
			}
		})
	}
}

// TestReimportKeepsCoOwners: alice exports her model, bob uploads the same
// data (a co-owner), and alice imports her export back. The import is a
// no-op for the model (200), and after a restart both owners still read
// it while a third writer gets 404.
func TestReimportKeepsCoOwners(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	id := fitAs(t, ts1, keyAlice, 11)
	waitModelReady(t, ts1, id, keyAlice)
	raw := exportAs(t, ts1, id, keyAlice)
	if got := fitAs(t, ts1, keyBob, 11); got != id {
		t.Fatalf("bob's identical upload got %s, want %s", got, id)
	}
	if st, body := importAs(t, ts1, keyAlice, raw); st != http.StatusOK {
		t.Fatalf("alice's re-import = %d %s, want 200", st, body)
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
}

// TestImportTakesNoOwnersFromUpload: bob imports a snapshot under a new ID
// whose owner set names alice. The model is bob's alone, before and after
// a restart.
func TestImportTakesNoOwnersFromUpload(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := authStoreServer(t, dir, server.Config{})
	bobID := fitAs(t, ts1, keyBob, 12)
	waitModelReady(t, ts1, bobID, keyBob)
	key := strings.Repeat("c0ffee", 11)[:64]
	id := "m-" + key[:16]
	crafted := reencode(t, exportAs(t, ts1, bobID, keyBob), func(s *store.Snapshot) {
		s.ID, s.Key, s.Owners = id, key, []string{"alice", "bob"}
	})
	if st, body := importAs(t, ts1, keyBob, crafted); st != http.StatusCreated {
		t.Fatalf("crafted import = %d %s, want 201", st, body)
	}
	check := func(ts *httptest.Server) {
		t.Helper()
		if st, _ := getBody(t, ts.URL+"/v1/models/"+id, keyAlice); st != http.StatusNotFound {
			t.Fatalf("alice reads bob's import: %d", st)
		}
		if st, body := getBody(t, ts.URL+"/v1/models/"+id, keyBob); st != http.StatusOK {
			t.Fatalf("bob cannot read his import: %d %s", st, body)
		}
	}
	check(ts1)
	stopServer(t, ts1, srv1)
	ts2, _ := authStoreServer(t, dir, server.Config{})
	check(ts2)
}

// TestImportReportsBackend: an import answers with the backend of the
// model it carries, as a fit does, for a fresh import (201) and for a
// repeat of one already resident (200).
func TestImportReportsBackend(t *testing.T) {
	src := newTestServer(t)
	dst := newTestServer(t)
	for _, backendID := range []string{"bayesnet", "marginal"} {
		body, resp := fitBackendModel(t, src, backendID)
		var fit struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &fit); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s fit: status %d, body %s", backendID, resp.StatusCode, body)
		}
		awaitFit(t, src, fit.ID)
		ex, err := http.Get(src.URL + "/v1/models/" + fit.ID + "/export")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(ex.Body)
		ex.Body.Close()
		if err != nil || ex.StatusCode != http.StatusOK {
			t.Fatalf("%s export: status %d err %v", backendID, ex.StatusCode, err)
		}
		for _, want := range []int{http.StatusCreated, http.StatusOK} {
			resp, err := http.Post(dst.URL+"/v1/models/import", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var imp struct {
				Backend string `json:"backend"`
			}
			decodeJSON(t, resp, &imp)
			if resp.StatusCode != want || imp.Backend != backendID {
				t.Errorf("%s import = %d with backend %q, want %d with %q", backendID, resp.StatusCode, imp.Backend, want, backendID)
			}
		}
	}
}
