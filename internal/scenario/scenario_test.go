package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeScenario lays out one scenario directory under root and returns its
// path.
func writeScenario(t *testing.T, root, name, manifest string) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const validManifest = `{
  "name": "good",
  "fit": {"dataset": "acs", "rows": 100},
  "synthesize": [{"name": "one", "records": 5, "seed": 1, "golden": "golden/one.ndjson"}]
}`

func TestLoadValid(t *testing.T) {
	dir := writeScenario(t, t.TempDir(), "good", validManifest)
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Name != "good" || m.Dir != dir {
		t.Fatalf("Load = %+v", m)
	}
	if got := m.path("golden/one.ndjson"); got != filepath.Join(dir, "golden", "one.ndjson") {
		t.Fatalf("path = %q", got)
	}
}

func TestLoadValidationErrors(t *testing.T) {
	cases := []struct {
		name     string // scenario directory name
		manifest string
		wantErr  string
	}{
		{"bad", `{`, "parsing"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g", "expect_stauts": 403}]}`,
			"unknown field"},
		{"bad", `{"fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"no name"},
		{"bad", `{"name": "Bad_Name", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"lowercase-kebab"},
		{"bad", `{"name": "other", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"does not match directory"},
		{"bad", `{"name": "bad", "fit": {}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"need a dataset reference"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs", "csv_file": "d.csv", "metadata_file": "m.json"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"cannot be combined"},
		{"bad", `{"name": "bad", "fit": {"csv_file": "d.csv"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"required together"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs", "backend": "nope"}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"unknown backend"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}}`,
			"nothing to run"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 0, "golden": "g"}]}`,
			"records must be positive"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5}]}`,
			"needs a golden"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "../outside"}]}`,
			"escapes the scenario directory"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g", "expect_status": 403}]}`,
			"cannot have a golden"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "expect_status": 302}]}`,
			"must be 200 or a 4xx/5xx"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "g", "expect_error_contains": "x"}]}`,
			"requires a non-200"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "synthesize": [{"name": "s", "records": 5, "golden": "a"}, {"name": "s", "records": 5, "golden": "b"}]}`,
			"duplicate step name"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "server": {"tenant_budget_eps": -1}, "synthesize": [{"name": "s", "records": 5, "golden": "g"}]}`,
			"negative tenant_budget_eps"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "eval": {"config": {"n": 200}}}`,
			"golden path is required"},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "eval": {"config": {"n": 200, "modle_eps": 1}, "golden": "g"}}`,
			`unknown field "modle_eps"`},
		{"bad", `{"name": "bad", "fit": {"dataset": "acs"}, "eval": {"config": {"n": 200, "sections": ["table9"]}, "golden": "g"}}`,
			`unknown section "table9"`},
	}
	for _, tc := range cases {
		dir := writeScenario(t, t.TempDir(), tc.name, tc.manifest)
		_, err := Load(dir)
		if err == nil {
			t.Errorf("Load accepted manifest %q", tc.manifest)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Load error %q does not mention %q", err, tc.wantErr)
		}
	}
}

func TestLoadAll(t *testing.T) {
	root := t.TempDir()
	writeScenario(t, root, "good", validManifest)
	writeScenario(t, root, "zeta", strings.ReplaceAll(validManifest, `"good"`, `"zeta"`))
	// A directory without a manifest is not a scenario package.
	if err := os.MkdirAll(filepath.Join(root, "not-a-scenario"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A plain file is ignored.
	if err := os.WriteFile(filepath.Join(root, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	ms, err := LoadAll(root)
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(ms) != 2 || ms[0].Name != "good" || ms[1].Name != "zeta" {
		t.Fatalf("LoadAll = %d manifests (%v)", len(ms), ms)
	}

	// A broken package is an error, not a silent skip.
	writeScenario(t, root, "broken", `{`)
	if _, err := LoadAll(root); err == nil {
		t.Fatal("LoadAll ignored a broken manifest")
	}
}

// TestSeedScenariosLoad pins the checked-in seed packages to the validator:
// a manifest edit that no longer parses or validates fails here, without
// needing a live server.
func TestSeedScenariosLoad(t *testing.T) {
	ms, err := LoadAll(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatalf("LoadAll(scenarios): %v", err)
	}
	if len(ms) < 4 {
		t.Fatalf("only %d seed scenarios, want at least 4", len(ms))
	}
	backends := map[string]bool{}
	multiRelease, denial, eval := false, false, false
	for _, m := range ms {
		b := m.Fit.Backend
		if b == "" {
			b = "bayesnet"
		}
		backends[b] = true
		for _, st := range m.Synthesize {
			if st.Releases > 1 {
				multiRelease = true
			}
			if st.ExpectStatus == 403 {
				denial = true
			}
		}
		if m.Eval != nil {
			eval = true
		}
	}
	if !backends["bayesnet"] || !backends["marginal"] {
		t.Errorf("seed scenarios cover backends %v, want both bayesnet and marginal", backends)
	}
	if !multiRelease {
		t.Error("no seed scenario exercises a multi-release stream")
	}
	if !denial {
		t.Error("no seed scenario exercises a 403 budget denial")
	}
	if !eval {
		t.Error("no seed scenario carries an eval section")
	}
}
