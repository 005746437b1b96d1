package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScenario writes a complete runnable scenario package (tiny CSV
// upload, one deterministic synthesize step) and returns its directory.
func testScenario(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dir := writeScenario(t, root, "tiny", `{
  "name": "tiny",
  "fit": {"csv_file": "data.csv", "metadata_file": "meta.json", "seed": 2},
  "synthesize": [
    {"name": "main", "records": 5, "k": 2, "gamma": 8, "seed": 3, "golden": "golden/main.ndjson"}
  ]
}`)
	var csv strings.Builder
	csv.WriteString("A,B\n")
	for i := 0; i < 40; i++ {
		csv.WriteString(fmt.Sprintf("%s,%d\n", []string{"x", "y", "z"}[i%3], (i/3)%2))
	}
	if err := os.WriteFile(filepath.Join(dir, "data.csv"), []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := `[
  {"name": "A", "kind": "categorical", "values": ["x", "y", "z"]},
  {"name": "B", "kind": "numerical", "values": ["0", "1"]}
]`
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// run executes the scenario at dir with a fresh runner and returns the
// result.
func run(t *testing.T, dir string, update bool) *Result {
	t.Helper()
	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Update: update}
	defer r.Close()
	res, err := r.Run(context.Background(), m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunnerGoldenLifecycle(t *testing.T) {
	dir := testScenario(t)
	goldenPath := filepath.Join(dir, "golden", "main.ndjson")

	// Without a golden, a check run fails and says how to create one.
	res := run(t, dir, false)
	if res.OK() {
		t.Fatal("run passed with no golden on disk")
	}
	last := res.Steps[len(res.Steps)-1]
	if !strings.Contains(last.Detail, "-update") {
		t.Errorf("missing-golden detail %q does not mention -update", last.Detail)
	}

	// -update creates it.
	res = run(t, dir, true)
	if !res.OK() {
		t.Fatalf("update run failed: %+v", res.Steps)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("update did not write the golden: %v", err)
	}
	if len(splitLines(string(golden))) != 5 {
		t.Fatalf("golden has %d lines, want 5", len(splitLines(string(golden))))
	}

	// A clean check run passes.
	res = run(t, dir, false)
	if !res.OK() {
		t.Fatalf("check run failed against a fresh golden: %+v", res.Steps)
	}

	// A second -update run is idempotent: same bytes, golden untouched.
	res = run(t, dir, true)
	if !res.OK() {
		t.Fatalf("second update run failed: %+v", res.Steps)
	}
	for _, s := range res.Steps {
		if s.Updated {
			t.Errorf("idempotent re-update rewrote %s", s.Name)
		}
	}

	// A corrupted golden fails with a readable diff naming both sides.
	lines := splitLines(string(golden))
	lines[2] = `{"corrupted": true}`
	if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res = run(t, dir, false)
	if res.OK() {
		t.Fatal("run passed against a corrupted golden")
	}
	last = res.Steps[len(res.Steps)-1]
	for _, want := range []string{"mismatch", "line 3", "got:", "want:", "corrupted", "-update"} {
		if !strings.Contains(last.Detail, want) {
			t.Errorf("corrupted-golden detail missing %q:\n%s", want, last.Detail)
		}
	}

	// -update repairs it.
	res = run(t, dir, true)
	if !res.OK() {
		t.Fatalf("repair update failed: %+v", res.Steps)
	}
	repaired, _ := os.ReadFile(goldenPath)
	if string(repaired) != string(golden) {
		t.Error("repaired golden differs from the original")
	}
}

func TestRunnerExpectedDenial(t *testing.T) {
	root := t.TempDir()
	// A dedicated server with a tiny lifetime budget: the only step asks
	// for more than the budget admits and must be refused with 403.
	dir := writeScenario(t, root, "denied", `{
  "name": "denied",
  "server": {"tenant_budget_eps": 5, "tenant_budget_delta": 1e-6},
  "fit": {"dataset": "acs", "rows": 200, "backend": "marginal", "seed": 4},
  "synthesize": [
    {"name": "too-big", "records": 50, "k": 50, "gamma": 4, "eps0": 1,
     "expect_status": 403, "expect_error_contains": "lifetime privacy budget"}
  ]
}`)
	res := run(t, dir, false)
	if !res.OK() {
		t.Fatalf("denial scenario failed: %+v", res.Steps)
	}

	// The same scenario expecting the wrong error text must fail, not pass
	// vacuously.
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(raw), "lifetime privacy budget", "some other error", 1)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	res = run(t, dir, false)
	if res.OK() {
		t.Fatal("denial step passed with a non-matching expect_error_contains")
	}
}

// TestRunnerSeedScenario runs checked-in seed packages end to end in check
// mode: the committed goldens must reproduce byte for byte. survey-upload
// covers the fit and synthesize steps against a spawned server,
// eval-utility the eval step the runner runs in its own process.
func TestRunnerSeedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full seed-scenario run in -short mode")
	}
	r := &Runner{}
	defer r.Close()
	for _, name := range []string{"survey-upload", "eval-utility"} {
		t.Run(name, func(t *testing.T) {
			m, err := Load(filepath.Join("..", "..", "scenarios", name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(context.Background(), m)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.OK() {
				t.Fatalf("seed scenario failed: %+v", res.Steps)
			}
		})
	}
}
