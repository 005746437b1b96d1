package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acs"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// auditFiles are the input files of one audit run.
type auditFiles struct {
	data, meta, cands string
}

// writeAuditFiles writes 3,000 simulated ACS rows (population seed 1) and
// their schema, and a candidate file holding the first five rows followed
// by `extra` records drawn from population seed 2.
func writeAuditFiles(t *testing.T, extra int) auditFiles {
	t.Helper()
	dir := t.TempDir()
	pop := acs.NewPopulation()
	data := pop.Generate(rng.New(1), 3000)
	files := auditFiles{
		data:  filepath.Join(dir, "data.csv"),
		meta:  filepath.Join(dir, "meta.spec"),
		cands: filepath.Join(dir, "cand.csv"),
	}
	writeCSV := func(path string, ds *dataset.Dataset) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteCSV(f, ds); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeCSV(files.data, data)
	mf, err := os.Create(files.meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Meta().WriteSpec(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// Candidates: copies of real records — re-synthesizable with generous
	// ω, so common records audit as deniable while rare ones (few
	// plausible seeds) correctly fail. Records of another population draw
	// mostly share no long enough σ-prefix with any input row under a
	// small ω, so no seed could have generated them.
	cands := data.Head(5).Clone()
	for _, y := range pop.Generate(rng.New(2), extra).Rows() {
		cands.Append(y)
	}
	writeCSV(files.cands, cands)
	return files
}

// audit runs the auditor at k = 5, γ = 4, ε0 = 1 and max_cost 32 over
// every candidate and returns its report.
func audit(t *testing.T, files auditFiles, omegaLo, omegaHi int) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(files.data, files.meta, files.cands, 5, 4, 1, omegaLo, omegaHi, 32, 0, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// checkGolden compares a report byte for byte with testdata/<name>.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from testdata/%s:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// checkSummary requires the summary count to equal the number of
// per-record "true" rows, and returns that number.
func checkSummary(t *testing.T, text string, n int) int {
	t.Helper()
	trues := strings.Count(text, " true")
	if !strings.Contains(text, fmt.Sprintf("%d/%d audited records satisfy", trues, n)) {
		t.Fatalf("summary inconsistent with per-record verdicts:\n%s", text)
	}
	return trues
}

func TestAuditEndToEnd(t *testing.T) {
	text := audit(t, writeAuditFiles(t, 0), 5, 11)
	// k=5 cannot reach δ ≤ 1e-6 (δ = e^{−ε0(k−t)} ≥ e^{−4}), so the budget
	// line reports infeasibility rather than a Theorem 1 budget.
	if !strings.Contains(text, "release parameters:") {
		t.Fatal("budget line missing")
	}
	if !strings.Contains(text, "auditing 5 of 5") {
		t.Fatalf("audit header wrong:\n%s", text)
	}
	if checkSummary(t, text, 5) == 0 {
		t.Fatalf("no candidate audited as deniable; audit vacuous:\n%s", text)
	}
	checkGolden(t, "audit_omega5-11.txt", text)
}

// TestAuditNoPossibleSeed pins the report for candidates no input row
// could have generated: at ω ∈ [1, 2] a seed must share all but the last
// two σ-values, which most records of another population draw share with
// no row. Those rows print maxProb 0 and partition "-".
func TestAuditNoPossibleSeed(t *testing.T) {
	text := audit(t, writeAuditFiles(t, 5), 1, 2)
	if !strings.Contains(text, "auditing 10 of 10") {
		t.Fatalf("audit header wrong:\n%s", text)
	}
	checkSummary(t, text, 10)
	if !strings.Contains(text, "0.000e+00    -") {
		t.Fatalf("no candidate without a possible seed; the case is not covered:\n%s", text)
	}
	checkGolden(t, "audit_omega1-2.txt", text)
}

func TestAuditValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run("/no/data", "/no/meta", "/no/cand", 5, 4, 1, 5, 11, 32, 0, &out); err == nil {
		t.Fatal("missing files accepted")
	}
}

// TestAuditParameters pins how run treats the privacy parameters: invalid
// ones are refused with an error naming the flag before any file is read,
// and ε0 = 0, the deterministic test, reports that it carries no Theorem 1
// budget.
func TestAuditParameters(t *testing.T) {
	files := writeAuditFiles(t, 0)
	missing := auditFiles{data: "/no/data", meta: "/no/meta", cands: "/no/cand"}
	for _, c := range []struct {
		name        string
		k           int
		gamma, eps0 float64
		flag        string // the flag the error must name; "" means accepted
		report      string // a line an accepted run must print
	}{
		{name: "k=0", k: 0, gamma: 4, eps0: 1, flag: "-k"},
		{name: "k=-5", k: -5, gamma: 4, eps0: 1, flag: "-k"},
		{name: "gamma=1", k: 5, gamma: 1, eps0: 1, flag: "-gamma"},
		{name: "gamma=0.5", k: 5, gamma: 0.5, eps0: 1, flag: "-gamma"},
		{name: "eps0=-1", k: 5, gamma: 4, eps0: -1, flag: "-eps0"},
		{name: "eps0=0", k: 5, gamma: 4, eps0: 0,
			report: "release parameters: k=5 gamma=4 eps0=0 -> deterministic test, no Theorem 1 budget\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(files.data, files.meta, files.cands, c.k, c.gamma, c.eps0, 5, 11, 32, 0, &out)
			if c.flag == "" {
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out.String(), c.report) {
					t.Fatalf("report lacks %q:\n%s", c.report, out.String())
				}
				checkSummary(t, out.String(), 5)
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.flag+":") {
				t.Fatalf("error %v, want one naming %s", err, c.flag)
			}
			if out.Len() != 0 {
				t.Fatalf("refused run printed a report:\n%s", out.String())
			}
			// The parameters are checked before any file is opened.
			err = run(missing.data, missing.meta, missing.cands, c.k, c.gamma, c.eps0, 5, 11, 32, 0, &out)
			if err == nil || !strings.Contains(err.Error(), c.flag+":") {
				t.Fatalf("with missing files: error %v, want one naming %s", err, c.flag)
			}
		})
	}
}
