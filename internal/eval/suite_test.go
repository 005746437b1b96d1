package eval

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// smallSuiteConfig is the fast end-to-end suite workload shared by the
// suite tests.
func smallSuiteConfig() SuiteConfig {
	cfg := DefaultSuiteConfig(12000, 3)
	cfg.K = 10
	cfg.MaxCost = 32
	cfg.SynthPerVariant = 400
	cfg.MaxCheckPlausible = 6000
	cfg.Omegas = []OmegaSpec{{Lo: 5, Hi: 11}}
	cfg.Reps = 1
	cfg.Sections = []string{"table2", "fig34", "fig6", "table5", "attack"}
	cfg.Fig6Ks = []int{5, 20}
	cfg.Fig6Candidates = 120
	cfg.Table5Train = 150
	cfg.Table5Test = 80
	cfg.AttackCandidates = 120
	return cfg
}

func TestRunSuiteSelectedSections(t *testing.T) {
	var fracs []float64
	res, err := RunSuite(context.Background(), smallSuiteConfig(), func(stage string, frac float64) {
		fracs = append(fracs, frac)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Selected sections are present, unselected ones omitted.
	if res.Table2 == nil || res.Fig34 == nil || res.Fig6 == nil || res.Table5 == nil || res.Attack == nil {
		t.Fatalf("missing selected sections: %+v", res)
	}
	if res.Fig12 != nil || res.Fig5 != nil || res.Table3 != nil || res.Table4 != nil || res.Sigma != nil {
		t.Fatal("unselected sections ran")
	}
	if len(res.Pipeline.Variants) != 1 || res.Pipeline.Variants[0].Released == 0 {
		t.Fatalf("pipeline summary %+v", res.Pipeline)
	}
	// Progress is monotonically non-decreasing and reaches 1.
	for i := 1; i < len(fracs); i++ {
		if fracs[i] < fracs[i-1] {
			t.Fatalf("progress regressed: %v", fracs)
		}
	}
	if len(fracs) == 0 || fracs[len(fracs)-1] != 1 {
		t.Fatalf("progress did not reach 1: %v", fracs)
	}
	// The render carries the selected sections.
	report := res.Render()
	for _, want := range []string{"Table 2:", "Figure 3:", "Figure 6:", "Table 5:", "Seed-inference"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The result round-trips through JSON without loss of the figure/table
	// numbers (the contract the scenario eval goldens rely on).
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SuiteResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fig6.Rates["omega in [5-11]"][0] != res.Fig6.Rates["omega in [5-11]"][0] {
		t.Fatal("fig6 rates did not round-trip")
	}
}

// TestRunSuiteSparseConfigGetsDefaults pins the sparse-config contract: a
// config carrying only scale, seed and a section list runs with the
// full-report workload knobs (clamped to the scale), instead of zero-sized
// sections failing deep inside the run.
func TestRunSuiteSparseConfigGetsDefaults(t *testing.T) {
	cfg := smallSuiteConfig()
	cfg.Sections = []string{"table5"}
	cfg.Table5Train, cfg.Table5Test = 0, 0 // omitted knobs
	cfg.SynthPerVariant = 1300             // enough for the clamped default game
	res, err := RunSuite(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table5 == nil || len(res.Table5.Rows) == 0 {
		t.Fatalf("table5 did not run with default sizes: %+v", res.Table5)
	}
	if res.Config.SynthPerVariant != 1300 {
		t.Fatalf("explicit knob overridden: %+v", res.Config)
	}
}

func TestRunSuiteRejectsUnknownSection(t *testing.T) {
	cfg := smallSuiteConfig()
	cfg.Sections = []string{"fig99"}
	if _, err := RunSuite(context.Background(), cfg, nil); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown section accepted (err=%v)", err)
	}
}

func TestRunSuiteHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSuite(ctx, smallSuiteConfig(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned %v", err)
	}
}

// TestRunSuiteWorkerCountIndependent pins the worker-count contract: the
// same config produces identical (non-timing) results whatever the worker
// count, so a scenario golden holds on any machine.
func TestRunSuiteWorkerCountIndependent(t *testing.T) {
	cfg := smallSuiteConfig()
	cfg.Sections = []string{"fig6"}
	cfg.Workers = 1
	one, err := RunSuite(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 7
	seven, err := RunSuite(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, rates := range one.Fig6.Rates {
		for i, r := range rates {
			if seven.Fig6.Rates[name][i] != r {
				t.Fatalf("fig6 series %s differs across worker counts", name)
			}
		}
	}
	if one.Pipeline.Variants[0].Released != seven.Pipeline.Variants[0].Released {
		t.Fatal("released counts differ across worker counts")
	}
}
