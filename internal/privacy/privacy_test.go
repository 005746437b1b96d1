package privacy

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestLaplaceMechanismMoments(t *testing.T) {
	r := rng.New(1)
	const draws = 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += Laplace(r, 10, 2, 1) // scale 2
	}
	mean := sum / draws
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("noisy mean %.4f, want ~10", mean)
	}
}

func TestLaplaceNonNegative(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		if v := LaplaceNonNegative(r, 0.1, 1, 0.5); v < 0 {
			t.Fatalf("negative clamped value %g", v)
		}
	}
}

func TestLaplacePanics(t *testing.T) {
	for _, tc := range []struct{ sens, eps float64 }{{0, 1}, {1, 0}, {-1, 1}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Laplace(sens=%g, eps=%g) did not panic", tc.sens, tc.eps)
				}
			}()
			Laplace(rng.New(1), 0, tc.sens, tc.eps)
		}()
	}
}

func TestEntropySensitivityMatchesLemma(t *testing.T) {
	// Spot-check the closed form against the Lemma 1 expression.
	for _, n := range []float64{1, 10, 1000, 280000} {
		want := (2 + 1/math.Ln2 + 2*math.Log2(n)) / n
		if got := EntropySensitivity(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("EntropySensitivity(%g) = %g, want %g", n, got, want)
		}
	}
}

func TestEntropySensitivityDominatesEmpirical(t *testing.T) {
	// Empirically verify Lemma 1: moving one record between two histogram
	// bins never changes the entropy by more than the bound.
	r := rng.New(3)
	for trial := 0; trial < 500; trial++ {
		n := 10 + r.Intn(200)
		bins := 2 + r.Intn(8)
		counts := make([]float64, bins)
		for i := 0; i < n; i++ {
			counts[r.Intn(bins)]++
		}
		entropy := func(c []float64) float64 {
			h := 0.0
			for _, x := range c {
				if x > 0 {
					p := x / float64(n)
					h -= p * math.Log2(p)
				}
			}
			return h
		}
		h0 := entropy(counts)
		// Move one record from a non-empty bin j2 to bin j1.
		j2 := -1
		for j, c := range counts {
			if c > 0 {
				j2 = j
				break
			}
		}
		j1 := (j2 + 1) % bins
		counts[j2]--
		counts[j1]++
		h1 := entropy(counts)
		if diff := math.Abs(h1 - h0); diff > EntropySensitivity(float64(n))+1e-12 {
			t.Fatalf("entropy moved by %g > bound %g (n=%d bins=%d)", diff, EntropySensitivity(float64(n)), n, bins)
		}
	}
}

func TestSequentialComposition(t *testing.T) {
	b := SequentialComposition(Budget{1, 1e-9}, Budget{0.5, 1e-9}, Budget{0.25, 0})
	if math.Abs(b.Epsilon-1.75) > 1e-12 || math.Abs(b.Delta-2e-9) > 1e-15 {
		t.Fatalf("sequential composition = %v", b)
	}
}

func TestAdvancedCompositionFormula(t *testing.T) {
	k, eps, delta, slack := 10, 0.1, 1e-9, 1e-6
	b := AdvancedComposition(k, eps, delta, slack)
	wantEps := eps*math.Sqrt(2*10*math.Log(1/slack)) + 10*eps*(math.Exp(eps)-1)
	wantDelta := 10*delta + slack
	if math.Abs(b.Epsilon-wantEps) > 1e-9 || math.Abs(b.Delta-wantDelta) > 1e-15 {
		t.Fatalf("advanced composition = %v, want (%g, %g)", b, wantEps, wantDelta)
	}
}

func TestAdvancedBeatsSequentialForManySmallEps(t *testing.T) {
	// For many low-ε mechanisms advanced composition should win.
	k, eps := 400, 0.01
	adv := AdvancedComposition(k, eps, 0, 1e-9)
	seq := float64(k) * eps
	if adv.Epsilon >= seq {
		t.Fatalf("advanced %g >= sequential %g for k=%d eps=%g", adv.Epsilon, seq, k, eps)
	}
}

func TestReleaseBudgetTheorem1(t *testing.T) {
	// k=50, γ=4, ε0=1, t=10 → δ=e^-40, ε=1+ln(1.4).
	b := ReleaseBudget(50, 4, 1, 10)
	if math.Abs(b.Epsilon-(1+math.Log(1.4))) > 1e-12 {
		t.Fatalf("eps = %g", b.Epsilon)
	}
	if math.Abs(b.Delta-math.Exp(-40)) > 1e-25 {
		t.Fatalf("delta = %g", b.Delta)
	}
}

func TestReleaseBudgetPanics(t *testing.T) {
	cases := []struct {
		k    int
		g, e float64
		t    int
	}{
		{0, 4, 1, 1}, {50, 1, 1, 10}, {50, 4, 0, 10}, {50, 4, 1, 0}, {50, 4, 1, 50},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			ReleaseBudget(c.k, c.g, c.e, c.t)
		}()
	}
}

func TestBestReleaseBudget(t *testing.T) {
	b, tt, ok := BestReleaseBudget(50, 4, 1, 1e-9)
	if !ok {
		t.Fatal("no feasible t found")
	}
	if b.Delta > 1e-9 {
		t.Fatalf("delta %g exceeds target", b.Delta)
	}
	// Exhaustive check that it is actually optimal.
	for cand := 1; cand < 50; cand++ {
		cb := ReleaseBudget(50, 4, 1, cand)
		if cb.Delta <= 1e-9 && cb.Epsilon < b.Epsilon {
			t.Fatalf("t=%d better than reported t=%d", cand, tt)
		}
	}
	// Infeasible target.
	if _, _, ok := BestReleaseBudget(2, 4, 0.001, 1e-9); ok {
		t.Fatal("infeasible target reported feasible")
	}
}

func TestMinKForDelta(t *testing.T) {
	k := MinKForDelta(1, 1e-9, 10)
	b := ReleaseBudget(k, 4, 1, 10)
	if b.Delta > 1e-9 {
		t.Fatalf("k=%d gives delta %g > 1e-9", k, b.Delta)
	}
	if k > 10 {
		prev := ReleaseBudget(k-1, 4, 1, 10)
		if prev.Delta <= 1e-9 {
			t.Fatalf("k=%d not minimal; k-1 gives delta %g", k, prev.Delta)
		}
	}
}

func TestAccountant(t *testing.T) {
	var a Accountant
	a.Spend("release", Budget{0.5, 1e-10}, 4)
	a.Spend("structure", Budget{1, 0}, 1)
	tot := a.Total()
	if math.Abs(tot.Epsilon-3) > 1e-12 {
		t.Fatalf("total eps = %g, want 3", tot.Epsilon)
	}
	if math.Abs(tot.Delta-4e-10) > 1e-20 {
		t.Fatalf("total delta = %g", tot.Delta)
	}
	if len(a.Items()) != 2 {
		t.Fatalf("ledger size %d", len(a.Items()))
	}
	// Zero-count spends are ignored.
	a.Spend("noop", Budget{100, 1}, 0)
	if math.Abs(a.Total().Epsilon-3) > 1e-12 {
		t.Fatal("zero-count spend changed total")
	}
}

func TestAccountantAdvanced(t *testing.T) {
	var a Accountant
	for i := 0; i < 100; i++ {
		a.Spend("release", Budget{0.01, 0}, 1)
	}
	adv := a.TotalAdvanced(1e-9)
	if adv.Epsilon >= a.Total().Epsilon {
		t.Fatalf("advanced %g not better than sequential %g", adv.Epsilon, a.Total().Epsilon)
	}
	// Mixed budgets fall back to sequential.
	a.Spend("other", Budget{0.5, 0}, 1)
	if got := a.TotalAdvanced(1e-9); math.Abs(got.Epsilon-a.Total().Epsilon) > 1e-12 {
		t.Fatal("mixed budgets should fall back to sequential")
	}
}

func TestStructureAndParameterBudgets(t *testing.T) {
	// §3.5 with m=11 attributes.
	sl := StructureLearningBudget(11, 0.01, 0.05, 1e-9)
	wantEps := 0.05 + 0.01*math.Sqrt(2*132*math.Log(1e9)) + 132*0.01*(math.Exp(0.01)-1)
	if math.Abs(sl.Epsilon-wantEps) > 1e-9 {
		t.Fatalf("structure eps = %g, want %g", sl.Epsilon, wantEps)
	}
	pl := ParameterLearningBudget(11, 0.05, 1e-9)
	if pl.Epsilon <= 0 {
		t.Fatal("parameter budget not positive")
	}
	model := ModelBudget(sl, pl)
	if model.Epsilon != math.Max(sl.Epsilon, pl.Epsilon) {
		t.Fatal("model budget is not the max over disjoint splits")
	}
}
