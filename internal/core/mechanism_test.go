package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestNewMechanismValidation(t *testing.T) {
	model := tinyModel(t, 50)
	syn, err := NewSeedSynthesizer(model, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 10, 51)
	if _, err := NewMechanism(syn, seeds, TestConfig{K: 20, Gamma: 2}); err == nil {
		t.Fatal("mechanism with k > |D| accepted")
	}
	if _, err := NewMechanism(syn, seeds, TestConfig{K: 5, Gamma: 1}); err == nil {
		t.Fatal("mechanism with gamma <= 1 accepted")
	}
	if _, err := NewMechanism(syn, seeds, TestConfig{K: 5, Gamma: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateCountsAndSoundness(t *testing.T) {
	model := tinyModel(t, 52)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 400, 53)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 25, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 300, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 300 {
		t.Fatalf("Candidates = %d, want 300", stats.Candidates)
	}
	if stats.Released != out.Len() {
		t.Fatalf("Released %d != dataset size %d", stats.Released, out.Len())
	}
	if stats.Released == 0 {
		t.Fatal("nothing released; workload vacuous")
	}
	if stats.PassRate() <= 0 || stats.PassRate() > 1 {
		t.Fatalf("pass rate %g out of range", stats.PassRate())
	}
	// Every released record keeps the format of the input schema.
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministicForFixedSeedAndWorkers(t *testing.T) {
	model := tinyModel(t, 54)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 200, 55)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 10, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []string {
		out, _, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 200, Workers: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, out.Len())
		for i, r := range out.Rows() {
			keys[i] = r.Key()
		}
		sort.Strings(keys)
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("released multisets differ between identical runs")
		}
	}
}

func TestGenerateTargetReachesTarget(t *testing.T) {
	model := tinyModel(t, 56)
	syn, err := NewSeedSynthesizer(model, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 400, 57)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 10, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := GenerateTargetCtx(context.Background(), mech, 50, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("target run returned %d records", out.Len())
	}
	if stats.Candidates < 50 {
		t.Fatalf("stats inconsistent: %d candidates < 50 released", stats.Candidates)
	}
}

func TestGenerateTargetFailsWhenImpossible(t *testing.T) {
	model := tinyModel(t, 58)
	syn, err := NewSeedSynthesizer(model, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 60, 59)
	// k equal to the dataset size: essentially nothing passes with ω=1
	// (plausible seeds must share the two kept attribute values).
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 60, Gamma: 1.0001})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = GenerateTargetCtx(context.Background(), mech, 10, 100, 2, 4)
	if err == nil {
		t.Fatal("impossible target succeeded")
	}
}

func TestMarginalMechanismAlwaysPasses(t *testing.T) {
	model := tinyModel(t, 60)
	marg := marginalSynth(t, model)
	seeds := tinySeeds(t, model, 200, 61)
	mech, err := NewMechanism(marg, seeds, TestConfig{K: 50, Gamma: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 100, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Released != stats.Candidates {
		t.Fatalf("seed-independent synthesis should always pass: %d/%d", stats.Released, stats.Candidates)
	}
}

func TestReleaseBudgetExposed(t *testing.T) {
	model := tinyModel(t, 62)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 200, 63)
	det, err := NewMechanism(syn, seeds, TestConfig{K: 50, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := det.ReleaseBudget(1e-9); ok {
		t.Fatal("deterministic test claimed a DP budget")
	}
	rnd, err := NewMechanism(syn, seeds, TestConfig{K: 50, Gamma: 4, Randomized: true, Eps0: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := rnd.ReleaseBudget(1e-9)
	if !ok {
		t.Fatal("no feasible budget for k=50, eps0=1")
	}
	if b.Epsilon <= 1 || b.Delta > 1e-9 {
		t.Fatalf("implausible budget %v", b)
	}
}

// TestTheorem1Empirical estimates the output distribution of Mechanism 1 +
// Privacy Test 2, as the generation kernel runs it (Mechanism.Once), on
// neighboring datasets over a tiny universe and checks
// the (ε, δ) inequality of Theorem 1 for every singleton outcome. Monte
// Carlo noise is handled with a small multiplicative slack: a true
// violation of the theorem would overshoot far beyond it.
func TestTheorem1Empirical(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo check skipped in -short mode")
	}
	model := tinyModel(t, 64)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Neighboring datasets: D (12 records) and D' = D ∪ {d'}.
	base := tinySeeds(t, model, 12, 65)
	dPrime := dataset.Record{1, 2, 1}
	neighbor := base.Clone()
	neighbor.Append(dPrime)

	cfg := TestConfig{K: 6, Gamma: 2, Randomized: true, Eps0: 1}
	mechD, err := NewMechanism(syn, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mechDPrime, err := NewMechanism(syn, neighbor, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const draws = 600000
	estimate := func(m *Mechanism, seed uint64) map[string]float64 {
		r := rng.New(seed)
		freq := map[string]float64{}
		y := make(dataset.Record, len(m.Seeds.Meta.Attrs))
		var ps Probe
		for i := 0; i < draws; i++ {
			if m.Once(y, &ps, r).Pass {
				freq[y.Key()]++
			}
		}
		for k := range freq {
			freq[k] /= draws
		}
		return freq
	}
	pD := estimate(mechD, 100)
	pDPrime := estimate(mechDPrime, 200)

	// Theorem 1 with t = 3: ε = ε0 + ln(1 + γ/t), δ = e^(−ε0(k−t)).
	tpar := 3
	eps := cfg.Eps0 + math.Log(1+cfg.Gamma/float64(tpar))
	delta := math.Exp(-cfg.Eps0 * float64(cfg.K-tpar))
	slack := 1.15 // Monte-Carlo tolerance

	keys := map[string]bool{}
	for k := range pD {
		keys[k] = true
	}
	for k := range pDPrime {
		keys[k] = true
	}
	for k := range keys {
		// Only check outcomes estimated with enough mass for MC stability.
		if pD[k] < 50.0/draws && pDPrime[k] < 50.0/draws {
			continue
		}
		if pDPrime[k] > slack*(math.Exp(eps)*pD[k]+delta) {
			t.Errorf("outcome %q: P'(y)=%.2e exceeds e^ε·P(y)+δ = %.2e",
				k, pDPrime[k], math.Exp(eps)*pD[k]+delta)
		}
		if pD[k] > slack*(math.Exp(eps)*pDPrime[k]+delta) {
			t.Errorf("outcome %q: P(y)=%.2e exceeds e^ε·P'(y)+δ = %.2e",
				k, pD[k], math.Exp(eps)*pDPrime[k]+delta)
		}
	}
}
