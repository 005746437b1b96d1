// Ablation benchmarks for the design choices DESIGN.md calls out: the
// σ-order selection, the eq. (6) maxcost cap, the parameter mode, and the
// deterministic-vs-randomized privacy test.
package sgf_test

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// BenchmarkAblationSigmaOrder quantifies the pass-rate effect of preferring
// low-cardinality attributes early in the re-sampling order σ.
func BenchmarkAblationSigmaOrder(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var res *eval.SigmaOrderAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunSigmaOrderAblation(context.Background(), p, eval.OmegaSpec{Lo: 9, Hi: 9}, p.Cfg.K, 250)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Render())
	b.ReportMetric(res.PassRateCardinality, "pass-card-order")
	b.ReportMetric(res.PassRateIndexOrdered, "pass-index-order")
}

// BenchmarkAblationMaxCost sweeps the eq. (6) cap and reports model sample
// fidelity with and without the ε=1 noise.
func BenchmarkAblationMaxCost(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var res *eval.MaxCostAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunMaxCostAblation(context.Background(), p, []float64{4, 32, 256}, 3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Render())
}

// BenchmarkAblationParamMode compares MAP (eq. 13) against posterior
// sampling (eq. 12).
func BenchmarkAblationParamMode(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var res *eval.ParamModeAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunParamModeAblation(context.Background(), p, 3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Render())
}

// BenchmarkAblationRandomizedTest compares Privacy Test 1 (deterministic,
// plausible deniability only) against Privacy Test 2 (randomized threshold,
// differentially private) on pass rate at identical (k, γ).
func BenchmarkAblationRandomizedTest(b *testing.B) {
	p := benchPipeline(b)
	syn, err := core.NewSeedSynthesizer(p.Model, 5, 11)
	if err != nil {
		b.Fatal(err)
	}
	run := func(randomized bool, seed uint64) float64 {
		cfg := core.TestConfig{
			K: p.Cfg.K, Gamma: p.Cfg.Gamma,
			Randomized: randomized, Eps0: 1,
			MaxPlausible: 2 * p.Cfg.K, MaxCheckPlausible: p.Cfg.MaxCheckPlausible,
		}
		if !randomized {
			cfg.Eps0 = 0
		}
		mech, err := core.NewMechanism(syn, p.DS, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := core.GenerateCtx(context.Background(), mech, core.GenConfig{Candidates: 400, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return stats.PassRate()
	}
	b.ResetTimer()
	var det, rnd float64
	for i := 0; i < b.N; i++ {
		det = run(false, uint64(i))
		rnd = run(true, uint64(i)+1000)
	}
	b.ReportMetric(det, "pass-deterministic")
	b.ReportMetric(rnd, "pass-randomized")
}

// BenchmarkSeedInferenceAttack plays the maximum-likelihood
// seed-identification game against released and rejected candidates.
func BenchmarkSeedInferenceAttack(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var res *eval.AttackResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunSeedInference(context.Background(), p, eval.OmegaSpec{Lo: 9, Hi: 9}, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Render())
	b.ReportMetric(res.SuccessReleased, "attack-released")
	b.ReportMetric(res.SuccessRejected, "attack-rejected")
}
