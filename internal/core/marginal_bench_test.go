package core_test

import (
	"context"
	"testing"

	"repro/internal/acs"
	"repro/internal/backend"
	"repro/internal/backend/marginal"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// BenchmarkGenerateMarginal runs the "marginal" backend through the
// generation kernel at the §6.1 test parameters (k = 50, γ = 4, ε₀ = 1) over
// 2,000 ACS seeds, single worker. Its probe is constant, so the privacy test
// costs O(1) per candidate and the loop allocates only the arena blocks
// passing records are copied into. It sits in an external test package
// because package core cannot import a backend.
func BenchmarkGenerateMarginal(b *testing.B) {
	data := acs.NewPopulation().Generate(rng.New(31), 4000)
	r := rng.New(32)
	parts, err := data.SplitFrac(r.Split(), 0.25, 0.25, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := marginal.Backend{}.Fit(backend.FitData{
		Structure: parts[0], Params: parts[1], Bkt: dataset.NewBucketizer(data.Meta), Seed: 32, RNG: r,
	})
	if err != nil {
		b.Fatal(err)
	}
	syn, err := model.Synthesizer(5, 11)
	if err != nil {
		b.Fatal(err)
	}
	mech, err := core.NewMechanism(syn, parts[2], core.TestConfig{K: 50, Gamma: 4, Randomized: true, Eps0: 1})
	if err != nil {
		b.Fatal(err)
	}
	const candidates = 20000
	b.ReportAllocs()
	b.ResetTimer()
	released := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := core.GenerateCtx(context.Background(), mech, core.GenConfig{
			Candidates: candidates, Workers: 1, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		released = stats.Released
	}
	b.ReportMetric(float64(candidates)*float64(b.N)/b.Elapsed().Seconds(), "cands/s")
	if released == 0 {
		b.Fatal("benchmark mechanism released nothing")
	}
}
