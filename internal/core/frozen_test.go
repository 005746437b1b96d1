package core

import (
	"context"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// benchModel builds a wider model than tinyModel — twelve attributes in a
// chain, the first three low-cardinality (so kept σ-prefixes actually
// recur among seeds) and the rest wide (32–64 values, past the guide
// crossover) — so hot-path measurements see realistic conditional-table
// sizes and sampling costs.
func benchModel(t testing.TB, seed uint64) *bayesnet.Model {
	t.Helper()
	return benchModelWith(t, seed, bayesnet.ModelConfig{Alpha: 1})
}

// benchModelWith is benchModel with its parameters learned under cfg.
func benchModelWith(t testing.TB, seed uint64, cfg bayesnet.ModelConfig) *bayesnet.Model {
	t.Helper()
	cards := []int{2, 3, 2, 40, 64, 32, 50, 64, 40, 57, 48, 36}
	attrs := make([]dataset.Attribute, len(cards))
	for i, card := range cards {
		attrs[i] = dataset.NewNumerical(string(rune('A'+i)), 0, card-1)
	}
	meta := dataset.MustMetadata(attrs...)
	g := bayesnet.NewGraph(len(cards))
	for i := 0; i+1 < len(cards); i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	st := &bayesnet.Structure{Graph: g, Order: order, Scores: make([]float64, len(cards))}
	r := rng.New(seed)
	ds := dataset.New(meta)
	rec := make(dataset.Record, len(cards))
	for i := 0; i < 4000; i++ {
		prev := r.Intn(2)
		for j, card := range cards {
			v := (prev*7 + r.Intn(1+card/2)) % card
			rec[j] = uint16(v)
			prev = v
		}
		ds.Append(rec.Clone())
	}
	bkt := dataset.NewBucketizer(meta)
	model, err := bayesnet.LearnModel(ds, bkt, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// marginalModel relearns the model's data-free marginal counterpart over an
// edgeless structure, for marginalSyn.
func marginalModel(t testing.TB, src *bayesnet.Model) *bayesnet.Model {
	t.Helper()
	st := bayesnet.MarginalStructure(src.Meta)
	r := rng.New(77)
	ds := dataset.New(src.Meta)
	for i := 0; i < 2000; i++ {
		ds.Append(src.SampleRecord(r))
	}
	model, err := bayesnet.LearnModel(ds, dataset.NewBucketizer(src.Meta), st, bayesnet.ModelConfig{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// benchmarkGenerate measures single-worker candidate throughput; with
// Workers=1 the reported cands/s is per-core by construction (the
// records/sec-per-core number in cmd/sgfd's README divides by PassRate).
func benchmarkGenerate(b *testing.B, mech *Mechanism) {
	// Sized so one op sits well above the CI gate's noise floor (~15ms even
	// on the fast path).
	const candidates = 10000
	b.ReportAllocs()
	b.ResetTimer()
	released := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
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

func benchMech(b *testing.B) *Mechanism {
	model := benchModel(b, 21)
	syn, err := NewSeedSynthesizer(model, 9, 11)
	if err != nil {
		b.Fatal(err)
	}
	seeds := tinySeeds(b, model, 300, 22)
	// The caps are the tool's max_plausible / max_check_plausible knobs
	// (§5). A MaxCheckPlausible below |D| selects the privacy test's
	// per-record walk, so these benchmarks gate the walk alongside
	// sampling; BenchmarkGenerateExact gates the uncapped exact count.
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 5, Gamma: 3, MaxPlausible: 10, MaxCheckPlausible: 64})
	if err != nil {
		b.Fatal(err)
	}
	return mech
}

// BenchmarkGenerateFrozen is the capped hot path: fused table sampling,
// per-worker scratch reuse and the per-record walk. The name predates the
// single table representation; bench/baseline.json keys on it.
func BenchmarkGenerateFrozen(b *testing.B) {
	benchmarkGenerate(b, benchMech(b))
}

// BenchmarkGenerateExact is the uncapped hot path at the §6.1 test
// parameters (paperMech: k = 50, γ = 4, ε₀ = 1, 2,400 seeds): the privacy
// test counts plausible seeds exactly over the sorted seed table.
func BenchmarkGenerateExact(b *testing.B) {
	benchmarkGenerate(b, paperMech(b))
}
