package bayesnet

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// xorData builds a dataset where C = A XOR B exactly; with parents {A,B}
// the model should predict C perfectly.
func xorData(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "0", "1"),
		dataset.NewCategorical("B", "0", "1"),
		dataset.NewCategorical("C", "0", "1"),
	)
	r := rng.New(seed)
	ds := dataset.New(meta)
	for i := 0; i < n; i++ {
		a := uint16(r.Intn(2))
		b := uint16(r.Intn(2))
		ds.Append(dataset.Record{a, b, a ^ b})
	}
	return ds
}

func xorStructure(meta *dataset.Metadata) *Structure {
	g := NewGraph(3)
	mustAddT(g, 0, 2)
	mustAddT(g, 1, 2)
	order, _ := g.TopologicalOrder()
	return &Structure{Graph: g, Order: order, Scores: make([]float64, 3)}
}

func TestLearnModelConditionals(t *testing.T) {
	ds := xorData(t, 4000, 1)
	bkt := dataset.NewBucketizer(ds.Meta)
	model, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// P(C = a xor b | A=a, B=b) should be ~1.
	for a := uint16(0); a < 2; a++ {
		for b := uint16(0); b < 2; b++ {
			rec := dataset.Record{a, b, 0}
			p := model.CondProb(2, a^b, rec)
			if p < 0.99 {
				t.Errorf("P(C=%d|A=%d,B=%d) = %g, want ~1", a^b, a, b, p)
			}
		}
	}
}

func TestCondDistNormalized(t *testing.T) {
	ds := xorData(t, 500, 2)
	bkt := dataset.NewBucketizer(ds.Meta)
	for _, mode := range []ParamMode{MAPEstimate, PosteriorSample} {
		model, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for a := uint16(0); a < 2; a++ {
			for b := uint16(0); b < 2; b++ {
				dist := model.CondDist(2, dataset.Record{a, b, 0})
				sum := 0.0
				for _, p := range dist {
					if p < 0 {
						t.Fatalf("negative probability %g (mode %d)", p, mode)
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("conditional sums to %g (mode %d)", sum, mode)
				}
			}
		}
	}
}

func TestUnseenConfigurationUsesPrior(t *testing.T) {
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "0", "1", "2"),
		dataset.NewCategorical("B", "x", "y"),
	)
	g := NewGraph(2)
	mustAddT(g, 0, 1)
	order, _ := g.TopologicalOrder()
	st := &Structure{Graph: g, Order: order, Scores: make([]float64, 2)}
	ds := dataset.New(meta)
	ds.Append(dataset.Record{0, 0}) // A=2 config never observed
	bkt := dataset.NewBucketizer(meta)
	model, err := LearnModel(ds, bkt, st, ModelConfig{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist := model.CondDist(1, dataset.Record{2, 0})
	if math.Abs(dist[0]-0.5) > 1e-12 || math.Abs(dist[1]-0.5) > 1e-12 {
		t.Fatalf("unseen config should give the uniform prior, got %v", dist)
	}
}

func TestSampleRecordMatchesModel(t *testing.T) {
	ds := xorData(t, 5000, 3)
	bkt := dataset.NewBucketizer(ds.Meta)
	model, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	xorOK := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		rec := model.SampleRecord(r)
		if rec[2] == rec[0]^rec[1] {
			xorOK++
		}
	}
	if frac := float64(xorOK) / draws; frac < 0.98 {
		t.Fatalf("sampled records respect XOR only %.3f of the time", frac)
	}
}

func TestMostLikelyUsesChildren(t *testing.T) {
	// C = A xor B, so predicting A from (B, C) requires the child C's CPT:
	// A has no parents, its prior is uniform — only Markov-blanket
	// inference through C can recover A = B xor C.
	ds := xorData(t, 4000, 5)
	bkt := dataset.NewBucketizer(ds.Meta)
	model, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	r := rng.New(6)
	const trials = 500
	for i := 0; i < trials; i++ {
		a := uint16(r.Intn(2))
		b := uint16(r.Intn(2))
		rec := dataset.Record{a, b, a ^ b}
		if model.MostLikely(0, rec) == a {
			correct++
		}
	}
	if frac := float64(correct) / trials; frac < 0.95 {
		t.Fatalf("Markov-blanket inference accuracy %.3f, want ~1", frac)
	}
}

func TestDPModelDeterministicPerNoiseKey(t *testing.T) {
	ds := xorData(t, 1000, 7)
	bkt := dataset.NewBucketizer(ds.Meta)
	build := func(key string) *Model {
		m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{
			DP: true, EpsP: 1, NoiseKey: key, Mode: MAPEstimate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2, m3 := build("k1"), build("k1"), build("k2")
	rec := dataset.Record{1, 0, 1}
	p1 := m1.CondProb(2, 1, rec)
	p2 := m2.CondProb(2, 1, rec)
	p3 := m3.CondProb(2, 1, rec)
	if p1 != p2 {
		t.Fatalf("same noise key gave different probabilities: %g vs %g", p1, p2)
	}
	if p1 == p3 {
		t.Fatal("different noise keys gave identical noisy probabilities")
	}
}

func TestDPModelRequiresEpsP(t *testing.T) {
	ds := xorData(t, 10, 8)
	bkt := dataset.NewBucketizer(ds.Meta)
	if _, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{DP: true}); err == nil {
		t.Fatal("DP model without EpsP accepted")
	}
}

func TestLearnModelStructureMismatch(t *testing.T) {
	ds := xorData(t, 10, 9)
	bkt := dataset.NewBucketizer(ds.Meta)
	bad := &Structure{Graph: NewGraph(5), Order: []int{0, 1, 2, 3, 4}}
	if _, err := LearnModel(ds, bkt, bad, ModelConfig{}); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

func TestPosteriorSampleDeterministicPerConfig(t *testing.T) {
	ds := xorData(t, 1000, 10)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{
		Mode: PosteriorSample, NoiseKey: "ps",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := dataset.Record{1, 1, 0}
	p1 := m.CondProb(2, 0, rec)
	p2 := m.CondProb(2, 0, rec)
	if p1 != p2 {
		t.Fatal("posterior-sampled parameters changed between queries")
	}
	// A rebuilt model with the same key samples the same parameters.
	m2, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{
		Mode: PosteriorSample, NoiseKey: "ps",
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.CondProb(2, 0, rec) != p1 {
		t.Fatal("rebuilt model sampled different parameters")
	}
}

func TestLogProbFinite(t *testing.T) {
	ds := xorData(t, 100, 11)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []dataset.Record{{0, 0, 0}, {1, 1, 1}, {0, 1, 0}} {
		lp := m.LogProb(rec)
		if math.IsInf(lp, 0) || math.IsNaN(lp) || lp > 0 {
			t.Fatalf("LogProb(%v) = %g", rec, lp)
		}
	}
}

func TestModelConcurrentAccess(t *testing.T) {
	ds := xorData(t, 2000, 12)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{
		DP: true, EpsP: 1, NoiseKey: "conc", Mode: PosteriorSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			acc := 0.0
			for i := 0; i < 500; i++ {
				rec := dataset.Record{uint16(r.Intn(2)), uint16(r.Intn(2)), uint16(r.Intn(2))}
				acc += m.CondProb(2, rec[2], rec)
			}
			results[w] = acc
		}(w)
	}
	wg.Wait()
	// Workers with the same RNG seed would produce the same sum; just
	// verify nothing panicked and probabilities accumulated.
	for w, acc := range results {
		if acc <= 0 {
			t.Fatalf("worker %d accumulated %g", w, acc)
		}
	}
}

func TestBucketizedParentsReduceConfigs(t *testing.T) {
	meta := dataset.MustMetadata(
		dataset.NewNumerical("AGE", 0, 99),
		dataset.NewCategorical("Y", "n", "y"),
	)
	bkt := dataset.NewBucketizer(meta)
	if err := bkt.SetWidth(0, 10); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(2)
	mustAddT(g, 0, 1)
	order, _ := g.TopologicalOrder()
	st := &Structure{Graph: g, Order: order, Scores: make([]float64, 2)}
	ds := dataset.New(meta)
	r := rng.New(13)
	for i := 0; i < 1000; i++ {
		age := uint16(r.Intn(100))
		y := uint16(0)
		if age >= 50 {
			y = 1
		}
		ds.Append(dataset.Record{age, y})
	}
	m, err := LearnModel(ds, bkt, st, ModelConfig{Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumConfigs(1) != 10 {
		t.Fatalf("NumConfigs = %d, want 10 buckets", m.NumConfigs(1))
	}
	// Ages in the same bucket share a conditional.
	p1 := m.CondProb(1, 1, dataset.Record{71, 0})
	p2 := m.CondProb(1, 1, dataset.Record{75, 0})
	if p1 != p2 {
		t.Fatal("same-bucket ages got different conditionals")
	}
	if p := m.CondProb(1, 1, dataset.Record{90, 0}); p < 0.9 {
		t.Fatalf("P(Y=1|age 90) = %g, want high", p)
	}
	if p := m.CondProb(1, 1, dataset.Record{10, 0}); p > 0.1 {
		t.Fatalf("P(Y=1|age 10) = %g, want low", p)
	}
}
