package core

import (
	"math"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// tinyModel builds a 3-attribute model (A → B → C chain) learned from
// correlated data; small enough for exhaustive and Monte-Carlo checks.
func tinyModel(t testing.TB, seed uint64) *bayesnet.Model {
	t.Helper()
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "0", "1"),
		dataset.NewCategorical("B", "0", "1", "2"),
		dataset.NewCategorical("C", "0", "1"),
	)
	g := bayesnet.NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	st := &bayesnet.Structure{Graph: g, Order: order, Scores: make([]float64, 3)}
	r := rng.New(seed)
	ds := dataset.New(meta)
	for i := 0; i < 3000; i++ {
		a := uint16(r.Intn(2))
		b := uint16((int(a) + r.Intn(2)) % 3)
		c := uint16(0)
		if b > 0 && r.Bool(0.8) {
			c = 1
		}
		ds.Append(dataset.Record{a, b, c})
	}
	bkt := dataset.NewBucketizer(meta)
	model, err := bayesnet.LearnModel(ds, bkt, st, bayesnet.ModelConfig{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func tinySeeds(t testing.TB, model *bayesnet.Model, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := rng.New(seed)
	ds := dataset.New(model.Meta)
	for i := 0; i < n; i++ {
		ds.Append(model.SampleRecord(r))
	}
	return ds
}

// generate returns a fresh candidate y = M(seed).
func generate(syn Synthesizer, seed dataset.Record, r *rng.RNG) dataset.Record {
	y := make(dataset.Record, len(seed))
	syn.GenerateInto(y, seed, r)
	return y
}

// genProb returns Pr{y = M(d)} through a fresh probe.
func genProb(syn Synthesizer, y, d dataset.Record) float64 {
	var p Probe
	syn.Probe(y, &p)
	return p.Prob(d)
}

// marginalSyn is a test-only seed-independent synthesizer with the shape of
// the "marginal" backend, which package core cannot import: it samples
// every attribute of an edgeless model from its marginal and fills a
// constant probe.
type marginalSyn struct{ model *bayesnet.Model }

func (s marginalSyn) GenerateInto(dst, _ dataset.Record, r *rng.RNG) {
	for _, attr := range s.model.Struct.Order {
		dst[attr] = s.model.SampleAttr(attr, dst, r)
	}
}

func (s marginalSyn) Probe(y dataset.Record, p *Probe) {
	prob := 1.0
	for attr := range s.model.Meta.Attrs {
		prob *= s.model.CondProb(attr, y[attr], y)
	}
	p.SetConstant(prob)
}

// marginalSynth learns a marginal model from samples of the given model and
// wraps it in a marginalSyn.
func marginalSynth(t testing.TB, model *bayesnet.Model) marginalSyn {
	t.Helper()
	margModel, err := bayesnet.LearnModel(
		tinySeeds(t, model, 1000, 77), model.Bkt,
		bayesnet.MarginalStructure(model.Meta), bayesnet.ModelConfig{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	return marginalSyn{margModel}
}

func TestNewSeedSynthesizerValidation(t *testing.T) {
	model := tinyModel(t, 1)
	cases := []struct{ lo, hi int }{{0, 1}, {1, 4}, {2, 1}, {-1, 2}}
	for _, c := range cases {
		if _, err := NewSeedSynthesizer(model, c.lo, c.hi); err == nil {
			t.Errorf("omega range [%d,%d] accepted", c.lo, c.hi)
		}
	}
	if _, err := NewSeedSynthesizer(model, 1, 3); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateKeepsSeedPrefix(t *testing.T) {
	model := tinyModel(t, 2)
	r := rng.New(3)
	for omega := 1; omega <= 3; omega++ {
		syn, err := NewSeedSynthesizer(model, omega, omega)
		if err != nil {
			t.Fatal(err)
		}
		seed := dataset.Record{1, 2, 0}
		for trial := 0; trial < 200; trial++ {
			y := generate(syn, seed, r)
			kept := len(seed) - omega
			for j := 0; j < kept; j++ {
				attr := model.Struct.Order[j]
				if y[attr] != seed[attr] {
					t.Fatalf("omega=%d: kept attribute σ(%d)=%d changed: %v vs seed %v",
						omega, j, attr, y, seed)
				}
			}
		}
	}
}

func TestGenProbZeroWhenPrefixDisagrees(t *testing.T) {
	model := tinyModel(t, 4)
	syn, err := NewSeedSynthesizer(model, 1, 1) // keep first 2 of 3 attributes
	if err != nil {
		t.Fatal(err)
	}
	y := dataset.Record{0, 1, 0}
	agree := dataset.Record{0, 1, 1}    // agrees on σ-prefix (A, B)
	disagree := dataset.Record{1, 1, 0} // differs on A
	if p := genProb(syn, y, agree); p <= 0 {
		t.Fatalf("agreeing seed got probability %g", p)
	}
	if p := genProb(syn, y, disagree); p != 0 {
		t.Fatalf("disagreeing seed got probability %g", p)
	}
}

func TestGenProbMonotoneInAgreement(t *testing.T) {
	// With ω ∈ [1, 3], a seed agreeing on a longer σ-prefix can only have
	// a larger generation probability (more mixture terms are live).
	model := tinyModel(t, 5)
	syn, err := NewSeedSynthesizer(model, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	y := dataset.Record{0, 1, 1}
	full := genProb(syn, y, dataset.Record{0, 1, 1})
	two := genProb(syn, y, dataset.Record{0, 1, 0})
	one := genProb(syn, y, dataset.Record{0, 2, 0})
	zero := genProb(syn, y, dataset.Record{1, 2, 0})
	if !(full >= two && two >= one && one >= zero) {
		t.Fatalf("probabilities not monotone in agreement: %g %g %g %g", full, two, one, zero)
	}
	if zero <= 0 {
		t.Fatalf("with omega up to m, every seed should be plausible; got %g", zero)
	}
}

// TestGenProbMatchesMonteCarlo is the key correctness test of the exact
// probability computation: the analytic Pr{y = M(d)} must match the
// empirical frequency of y among many generations from d.
func TestGenProbMatchesMonteCarlo(t *testing.T) {
	model := tinyModel(t, 8)
	for _, omegaRange := range [][2]int{{1, 1}, {2, 2}, {1, 3}} {
		syn, err := NewSeedSynthesizer(model, omegaRange[0], omegaRange[1])
		if err != nil {
			t.Fatal(err)
		}
		seed := dataset.Record{1, 0, 1}
		r := rng.New(9)
		const draws = 400000
		freq := map[string]int{}
		for i := 0; i < draws; i++ {
			y := generate(syn, seed, r)
			freq[y.Key()]++
		}
		// Check every generated outcome's frequency against its probability.
		checked := 0
		for key, count := range freq {
			if count < 1000 {
				continue // too noisy to compare
			}
			y := dataset.Record{uint16(key[0]) | uint16(key[1])<<8,
				uint16(key[2]) | uint16(key[3])<<8,
				uint16(key[4]) | uint16(key[5])<<8}
			want := genProb(syn, y, seed)
			got := float64(count) / draws
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("omega %v: freq(%v) = %.5f, Pr{y = M(seed)} = %.5f", omegaRange, y, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("omega %v: no outcome frequent enough to check", omegaRange)
		}
	}
}

func TestGenProbSumsToOneOverUniverse(t *testing.T) {
	// Σ_y Pr{y = M(d)} over the full record universe must be 1.
	model := tinyModel(t, 10)
	for _, omegaRange := range [][2]int{{1, 1}, {3, 3}, {1, 3}} {
		syn, err := NewSeedSynthesizer(model, omegaRange[0], omegaRange[1])
		if err != nil {
			t.Fatal(err)
		}
		seed := dataset.Record{0, 2, 1}
		sum := 0.0
		for a := uint16(0); a < 2; a++ {
			for b := uint16(0); b < 3; b++ {
				for c := uint16(0); c < 2; c++ {
					sum += genProb(syn, dataset.Record{a, b, c}, seed)
				}
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("omega %v: probabilities sum to %.12f", omegaRange, sum)
		}
	}
}

// TestConstantProbeSeedIndependent pins SetConstant: a constant probe
// prices every seed alike, and stores a negative or NaN probability as 0.
func TestConstantProbeSeedIndependent(t *testing.T) {
	model := tinyModel(t, 11)
	syn := marginalSynth(t, model)
	y := dataset.Record{1, 1, 0}
	p1 := genProb(syn, y, dataset.Record{0, 0, 0})
	p2 := genProb(syn, y, dataset.Record{1, 2, 1})
	if p1 != p2 {
		t.Fatalf("marginal synthesizer depends on seed: %g vs %g", p1, p2)
	}
	if p1 <= 0 || p1 >= 1 {
		t.Fatalf("implausible marginal probability %g", p1)
	}
	var p Probe
	for _, bad := range []float64{-1, math.NaN()} {
		p.SetConstant(bad)
		if got := p.Prob(y); got != 0 {
			t.Fatalf("SetConstant(%g): Prob = %g, want 0", bad, got)
		}
	}
}
