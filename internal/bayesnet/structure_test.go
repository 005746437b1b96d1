package bayesnet

import (
	"math"
	"testing"

	"repro/internal/acs"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

// chainData builds a dataset where x1 is a noisy copy of x0 and x2 is a
// noisy copy of x1, while x3 is independent noise. Structure learning
// should wire up the chain and leave x3 alone (or nearly so).
func chainData(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "a0", "a1", "a2", "a3"),
		dataset.NewCategorical("B", "b0", "b1", "b2", "b3"),
		dataset.NewCategorical("C", "c0", "c1", "c2", "c3"),
		dataset.NewCategorical("D", "d0", "d1", "d2", "d3"),
	)
	r := rng.New(seed)
	ds := dataset.New(meta)
	noisyCopy := func(v uint16) uint16 {
		if r.Bool(0.1) {
			return uint16(r.Intn(4))
		}
		return v
	}
	for i := 0; i < n; i++ {
		a := uint16(r.Intn(4))
		b := noisyCopy(a)
		c := noisyCopy(b)
		d := uint16(r.Intn(4))
		ds.Append(dataset.Record{a, b, c, d})
	}
	return ds
}

func TestComputeEntropiesMatchesDirect(t *testing.T) {
	ds := chainData(t, 2000, 1)
	bkt := dataset.NewBucketizer(ds.Meta)
	et, err := ComputeEntropies(ds, bkt, StructureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		col := ds.Column(i)
		want := stats.FromColumn(col, 4).Entropy()
		if math.Abs(et.Single[i]-want) > 1e-12 {
			t.Errorf("Single[%d] = %g, want %g", i, et.Single[i], want)
		}
		// Identity bucketizer: bucket entropy equals plain entropy.
		if math.Abs(et.Bucket[i]-want) > 1e-12 {
			t.Errorf("Bucket[%d] = %g, want %g", i, et.Bucket[i], want)
		}
	}
	j := stats.FromColumns(ds.Column(0), 4, ds.Column(1), 4)
	if math.Abs(et.Pair[0][1]-j.Entropy()) > 1e-12 {
		t.Errorf("Pair[0][1] = %g, want %g", et.Pair[0][1], j.Entropy())
	}
	if et.N != 2000 {
		t.Errorf("N = %g", et.N)
	}
}

func TestComputeEntropiesErrors(t *testing.T) {
	meta := dataset.MustMetadata(dataset.NewCategorical("A", "x", "y"))
	empty := dataset.New(meta)
	bkt := dataset.NewBucketizer(meta)
	if _, err := ComputeEntropies(empty, bkt, StructureConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	ds := dataset.New(meta)
	ds.Append(dataset.Record{0})
	if _, err := ComputeEntropies(ds, bkt, StructureConfig{DP: true}); err == nil {
		t.Fatal("DP without epsilons accepted")
	}
	if _, err := ComputeEntropies(ds, bkt, StructureConfig{DP: true, EpsH: 1, EpsN: 1}); err == nil {
		t.Fatal("DP without RNG accepted")
	}
}

func TestLearnStructureFindsChain(t *testing.T) {
	ds := chainData(t, 5000, 2)
	bkt := dataset.NewBucketizer(ds.Meta)
	st, err := LearnStructure(ds, bkt, StructureConfig{MinCorr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// The chain A—B—C must be connected: B should link to A (either
	// direction), C to B.
	linked := func(x, y int) bool {
		return st.Graph.HasEdge(x, y) || st.Graph.HasEdge(y, x)
	}
	if !linked(0, 1) {
		t.Errorf("A and B not linked:\n%v", st.Graph)
	}
	if !linked(1, 2) {
		t.Errorf("B and C not linked:\n%v", st.Graph)
	}
	// D is independent noise; it should pick up no parents and be no
	// parent of anything (greedy CFS only adds score-improving parents).
	if len(st.Graph.Parents[3]) != 0 {
		t.Errorf("independent attribute D got parents %v", st.Graph.Parents[3])
	}
	for i := 0; i < 3; i++ {
		if st.Graph.HasEdge(3, i) {
			t.Errorf("independent attribute D became parent of %d", i)
		}
	}
	if err := st.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLearnStructureMaxCost checks the eq. (6) cap on parent-bucket
// configurations: an explicit cap, and the zero value, which means
// DefaultMaxCost. The zero-value case runs on ACS data, where a far larger
// cap lets some attribute take more than DefaultMaxCost configurations.
func TestLearnStructureMaxCost(t *testing.T) {
	maxCost := func(ds *dataset.Dataset, cfg StructureConfig) float64 {
		t.Helper()
		bkt := dataset.NewBucketizer(ds.Meta)
		st, err := LearnStructure(ds, bkt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		most := 1.0
		for _, ps := range st.Graph.Parents {
			cost := 1.0
			for _, p := range ps {
				cost *= float64(bkt.Card(p))
			}
			most = math.Max(most, cost)
		}
		return most
	}
	if got := maxCost(chainData(t, 2000, 3), StructureConfig{MaxCost: 4, MinCorr: 0.01}); got > 4 {
		t.Errorf("parent cost %g exceeds maxcost 4", got)
	}
	census := acs.NewPopulation().Generate(rng.New(3), 2000)
	if got := maxCost(census, StructureConfig{MaxCost: 1 << 20, MinCorr: 0.01}); got <= DefaultMaxCost {
		t.Fatalf("uncapped ACS structure peaks at %g configurations; the default case would be vacuous", got)
	}
	if got := maxCost(census, StructureConfig{MinCorr: 0.01}); got > DefaultMaxCost {
		t.Errorf("MaxCost 0 allowed parent cost %g, want at most %d", got, DefaultMaxCost)
	}
}

func TestLearnStructureMaxParents(t *testing.T) {
	ds := chainData(t, 2000, 4)
	bkt := dataset.NewBucketizer(ds.Meta)
	st, err := LearnStructure(ds, bkt, StructureConfig{MaxParents: 1, MinCorr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range st.Graph.Parents {
		if len(ps) > 1 {
			t.Errorf("attribute %d has %d parents with MaxParents=1", i, len(ps))
		}
	}
}

func TestLearnStructureDPStillUseful(t *testing.T) {
	ds := chainData(t, 20000, 5)
	bkt := dataset.NewBucketizer(ds.Meta)
	st, err := LearnStructure(ds, bkt, StructureConfig{
		DP: true, EpsH: 0.5, EpsN: 0.5, Rng: rng.New(9), MinCorr: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// With this much data and moderate noise the strong A—B dependence
	// should survive.
	linked := st.Graph.HasEdge(0, 1) || st.Graph.HasEdge(1, 0)
	if !linked {
		t.Errorf("DP structure learning lost the A—B edge:\n%v", st.Graph)
	}
}

func TestLearnStructureDPNoiseActuallyApplied(t *testing.T) {
	ds := chainData(t, 500, 6)
	bkt := dataset.NewBucketizer(ds.Meta)
	plain, err := ComputeEntropies(ds, bkt, StructureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := ComputeEntropies(ds, bkt, StructureConfig{DP: true, EpsH: 1, EpsN: 1, Rng: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range plain.Single {
		if plain.Single[i] != noisy.Single[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("DP entropies identical to plain entropies")
	}
}

func TestMarginalStructure(t *testing.T) {
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "x", "y"),
		dataset.NewCategorical("B", "x", "y"),
	)
	st := MarginalStructure(meta)
	if st.Graph.NumEdges() != 0 {
		t.Fatal("marginal structure has edges")
	}
	if len(st.Order) != 2 {
		t.Fatal("order length wrong")
	}
}

func TestStructureOrderConsistentWithGraph(t *testing.T) {
	ds := chainData(t, 3000, 7)
	bkt := dataset.NewBucketizer(ds.Meta)
	st, err := LearnStructure(ds, bkt, StructureConfig{MinCorr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(st.Order))
	for p, a := range st.Order {
		pos[a] = p
	}
	for i, ps := range st.Graph.Parents {
		for _, p := range ps {
			if pos[p] >= pos[i] {
				t.Fatalf("σ order violates dependency: parent %d after child %d", p, i)
			}
		}
	}
}
