package bayesnet

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/wire"
)

// gaussData builds records where a numeric attribute clusters around a
// parent-dependent mean: Y=0 → values near 20, Y=1 → values near 70.
func gaussData(t testing.TB, n int, seed uint64) (*dataset.Dataset, *Structure) {
	t.Helper()
	meta := dataset.MustMetadata(
		dataset.NewCategorical("Y", "lo", "hi"),
		dataset.NewNumerical("X", 0, 99),
	)
	g := NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	st := &Structure{Graph: g, Order: order, Scores: make([]float64, 2)}
	r := rng.New(seed)
	ds := dataset.New(meta)
	for i := 0; i < n; i++ {
		y := uint16(r.Intn(2))
		mean := 20.0
		if y == 1 {
			mean = 70
		}
		x := int(math.Round(r.Normal(mean, 8)))
		if x < 0 {
			x = 0
		}
		if x > 99 {
			x = 99
		}
		ds.Append(dataset.Record{y, uint16(x)})
	}
	return ds, st
}

// freezeCase learns the same model twice from identical data and freezes
// only one, so tests can compare the lazy and frozen paths bit for bit.
func freezeCase(t *testing.T, cfg ModelConfig, gaussian bool) (frozen, lazy *Model) {
	t.Helper()
	build := func() *Model {
		var ds *dataset.Dataset
		var st *Structure
		if gaussian {
			ds, st = gaussData(t, 3000, 11)
		} else {
			ds = xorData(t, 3000, 11)
			st = xorStructure(ds.Meta)
		}
		bkt := dataset.NewBucketizer(ds.Meta)
		m, err := LearnModel(ds, bkt, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	frozen, lazy = build(), build()
	if err := frozen.Freeze(0); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if frozen.Frozen() == nil {
		t.Fatal("Freeze published no tables")
	}
	return frozen, lazy
}

// TestFrozenByteIdentical pins the tentpole contract: for every ParamMode,
// with and without DP noise, and on the Gaussian-clustered gaussData
// fixture (whose card-100 rows exercise the guide index), a frozen model
// samples and scores byte-for-byte like the unfrozen model, consuming
// identical RNG state.
func TestFrozenByteIdentical(t *testing.T) {
	cases := []struct {
		name     string
		cfg      ModelConfig
		gaussian bool
	}{
		{"map", ModelConfig{Alpha: 0.5}, false},
		{"posterior", ModelConfig{Alpha: 0.5, Mode: PosteriorSample, NoiseKey: "p"}, false},
		{"map-dp", ModelConfig{Alpha: 0.5, DP: true, EpsP: 1, NoiseKey: "d"}, false},
		{"posterior-dp", ModelConfig{Alpha: 0.5, Mode: PosteriorSample, DP: true, EpsP: 1, NoiseKey: "pd"}, false},
		{"gaussian", ModelConfig{Alpha: 0.5, NoiseKey: "g"}, true},
		{"gaussian-posterior-dp", ModelConfig{Alpha: 0.5, Mode: PosteriorSample, DP: true, EpsP: 1, NoiseKey: "gpd"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm, lm := freezeCase(t, tc.cfg, tc.gaussian)
			f := fm.Frozen()
			m := len(fm.Meta.Attrs)
			ra, rb := rng.New(99), rng.New(99)
			recA := make(dataset.Record, m)
			recB := make(dataset.Record, m)
			for draw := 0; draw < 2000; draw++ {
				for _, attr := range fm.Struct.Order {
					recA[attr] = f.SampleAttr(attr, recA, ra)
					recB[attr] = lm.SampleAttr(attr, recB, rb)
				}
				for i := 0; i < m; i++ {
					if recA[i] != recB[i] {
						t.Fatalf("draw %d attr %d: frozen %d, lazy %d", draw, i, recA[i], recB[i])
					}
				}
				for i := 0; i < m; i++ {
					for v := 0; v < fm.Meta.Attrs[i].Card(); v++ {
						pa := f.CondProb(i, uint16(v), recA)
						pb := lm.CondProb(i, uint16(v), recB)
						if pa != pb {
							t.Fatalf("draw %d: CondProb(%d, %d) frozen %v, lazy %v", draw, i, v, pa, pb)
						}
					}
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatal("frozen path consumed different RNG state than lazy path")
			}
		})
	}
}

// TestFrozenGuideBuilt asserts the wide gaussData rows actually take the
// guide-indexed path rather than silently degrading to linear scans.
func TestFrozenGuideBuilt(t *testing.T) {
	fm, _ := freezeCase(t, ModelConfig{Alpha: 0.5, NoiseKey: "g"}, true)
	f := fm.Frozen()
	if f.attrs[1].guide == nil { // attribute X, card 100
		t.Fatal("card-100 attribute frozen without a guide index")
	}
	if f.attrs[0].guide != nil { // attribute Y, card 2
		t.Fatal("card-2 attribute built a pointless guide index")
	}
	if f.Bytes() <= 0 {
		t.Fatalf("frozen tables report %d bytes", f.Bytes())
	}
}

// TestFreezeBudgetColdFallback freezes under a budget too small for any
// attribute: every attribute stays cold, and the frozen entry points fall
// back to the lazy path with unchanged output.
func TestFreezeBudgetColdFallback(t *testing.T) {
	fm, lm := freezeCase(t, ModelConfig{Alpha: 0.5}, false)
	cold, err := LearnModel(xorData(t, 3000, 11), dataset.NewBucketizer(fm.Meta), xorStructure(fm.Meta), ModelConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Freeze(1); err != nil {
		t.Fatalf("Freeze with tiny budget: %v", err)
	}
	f := cold.Frozen()
	if f == nil {
		t.Fatal("tiny-budget freeze published nothing")
	}
	if f.Bytes() != 0 {
		t.Fatalf("tiny-budget freeze holds %d bytes, want 0", f.Bytes())
	}
	ra, rb := rng.New(7), rng.New(7)
	recA := make(dataset.Record, 3)
	recB := make(dataset.Record, 3)
	for draw := 0; draw < 500; draw++ {
		for _, attr := range cold.Struct.Order {
			recA[attr] = cold.SampleAttrFrozen(attr, recA, ra)
			recB[attr] = lm.SampleAttr(attr, recB, rb)
		}
		for i := range recA {
			if recA[i] != recB[i] {
				t.Fatalf("draw %d attr %d: cold-frozen %d, lazy %d", draw, i, recA[i], recB[i])
			}
		}
	}
}

// TestFreezeRejectsPoisoned plants a count vector that materializes to NaN
// probabilities and checks Freeze reports an error instead of publishing
// tables that would panic a serving draw.
func TestFreezeRejectsPoisoned(t *testing.T) {
	ds := xorData(t, 100, 3)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Two Inf counts: MAP normalizes to Inf/Inf = NaN.
	m.counts[2][1] = []float64{math.Inf(1), math.Inf(1)}
	err = m.Freeze(0)
	if err == nil {
		t.Fatal("Freeze accepted a poisoned count vector")
	}
	if !strings.Contains(err.Error(), "attribute 2") {
		t.Fatalf("freeze error %q does not name the poisoned attribute", err)
	}
	if m.Frozen() != nil {
		t.Fatal("failed Freeze still published tables")
	}
}

// TestDecodeModelRejectsHugeCounts covers the snapshot-side hardening: a
// count that is finite but large enough to overflow the normalizer must be
// rejected at decode time, not at first materialization.
func TestDecodeModelRejectsHugeCounts(t *testing.T) {
	ds := xorData(t, 100, 5)
	bkt := dataset.NewBucketizer(ds.Meta)
	st := xorStructure(ds.Meta)
	m, err := LearnModel(ds, bkt, st, ModelConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m.counts[2][0] = []float64{1e308, 1e308}
	var w wire.Writer
	EncodeModel(&w, m)
	r := wire.NewReader(w.Bytes())
	if _, err := DecodeModel(r, ds.Meta, bkt, st); err == nil {
		t.Fatal("DecodeModel accepted counts that overflow the normalizer")
	}
}

// TestFreezeConcurrentWithServing races Freeze against lazy readers; run
// with -race this pins the atomic publication.
func TestFreezeConcurrentWithServing(t *testing.T) {
	ds := xorData(t, 1000, 9)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			rec := make(dataset.Record, 3)
			for i := 0; i < 2000; i++ {
				for _, attr := range m.Struct.Order {
					rec[attr] = m.SampleAttrFrozen(attr, rec, r)
				}
			}
		}(uint64(g + 1))
	}
	if err := m.Freeze(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
