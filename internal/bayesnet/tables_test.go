package bayesnet

import (
	"math"
	"strings"
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

// tableCase learns a model on the XOR fixture, or on gaussData when
// gaussian is set.
func tableCase(t *testing.T, cfg ModelConfig, gaussian bool) *Model {
	t.Helper()
	ds, st := gaussData(t, 3000, 11)
	if !gaussian {
		ds = xorData(t, 3000, 11)
		st = xorStructure(ds.Meta)
	}
	m, err := LearnModel(ds, dataset.NewBucketizer(ds.Meta), st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFrozenByteIdentical pins the model's tables to the oracle: for every
// ParamMode, with and without DP noise, and on the gaussData fixture (whose
// card-100 rows exercise the guide index), every draw — SampleAttr and the
// fused SampleChain — returns r.Categorical over the freshly materialized
// row and consumes its RNG state, and CondProb, CondDist and TailProducts
// read that row's exact values.
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
			m := tableCase(t, tc.cfg, tc.gaussian)
			n, order := len(m.Meta.Attrs), m.Struct.Order
			// oracle[attr][c] is configuration c's row, materialized afresh.
			oracle := make([][][]float64, n)
			for attr := range oracle {
				oracle[attr] = make([][]float64, m.NumConfigs(attr))
				for c := range oracle[attr] {
					oracle[attr][c] = make([]float64, m.Meta.Attrs[attr].Card())
					m.materialize(attr, uint32(c), oracle[attr][c])
				}
			}
			row := func(attr int, rec dataset.Record) []float64 { return oracle[attr][m.ConfigIndex(attr, rec)] }
			ra, rb := rng.New(99), rng.New(99)
			recA := make(dataset.Record, n)
			recB := make(dataset.Record, n)
			tail := make([]float64, n+1)
			for draw := 0; draw < 2000; draw++ {
				if draw%2 == 0 {
					for _, attr := range order {
						recA[attr] = m.SampleAttr(attr, recA, ra)
					}
				} else {
					m.SampleChain(recA, order, 0, ra)
				}
				for _, attr := range order {
					recB[attr] = uint16(rb.Categorical(row(attr, recB)))
				}
				if !recA.Equal(recB) {
					t.Fatalf("draw %d: model drew %v, oracle %v", draw, recA, recB)
				}
				m.TailProducts(recA, order, tail)
				want := 1.0
				for idx := n - 1; idx >= 0; idx-- {
					want *= row(order[idx], recA)[recA[order[idx]]]
					if tail[idx] != want {
						t.Fatalf("draw %d: tail[%d] = %v, oracle %v", draw, idx, tail[idx], want)
					}
				}
				for i := 0; i < n; i++ {
					dist := m.CondDist(i, recA)
					for v, p := range row(i, recA) {
						if got := m.CondProb(i, uint16(v), recA); got != p || dist[v] != p {
							t.Fatalf("draw %d: CondProb(%d, %d) %v, CondDist %v, oracle %v", draw, i, v, got, dist[v], p)
						}
					}
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatal("the model consumed different RNG state than the oracle")
			}
		})
	}
}

// TestFrozenGuideBuilt asserts the wide gaussData rows actually take the
// guide-indexed path rather than silently degrading to linear scans, and
// that Bytes reports exactly what the tables hold.
func TestFrozenGuideBuilt(t *testing.T) {
	m := tableCase(t, ModelConfig{Alpha: 0.5, NoiseKey: "g"}, true)
	if m.tables[1].guide == nil { // attribute X, card 100
		t.Fatal("card-100 attribute built without a guide index")
	}
	if m.tables[0].guide != nil { // attribute Y, card 2
		t.Fatal("card-2 attribute built a pointless guide index")
	}
	held := int64(0)
	for _, tb := range m.tables {
		held += int64(len(tb.probs)+len(tb.cum))*8 + int64(len(tb.guide))*4
	}
	if m.Bytes() != held {
		t.Fatalf("tables report %d bytes, hold %d", m.Bytes(), held)
	}
}

// TestFreezeRejectsPoisoned checks that construction refuses parameters
// that materialize to NaN probabilities, naming the attribute, instead of
// returning a model whose draws would panic a serving goroutine.
func TestFreezeRejectsPoisoned(t *testing.T) {
	ds := xorData(t, 100, 3)
	bkt := dataset.NewBucketizer(ds.Meta)
	m, err := newEmptyModel(ds.Meta, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Two Inf counts: MAP normalizes to Inf/Inf = NaN.
	m.counts[2][1] = []float64{math.Inf(1), math.Inf(1)}
	if err := m.build(); err == nil {
		t.Fatal("building accepted a poisoned count vector")
	} else if !strings.Contains(err.Error(), "attribute 2") {
		t.Fatalf("build error %q does not name the poisoned attribute", err)
	}
	// An infinite prior does the same through the public constructor.
	if _, err := LearnModel(ds, bkt, xorStructure(ds.Meta), ModelConfig{Alpha: math.Inf(1)}); err == nil {
		t.Fatal("LearnModel accepted parameters that normalize to NaN")
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
