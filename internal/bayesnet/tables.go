package bayesnet

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// A model's conditional tables are built once, when LearnModel or
// DecodeModel constructs it. Mechanism 1 reads a conditional once per
// attribute per candidate — millions of times per request — so every parent
// configuration of every attribute is materialized up front into flat,
// immutable tables: the probability rows (for CondProb), their exact
// cumulative prefix sums, and — above a cardinality crossover — a guide
// index that makes each draw O(1) expected (rng.DrawCumGuided). All rows of
// an attribute live in one contiguous backing array indexed by
// configuration, so a draw is two array reads away from the config index,
// with no pointer chasing and no locks.
//
// DrawCum and DrawCumGuided compute the identical u → index mapping as
// Categorical over the probability row (see internal/rng/sample.go), so a
// draw consumes the RNG state of, and returns the value of, the plain
// categorical draw. Walker alias tables were considered for the wide-row
// case but repartition [0, 1) into equal columns, changing which value a
// given uniform maps to; the guide index gives the same O(1) expected cost
// without breaking the stream contract.
//
// Building doubles as validation: every row passes through rng.BuildCum,
// which rejects NaN/Inf/negative/all-zero rows, so poisoned parameters (e.g.
// from a hostile snapshot) surface as a construction error instead of
// panicking a serving goroutine mid-request.

const (
	// MaxTableBytes caps a model's conditional tables. Construction refuses
	// a structure whose tables would exceed it; eq. (6)'s max_cost is the
	// knob that keeps a fit under it.
	MaxTableBytes = 64 << 20
	// guideMinCard is the crossover above which a cumulative row gets a
	// guide index. Below it a short linear scan beats the extra cache line.
	guideMinCard = 16
)

// table holds one attribute's conditional tables. All rows share single
// backing arrays laid out [config][value] (and [config][slot] for the
// guide).
type table struct {
	card   int
	probs  []float64 // numConfigs × card probability rows
	cum    []float64 // numConfigs × card exact prefix-sum rows
	guide  []uint32  // numConfigs × gslots guide rows; nil below crossover
	gslots int
}

// tableBytes returns the memory of an attribute's tables: nc probability
// and cumulative rows of card values, plus guide rows above the crossover.
func tableBytes(nc int64, card int) int64 {
	size := 2 * nc * int64(card) * 8
	if card >= guideMinCard {
		size += nc * int64(rng.GuideSlots(card)) * 4
	}
	return size
}

// row returns the probability row of configuration c.
func (t *table) row(c uint32) []float64 {
	off := int64(c) * int64(t.card)
	return t.probs[off : off+int64(t.card) : off+int64(t.card)]
}

// build materializes every configuration of every attribute into the
// model's tables. It fails, naming the configuration, if any row is not a
// valid probability vector.
func (m *Model) build() error {
	m.tables = make([]table, len(m.Meta.Attrs))
	for attr := range m.tables {
		t := &m.tables[attr]
		t.card = m.Meta.Attrs[attr].Card()
		n := int64(m.numConfigs[attr]) * int64(t.card)
		backing := make([]float64, 2*n)
		t.probs, t.cum = backing[:n:n], backing[n:]
		if t.card >= guideMinCard {
			t.gslots = rng.GuideSlots(t.card)
			t.guide = make([]uint32, int64(m.numConfigs[attr])*int64(t.gslots))
		}
		for c := uint32(0); c < m.numConfigs[attr]; c++ {
			probs, off := t.row(c), int64(c)*int64(t.card)
			m.materialize(attr, c, probs)
			cum, err := rng.BuildCum(probs, t.cum[off:off:off+int64(t.card)])
			if err != nil {
				return fmt.Errorf("bayesnet: attribute %d configuration %d: %w", attr, c, err)
			}
			if t.guide != nil {
				goff := int64(c) * int64(t.gslots)
				rng.BuildGuide(cum, t.guide[goff:goff:goff+int64(t.gslots)])
			}
		}
	}
	return nil
}

// Bytes reports the memory held by the model's conditional tables.
func (m *Model) Bytes() int64 { return m.bytes }

// SampleChain draws order[from:] in sequence into dst, each value
// conditioned on the partially updated record — the σ-suffix re-sampling
// loop of seed-based synthesis fused into one call. It consumes exactly the
// RNG state and produces exactly the values of the equivalent
// per-attribute SampleAttr loop.
func (m *Model) SampleChain(dst dataset.Record, order []int, from int, r *rng.RNG) {
	attrs := m.tables
	for idx := from; idx < len(order); idx++ {
		attr := order[idx]
		t := &attrs[attr]
		c := int64(m.ConfigIndex(attr, dst))
		row := c * int64(t.card)
		cum := t.cum[row : row+int64(t.card)]
		if t.guide != nil {
			goff := c * int64(t.gslots)
			dst[attr] = uint16(r.DrawCumGuided(cum, t.guide[goff:goff+int64(t.gslots)]))
		} else {
			dst[attr] = uint16(r.DrawCum(cum))
		}
	}
}

// TailProducts fills tail (length len(order)+1) with the running conditional
// products the generation-probability probe needs: tail[idx] = Π_{u ≥ idx}
// Pr{rec_order(u) | rec}, accumulated right to left with tail[len(order)]
// = 1 — one fused scan over the probability rows instead of one CondProb
// call per attribute, with the same multiplication order.
func (m *Model) TailProducts(rec dataset.Record, order []int, tail []float64) {
	attrs := m.tables
	n := len(order)
	tail[n] = 1
	for idx := n - 1; idx >= 0; idx-- {
		attr := order[idx]
		t := &attrs[attr]
		row := int64(m.ConfigIndex(attr, rec)) * int64(t.card)
		tail[idx] = tail[idx+1] * t.probs[row+int64(rec[attr])]
	}
}

// Freeze does nothing: LearnModel and DecodeModel build every table.
//
// Deprecated: perfbench is the only caller; delete this once it stops calling it.
func (m *Model) Freeze(budget int64) error { return nil }

// Frozen returns the model itself.
//
// Deprecated: perfbench is the only caller; delete this once it stops calling it.
func (m *Model) Frozen() *Model { return m }
