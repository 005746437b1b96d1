package bayesnet

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// The freeze step trades one-time memory for a lock-free synthesis hot
// path. Mechanism 1 calls SampleAttr/CondProb once per attribute per
// candidate — millions of times per request — and each call through the
// lazy path takes a per-attribute RWMutex plus a map lookup, then linearly
// scans the probability vector. Freeze materializes every parent
// configuration of every attribute up front into flat, immutable tables:
// the probability rows (for CondProb), their exact cumulative prefix sums,
// and — above a cardinality crossover — a guide index that makes each draw
// O(1) expected (rng.DrawCumGuided). All rows of an attribute live in one
// contiguous backing array indexed by configuration, so a draw is two array
// reads away from the config index, with no pointer chasing.
//
// Determinism is preserved exactly: the rows are the same float64 vectors
// materialize would produce lazily, and DrawCum/DrawCumGuided compute the
// identical u → index mapping as Categorical (see internal/rng/sample.go),
// so a frozen model's output is byte-for-byte that of the unfrozen model.
// Walker alias tables were considered for the wide-row case but repartition
// [0, 1) into equal columns, changing which value a given uniform maps to;
// the guide index gives the same O(1) expected cost without breaking the
// stream contract.
//
// Freezing also doubles as validation: every materialized vector passes
// through rng.BuildCum, which rejects NaN/Inf/negative/all-zero rows, so
// poisoned parameters (e.g. from a hostile snapshot) surface as a decode
// error instead of panicking a serving goroutine mid-request.

const (
	// DefaultFreezeBudget caps the frozen tables' memory per model. An
	// attribute whose tables would push past the budget stays cold and
	// falls back to the lazy locked path, attribute by attribute.
	DefaultFreezeBudget = 64 << 20
	// guideMinCard is the crossover above which a cumulative row gets a
	// guide index. Below it a short linear scan beats the extra cache line.
	guideMinCard = 16
)

// frozenAttr holds one attribute's tables. All rows share single backing
// arrays laid out [config][value] (and [config][slot] for the guide).
// A nil probs marks a cold attribute (left unfrozen by the byte budget).
type frozenAttr struct {
	card   int
	probs  []float64 // numConfigs × card probability rows
	cum    []float64 // numConfigs × card exact prefix-sum rows
	guide  []uint32  // numConfigs × gslots guide rows; nil below crossover
	gslots int
}

// Frozen is an immutable snapshot of a model's fully materialized
// conditional tables. It is published on the model via atomic.Pointer and
// shared by all serving goroutines without synchronization.
type Frozen struct {
	model *Model
	attrs []frozenAttr
	bytes int64
}

// Freeze materializes the model's sampling tables and publishes them. A
// budget of 0 means DefaultFreezeBudget. Freezing an already-frozen model
// is a no-op. It returns an error — leaving the model unfrozen — if any
// configuration materializes to an invalid probability vector.
func (m *Model) Freeze(budget int64) error {
	if m.frozen.Load() != nil {
		return nil
	}
	if budget <= 0 {
		budget = DefaultFreezeBudget
	}
	f := &Frozen{model: m, attrs: make([]frozenAttr, len(m.Meta.Attrs))}
	for attr := range f.attrs {
		card := m.Meta.Attrs[attr].Card()
		nc := int64(m.numConfigs[attr])
		size := 2 * nc * int64(card) * 8 // probs + cum rows
		gslots := 0
		if card >= guideMinCard {
			gslots = rng.GuideSlots(card)
			size += nc * int64(gslots) * 4
		}
		if f.bytes+size > budget {
			continue // cold attribute: lazy locked path keeps serving it
		}
		fa := &f.attrs[attr]
		fa.card = card
		backing := make([]float64, 2*nc*int64(card))
		fa.probs = backing[: nc*int64(card) : nc*int64(card)]
		fa.cum = backing[nc*int64(card):]
		if gslots > 0 {
			fa.gslots = gslots
			fa.guide = make([]uint32, nc*int64(gslots))
		}
		for c := uint32(0); c < m.numConfigs[attr]; c++ {
			row := int64(c) * int64(card)
			copy(fa.probs[row:row+int64(card)], m.materialize(attr, c))
			cumRow := fa.cum[row : row : row+int64(card)]
			if _, err := rng.BuildCum(fa.probs[row:row+int64(card)], cumRow); err != nil {
				return fmt.Errorf("bayesnet: freeze attribute %d configuration %d: %w", attr, c, err)
			}
			if gslots > 0 {
				goff := int64(c) * int64(gslots)
				rng.BuildGuide(fa.cum[row:row+int64(card)], fa.guide[goff:goff:goff+int64(gslots)])
			}
		}
		f.bytes += size
	}
	m.frozen.Store(f)
	return nil
}

// Frozen returns the published frozen tables, or nil if the model has not
// been frozen. Callers on hot paths should load this once per run and call
// the Frozen methods directly, paying the atomic load only once.
func (m *Model) Frozen() *Frozen { return m.frozen.Load() }

// Model returns the model the tables were frozen from.
func (f *Frozen) Model() *Model { return f.model }

// Bytes reports the memory held by the frozen tables.
func (f *Frozen) Bytes() int64 { return f.bytes }

// SampleAttr is the lock-free counterpart of Model.SampleAttr: it draws a
// value for the attribute conditioned on the record's parent values,
// consuming the same RNG state and returning the same value as the
// unfrozen draw.
func (f *Frozen) SampleAttr(attr int, rec dataset.Record, r *rng.RNG) uint16 {
	fa := &f.attrs[attr]
	if fa.probs == nil {
		return f.model.SampleAttr(attr, rec, r)
	}
	c := int64(f.model.ConfigIndex(attr, rec))
	row := c * int64(fa.card)
	cum := fa.cum[row : row+int64(fa.card)]
	if fa.guide != nil {
		goff := c * int64(fa.gslots)
		return uint16(r.DrawCumGuided(cum, fa.guide[goff:goff+int64(fa.gslots)]))
	}
	return uint16(r.DrawCum(cum))
}

// CondProb is the lock-free counterpart of Model.CondProb.
func (f *Frozen) CondProb(attr int, value uint16, rec dataset.Record) float64 {
	fa := &f.attrs[attr]
	if fa.probs == nil {
		return f.model.CondProb(attr, value, rec)
	}
	row := int64(f.model.ConfigIndex(attr, rec)) * int64(fa.card)
	return fa.probs[row+int64(value)]
}

// CondDist is the lock-free counterpart of Model.CondDist. The returned
// slice is shared and must not be modified.
func (f *Frozen) CondDist(attr int, rec dataset.Record) []float64 {
	fa := &f.attrs[attr]
	if fa.probs == nil {
		return f.model.CondDist(attr, rec)
	}
	row := int64(f.model.ConfigIndex(attr, rec)) * int64(fa.card)
	return fa.probs[row : row+int64(fa.card)]
}

// SampleChain draws order[from:] in sequence into dst, each value
// conditioned on the partially updated record — the σ-suffix re-sampling
// loop of seed-based synthesis fused into one call over the frozen tables.
// It consumes exactly the RNG state and produces exactly the values of the
// equivalent per-attribute SampleAttr loop; cold attributes fall back to the
// lazy locked path individually.
func (f *Frozen) SampleChain(dst dataset.Record, order []int, from int, r *rng.RNG) {
	attrs := f.attrs
	for idx := from; idx < len(order); idx++ {
		attr := order[idx]
		fa := &attrs[attr]
		if fa.probs == nil {
			dst[attr] = f.model.SampleAttr(attr, dst, r)
			continue
		}
		c := int64(f.model.ConfigIndex(attr, dst))
		row := c * int64(fa.card)
		cum := fa.cum[row : row+int64(fa.card)]
		if fa.guide != nil {
			goff := c * int64(fa.gslots)
			dst[attr] = uint16(r.DrawCumGuided(cum, fa.guide[goff:goff+int64(fa.gslots)]))
		} else {
			dst[attr] = uint16(r.DrawCum(cum))
		}
	}
}

// TailProducts fills tail (length len(order)+1) with the running conditional
// products the generation-probability probe needs: tail[idx] = Π_{u ≥ idx}
// Pr{rec_order(u) | rec}, accumulated right to left with tail[len(order)]
// = 1 — one fused scan over the frozen probability rows instead of one
// CondProb call per attribute. The multiplication order is identical to the
// per-attribute loop it replaces, so every tail value is bit-identical.
func (f *Frozen) TailProducts(rec dataset.Record, order []int, tail []float64) {
	attrs := f.attrs
	m := len(order)
	tail[m] = 1
	for idx := m - 1; idx >= 0; idx-- {
		attr := order[idx]
		fa := &attrs[attr]
		var p float64
		if fa.probs == nil {
			p = f.model.CondProb(attr, rec[attr], rec)
		} else {
			row := int64(f.model.ConfigIndex(attr, rec)) * int64(fa.card)
			p = fa.probs[row+int64(rec[attr])]
		}
		tail[idx] = tail[idx+1] * p
	}
}

// SampleAttrFrozen samples through the frozen tables when present and falls
// back to the lazy locked path otherwise. Hot loops should prefer grabbing
// Frozen() once; this is the convenience form for mixed callers.
func (m *Model) SampleAttrFrozen(attr int, rec dataset.Record, r *rng.RNG) uint16 {
	if f := m.frozen.Load(); f != nil {
		return f.SampleAttr(attr, rec, r)
	}
	return m.SampleAttr(attr, rec, r)
}

// CondProbFrozen reads a conditional probability through the frozen tables
// when present, falling back to the lazy locked path otherwise.
func (m *Model) CondProbFrozen(attr int, value uint16, rec dataset.Record) float64 {
	if f := m.frozen.Load(); f != nil {
		return f.CondProb(attr, value, rec)
	}
	return m.CondProb(attr, value, rec)
}
