// Package core implements the paper's primary contribution: plausible
// deniability as a privacy criterion for data synthesis (§2).
//
// It provides the seed-based generative synthesis of §3.2 with exact
// generation probabilities Pr{y = M(d)}, the marginal baseline, the
// (k, γ)-plausible deniability criterion of Definition 1, the deterministic
// Privacy Test 1 and the randomized Privacy Test 2 (whose composition with
// Mechanism 1 is (ε, δ)-differentially private by Theorem 1), Mechanism 1
// itself, and an embarrassingly parallel generation pipeline mirroring the
// tool of §5.
package core

import (
	"fmt"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// Synthesizer is a probabilistic generative model M that transforms a seed
// record into a synthetic record, with computable generation probabilities.
type Synthesizer interface {
	// Generate produces a synthetic record y = M(seed).
	Generate(seed dataset.Record, r *rng.RNG) dataset.Record
	// GenProb returns Pr{y = M(d)}: the probability that the model would
	// output y given seed d.
	GenProb(y, d dataset.Record) float64
	// Prober returns a function computing Pr{y = M(d)} for a fixed y.
	// Implementations precompute whatever they can for y, making repeated
	// evaluation over many candidate seeds (the plausible-seed count of the
	// privacy tests) cheap.
	Prober(y dataset.Record) func(d dataset.Record) float64
}

// SeedSynthesizer is the generative synthesis of §3.2: a synthetic record
// keeps the first m−ω attributes of its seed (in the model's dependency
// order σ) and re-samples the remaining ω attributes from the model's
// conditionals (eq. 3). ω is drawn uniformly from [OmegaLo, OmegaHi] for
// every candidate; setting OmegaLo == OmegaHi gives the fixed-ω variants of
// §6, and a proper range gives the ω ∈R [lo, hi] variants.
type SeedSynthesizer struct {
	// Model supplies the conditional distributions records are re-sampled
	// from.
	Model *bayesnet.Model
	// OmegaLo, OmegaHi bound the per-candidate re-sampled attribute count ω.
	OmegaLo, OmegaHi int
}

// NewSeedSynthesizer validates the ω range against the model width.
func NewSeedSynthesizer(model *bayesnet.Model, omegaLo, omegaHi int) (*SeedSynthesizer, error) {
	m := len(model.Meta.Attrs)
	if omegaLo < 1 || omegaHi > m || omegaLo > omegaHi {
		return nil, fmt.Errorf("core: omega range [%d,%d] invalid for %d attributes", omegaLo, omegaHi, m)
	}
	return &SeedSynthesizer{Model: model, OmegaLo: omegaLo, OmegaHi: omegaHi}, nil
}

// Generate implements eq. (3): it copies the seed, then re-samples the last
// ω attributes in σ order, each conditioned on the current (partially
// updated) record.
func (s *SeedSynthesizer) Generate(seed dataset.Record, r *rng.RNG) dataset.Record {
	rec := make(dataset.Record, len(seed))
	s.generateInto(rec, seed, r)
	return rec
}

// generateInto is Generate without the output allocation: it overwrites dst
// (same length as seed) with the synthetic record. It draws through the
// model's frozen tables when published — same RNG consumption, same values,
// no locks (see bayesnet/freeze.go).
func (s *SeedSynthesizer) generateInto(dst, seed dataset.Record, r *rng.RNG) {
	m := len(seed)
	omega := s.OmegaLo + r.Intn(s.OmegaHi-s.OmegaLo+1)
	copy(dst, seed)
	order := s.Model.Struct.Order
	if f := s.Model.Frozen(); f != nil {
		f.SampleChain(dst, order, m-omega, r)
		return
	}
	for idx := m - omega; idx < m; idx++ {
		attr := order[idx]
		dst[attr] = s.Model.SampleAttr(attr, dst, r)
	}
}

// scanOrder exposes the attribute order the prober compares seeds along,
// which the privacy test's sorted seed table is keyed on (see ScanTableFor).
func (s *SeedSynthesizer) scanOrder() []int { return s.Model.Struct.Order }

// GenProb returns Pr{y = M(d)} exactly.
//
// For a fixed ω the probability factorizes as
//
//	[d and y agree on σ(1..m−ω)] · Π_{i>m−ω} Pr{y_σ(i) | parents(y)}
//
// because the copied attributes equal the seed's values and every
// re-sampled conditional reads only attributes earlier in σ, whose values
// in the partially updated record coincide with y's. For a random ω the
// probability is the uniform mixture over the range, so different seeds —
// agreeing with y on different σ-prefixes — genuinely fall into different
// γ-partitions of the privacy test.
func (s *SeedSynthesizer) GenProb(y, d dataset.Record) float64 {
	return s.Prober(y)(d)
}

// proberState holds the per-candidate precomputation of a prober so the
// generation pipeline can reuse one allocation per worker instead of
// allocating tails, sums, and a closure for every candidate. A state is
// (re)filled by proberInit and read by proberEval; it is owned by a single
// goroutine.
type proberState struct {
	y     dataset.Record
	order []int
	// tail[idx] = Π_{u=idx..m-1} Pr{y_σ(u) | y}; tail[m] = 1.
	tail []float64
	// cum[j] = Σ_{idx=loIdx..j} tail[idx] for j in [loIdx, hiIdx].
	cum          []float64
	loIdx, hiIdx int
	weight       float64
	// constP, when ≥ 0, short-circuits evaluation to a seed-independent
	// probability (the marginal synthesizer's case).
	constP float64
	// match memoizes the privacy test's partition comparison per agreement
	// bucket (see initPartitions): match[j] reports whether the probability
	// weight·cum[j] lies in the seed's partition, and is false for j below
	// loIdx, where no seed can fall. constMatch is the constP analogue.
	match      []bool
	constMatch bool
	// ranges holds the privacy test's prefix ranges (see prefixRanges).
	ranges []int
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// proberInit precomputes, for the fixed candidate y, the conditional tail
// products and their partial mixture sums, so each seed evaluation costs
// one σ-prefix comparison plus a table lookup. Conditionals are read
// through the frozen tables when published — the identical float64 values
// the lazy path materializes.
func (s *SeedSynthesizer) proberInit(y dataset.Record, ps *proberState) {
	m := len(y)
	order := s.Model.Struct.Order
	ps.y, ps.order, ps.constP = y, order, -1
	ps.tail = grow(ps.tail, m+1)
	if f := s.Model.Frozen(); f != nil {
		f.TailProducts(y, order, ps.tail)
	} else {
		ps.tail[m] = 1
		for idx := m - 1; idx >= 0; idx-- {
			attr := order[idx]
			ps.tail[idx] = ps.tail[idx+1] * s.Model.CondProb(attr, y[attr], y)
		}
	}
	// Keep positions idx = m−ω for ω ∈ [lo, hi] run over [m−hi, m−lo].
	ps.loIdx, ps.hiIdx = m-s.OmegaHi, m-s.OmegaLo
	ps.cum = grow(ps.cum, ps.hiIdx+1)
	run := 0.0
	for j := ps.loIdx; j <= ps.hiIdx; j++ {
		run += ps.tail[j]
		ps.cum[j] = run
	}
	ps.weight = 1 / float64(s.OmegaHi-s.OmegaLo+1)
}

// agreeBucket maps a record to its mixture bucket: the σ-prefix agreement
// length with y, clamped to [loIdx, hiIdx], or -1 when the record agrees on
// too short a prefix to be a possible seed. Because the bucket clamps at
// hiIdx, agreement beyond σ-position hiIdx cannot change the result and the
// comparison stops there (hiIdx = m−OmegaLo < m, so the bound is in range).
func (ps *proberState) agreeBucket(d dataset.Record) int {
	// a = length of the σ-prefix on which d and y agree, capped at hiIdx+1.
	stop := ps.hiIdx + 1
	a := 0
	for ; a < stop; a++ {
		if d[ps.order[a]] != ps.y[ps.order[a]] {
			break
		}
	}
	// Seeds must agree on all kept attributes: m−ω ≤ a.
	j := a
	if j > ps.hiIdx {
		j = ps.hiIdx
	}
	if j < ps.loIdx {
		return -1
	}
	return j
}

// proberEval returns Pr{y = M(d)} for the y the state was initialized with.
func (ps *proberState) proberEval(d dataset.Record) float64 {
	if ps.constP >= 0 {
		return ps.constP
	}
	j := ps.agreeBucket(d)
	if j < 0 {
		return 0
	}
	return ps.weight * ps.cum[j]
}

// initPartitions memoizes, for every value the prober can return, whether
// it lies in partition `part` — the privacy test's count then needs no
// logarithms at all. The memo feeds the exact probability values proberEval
// would produce through the same PartitionIndex, so the decisions are
// bit-identical to testing each record individually.
func (ps *proberState) initPartitions(part int, logGamma float64) {
	if ps.constP >= 0 {
		i, ok := partitionIndexLog(ps.constP, logGamma)
		ps.constMatch = ps.constP > 0 && ok && i == part
		return
	}
	if cap(ps.match) < ps.hiIdx+1 {
		ps.match = make([]bool, ps.hiIdx+1)
	}
	ps.match = ps.match[:ps.hiIdx+1]
	for j := range ps.match {
		ps.match[j] = false
		if j >= ps.loIdx {
			p := ps.weight * ps.cum[j]
			i, ok := partitionIndexLog(p, logGamma)
			ps.match[j] = p > 0 && ok && i == part
		}
	}
}

// decisive returns the σ-prefix length that decides a seed's plausibility
// under the memo: the smallest j from which the memo stays constant up to
// hiIdx. A seed agreeing with y on at least j σ-values falls in a bucket
// the memo treats like bucket j, so comparing further cannot change its
// verdict.
func (ps *proberState) decisive() int {
	top := ps.hiIdx
	for top > 0 && ps.match[top-1] == ps.match[top] {
		top--
	}
	return top
}

// Prober precomputes for the fixed candidate y and returns a closure; the
// generation pipeline uses proberInit/proberEval directly to reuse state.
func (s *SeedSynthesizer) Prober(y dataset.Record) func(d dataset.Record) float64 {
	ps := new(proberState)
	s.proberInit(y, ps)
	return ps.proberEval
}

// MarginalSynthesizer is the baseline of §3.2: every attribute is sampled
// independently from its marginal distribution, ignoring the seed. Because
// generation is seed-independent, every record of the input dataset is an
// equally plausible seed and the privacy test always passes (§8).
type MarginalSynthesizer struct {
	// Model supplies the per-attribute marginal distributions.
	Model *bayesnet.Model
}

// NewMarginalSynthesizer wraps a model learned over MarginalStructure. It
// rejects models whose graph has edges, since then per-attribute sampling
// would not be marginal sampling.
func NewMarginalSynthesizer(model *bayesnet.Model) (*MarginalSynthesizer, error) {
	if model.Struct.Graph.NumEdges() != 0 {
		return nil, fmt.Errorf("core: marginal synthesizer requires an edgeless structure")
	}
	return &MarginalSynthesizer{Model: model}, nil
}

// Generate samples every attribute from its marginal; the seed is unused.
func (s *MarginalSynthesizer) Generate(_ dataset.Record, r *rng.RNG) dataset.Record {
	rec := make(dataset.Record, len(s.Model.Meta.Attrs))
	s.generateInto(rec, nil, r)
	return rec
}

// generateInto is Generate without the output allocation; the seed is
// unused. Like Model.SampleRecord it samples in σ order (which for an
// edgeless structure is just an attribute enumeration).
func (s *MarginalSynthesizer) generateInto(dst, _ dataset.Record, r *rng.RNG) {
	if f := s.Model.Frozen(); f != nil {
		for _, attr := range s.Model.Struct.Order {
			dst[attr] = f.SampleAttr(attr, dst, r)
		}
		return
	}
	for _, attr := range s.Model.Struct.Order {
		dst[attr] = s.Model.SampleAttr(attr, dst, r)
	}
}

// GenProb returns Π_i Pr{y_i}, independent of the seed.
func (s *MarginalSynthesizer) GenProb(y, _ dataset.Record) float64 {
	p := 1.0
	if f := s.Model.Frozen(); f != nil {
		for attr := range s.Model.Meta.Attrs {
			p *= f.CondProb(attr, y[attr], y)
		}
		return p
	}
	for attr := range s.Model.Meta.Attrs {
		p *= s.Model.CondProb(attr, y[attr], y)
	}
	return p
}

// proberInit fills the state with the constant seed-independent probability.
func (s *MarginalSynthesizer) proberInit(y dataset.Record, ps *proberState) {
	ps.constP = s.GenProb(y, nil)
}

// Prober returns a constant function: all seeds are equally plausible.
func (s *MarginalSynthesizer) Prober(y dataset.Record) func(d dataset.Record) float64 {
	p := s.GenProb(y, nil)
	return func(dataset.Record) float64 { return p }
}

// hotSynthesizer is the allocation-free fast path the generation pipeline
// takes when the synthesizer supports it: candidates are generated into a
// per-worker scratch record and probers reuse per-worker state, so steady
// state allocates only for records that actually pass the privacy test.
// Both methods must consume exactly the RNG state and produce exactly the
// values of their allocating counterparts — the determinism contract of
// GenerateCtx rides on it.
type hotSynthesizer interface {
	Synthesizer
	generateInto(dst, seed dataset.Record, r *rng.RNG)
	proberInit(y dataset.Record, ps *proberState)
}

var (
	_ Synthesizer    = (*SeedSynthesizer)(nil)
	_ Synthesizer    = (*MarginalSynthesizer)(nil)
	_ hotSynthesizer = (*SeedSynthesizer)(nil)
	_ hotSynthesizer = (*MarginalSynthesizer)(nil)
)
