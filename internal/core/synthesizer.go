// Package core implements the paper's primary contribution: plausible
// deniability as a privacy criterion for data synthesis (§2).
//
// It provides the seed-based generative synthesis of §3.2 with exact
// generation probabilities Pr{y = M(d)}, the (k, γ)-plausible deniability
// criterion of Definition 1, the deterministic Privacy Test 1 and the
// randomized Privacy Test 2 (whose composition with Mechanism 1 is
// (ε, δ)-differentially private by Theorem 1), Mechanism 1 itself, and an
// embarrassingly parallel generation pipeline mirroring the tool of §5.
package core

import (
	"fmt"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// Synthesizer is a probabilistic generative model M that transforms a seed
// record into a synthetic record, with computable generation probabilities.
// Its two methods are all Mechanism 1 needs, and the generation kernel
// calls both once per candidate on per-worker buffers. Both must be
// deterministic — the same inputs and RNG state give the same candidate and
// the same probabilities — since the determinism contract of GenerateCtx
// rides on it.
type Synthesizer interface {
	// GenerateInto overwrites dst, one entry per attribute, with a synthetic
	// record y = M(seed) drawn from r.
	GenerateInto(dst, seed dataset.Record, r *rng.RNG)
	// Probe fills p for the candidate y, after which p.Prob(d) returns
	// Pr{y = M(d)} for any seed d. Implementations precompute there
	// whatever makes evaluation over many seeds (the privacy test's
	// plausible-seed count) cheap; a model whose generation ignores the
	// seed calls p.SetConstant. The probe may keep a reference to y.
	Probe(y dataset.Record, p *Probe)
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

// GenerateInto implements eq. (3): it copies the seed into dst, then
// re-samples the last ω attributes in σ order, each conditioned on the
// current (partially updated) record (bayesnet.Model.SampleChain).
func (s *SeedSynthesizer) GenerateInto(dst, seed dataset.Record, r *rng.RNG) {
	omega := s.OmegaLo + r.Intn(s.OmegaHi-s.OmegaLo+1)
	copy(dst, seed)
	s.Model.SampleChain(dst, s.Model.Struct.Order, len(seed)-omega, r)
}

// Probe holds a Synthesizer's precomputation for one candidate y, so that
// Pr{y = M(d)} costs little for each of the many seeds d the privacy test
// prices. A Synthesizer fills it and Prob reads it. The generation kernel
// reuses one Probe per worker, so refilling it allocates nothing in steady
// state; a Probe is owned by a single goroutine.
type Probe struct {
	y     dataset.Record
	order []int
	// tail[idx] = Π_{u=idx..m-1} Pr{y_σ(u) | y}; tail[m] = 1.
	tail []float64
	// cum[j] = Σ_{idx=loIdx..j} tail[idx] for j in [loIdx, hiIdx].
	cum          []float64
	loIdx, hiIdx int
	weight       float64
	// constP, when ≥ 0, short-circuits evaluation to a seed-independent
	// probability (see SetConstant).
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

// SetConstant fills the probe with a seed-independent probability: Prob
// returns prob for every seed. It is the one setter a model whose
// generation ignores the seed needs, and the privacy test then counts
// plausible seeds in O(1). A negative or NaN prob is stored as 0, which
// makes no seed plausible.
func (ps *Probe) SetConstant(prob float64) {
	if !(prob >= 0) {
		prob = 0
	}
	ps.constP = prob
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Probe precomputes Pr{y = M(d)} exactly. For a fixed ω the probability
// factorizes as
//
//	[d and y agree on σ(1..m−ω)] · Π_{i>m−ω} Pr{y_σ(i) | parents(y)}
//
// because the copied attributes equal the seed's values and every
// re-sampled conditional reads only attributes earlier in σ, whose values
// in the partially updated record coincide with y's. For a random ω the
// probability is the uniform mixture over the range, so different seeds —
// agreeing with y on different σ-prefixes — genuinely fall into different
// γ-partitions of the privacy test.
//
// The probe keeps the conditional tail products and their partial mixture
// sums, so each seed evaluation costs one σ-prefix comparison plus a table
// lookup.
func (s *SeedSynthesizer) Probe(y dataset.Record, ps *Probe) {
	m := len(y)
	order := s.Model.Struct.Order
	ps.y, ps.order, ps.constP = y, order, -1
	ps.tail = grow(ps.tail, m+1)
	s.Model.TailProducts(y, order, ps.tail)
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
func (ps *Probe) agreeBucket(d dataset.Record) int {
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

// Prob returns Pr{y = M(d)} for the candidate y the probe was filled for.
func (ps *Probe) Prob(d dataset.Record) float64 {
	if ps.constP >= 0 {
		return ps.constP
	}
	j := ps.agreeBucket(d)
	if j < 0 {
		return 0
	}
	return ps.weight * ps.cum[j]
}

// initPartitions memoizes, for every value the probe can return, whether
// it lies in partition `part` — the privacy test's count then needs no
// logarithms at all. The memo feeds the exact probability values Prob
// would produce through the same PartitionIndex, so the decisions are
// bit-identical to testing each record individually.
func (ps *Probe) initPartitions(part int, logGamma float64) {
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
func (ps *Probe) decisive() int {
	top := ps.hiIdx
	for top > 0 && ps.match[top-1] == ps.match[top] {
		top--
	}
	return top
}

var _ Synthesizer = (*SeedSynthesizer)(nil)
