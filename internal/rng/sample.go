package rng

import (
	"fmt"
	"math"
)

// This file provides the precomputed-table draw primitives behind the
// bayesnet conditional tables: exact cumulative-probability rows (with an
// optional guide index for O(1) expected draws) and Walker alias tables.
//
// The two have different contracts. DrawCum/DrawCumGuided compute the exact
// same u → index mapping as Categorical — first index i with
// u·total < cum[i], evaluated with the identical floating-point
// expressions — so a table-backed draw consumes the same RNG state and
// returns the same value as the linear scan it replaces. That is what lets
// the table-backed sampling path promise the bytes of a plain Categorical
// draw. A Walker alias table preserves the *distribution* but not
// the mapping (it repartitions [0,1) into equal columns), so it can never
// be substituted on a stream-determinism-pinned path; it is provided for
// workloads that only need distributional equality.

// errWeights is the shared validation for table builders: every weight must
// be finite and non-negative, and the total must be positive and finite.
// Unlike Categorical, which panics (its callers are trusted hot paths),
// builders return errors so that poisoned parameters — e.g. counts from a
// hostile snapshot that materialize to NaN or all-zero vectors — are
// rejected when a model is built or decoded instead of panicking a serving
// goroutine.
func errWeights(weights []float64) (total float64, err error) {
	if len(weights) == 0 {
		return 0, fmt.Errorf("rng: sampling table with no weights")
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, fmt.Errorf("rng: sampling table weight %d is %g", i, w)
		}
		total += w
	}
	if !(total > 0) {
		return 0, fmt.Errorf("rng: sampling table has zero total weight")
	}
	if math.IsInf(total, 0) {
		return 0, fmt.Errorf("rng: sampling table total weight overflows")
	}
	return total, nil
}

// BuildCum appends the running prefix sums of weights to dst (reusing its
// backing array) and returns the cumulative row. The sums are accumulated
// left to right, exactly as Categorical accumulates during its scan, so a
// DrawCum over the row reproduces Categorical(weights) bit for bit.
func BuildCum(weights, dst []float64) ([]float64, error) {
	if _, err := errWeights(weights); err != nil {
		return nil, err
	}
	cum := dst[:0]
	acc := 0.0
	for _, w := range weights {
		acc += w
		cum = append(cum, acc)
	}
	return cum, nil
}

// cumFallback mirrors Categorical's floating-point-slack fallback: the last
// index with positive weight (in cumulative terms, the last strictly
// increasing step).
func cumFallback(cum []float64) int {
	for i := len(cum) - 1; i > 0; i-- {
		if cum[i] > cum[i-1] {
			return i
		}
	}
	return 0
}

// DrawCum samples an index from the distribution whose exact prefix sums
// are cum (see BuildCum). It consumes one Float64 and returns precisely
// what Categorical would have returned over the original weights.
func (r *RNG) DrawCum(cum []float64) int {
	u := r.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return cumFallback(cum)
}

// GuideSlots returns the guide-table size for a cumulative row of length
// n: the smallest power of two at least twice the row length, so the
// expected scan per draw is below one step and the bucket index u·slots is
// exact (multiplying a float64 by a power of two never rounds).
func GuideSlots(n int) int {
	slots := 1
	for slots < 2*n {
		slots <<= 1
	}
	return slots
}

// BuildGuide appends a guide (cutpoint) index for the cumulative row to dst
// and returns it. guide[k] is the draw result for the smallest u in bucket
// k — a safe lower bound for every u in the bucket, because the u → index
// map is nondecreasing — so DrawCumGuided starts its scan there and
// terminates in O(1) expected steps whatever the row length.
func BuildGuide(cum []float64, dst []uint32) []uint32 {
	n := len(cum)
	slots := GuideSlots(n)
	total := cum[n-1]
	guide := dst[:0]
	i := 0
	for k := 0; k < slots; k++ {
		// The bucket's left edge, mapped exactly as DrawCumGuided maps u:
		// k/slots is exact (power-of-two divisor) and the single rounding in
		// ·total is monotone, so every u in the bucket lands at or after i.
		x := float64(k) / float64(slots) * total
		for i < n && cum[i] <= x {
			i++
		}
		if i == n {
			// x beyond the last sum (possible only by rounding dust): any
			// such draw takes the fallback; park the guide on the last row.
			i = n - 1
		}
		guide = append(guide, uint32(i))
	}
	return guide
}

// DrawCumGuided is DrawCum accelerated by a guide built with BuildGuide
// over the same row. It consumes one Float64 and returns exactly what
// DrawCum (and hence Categorical) would return.
func (r *RNG) DrawCumGuided(cum []float64, guide []uint32) int {
	u := r.Float64()
	x := u * cum[len(cum)-1]
	i := int(guide[int(u*float64(len(guide)))])
	for ; i < len(cum); i++ {
		if x < cum[i] {
			return i
		}
	}
	return cumFallback(cum)
}

// AliasTable is a Walker alias table: a distribution over n values
// repartitioned into n equal-width columns of [0, 1), each split between
// its own value and one alias, so a draw costs one uniform and at most one
// comparison regardless of n.
type AliasTable struct {
	prob  []float64 // acceptance threshold of column i, in [0, 1]
	alias []int32   // the column's other value
}

// NewAliasTable builds an alias table with Vose's O(n) construction. It
// returns an error for empty, negative, NaN, infinite or all-zero weights.
func NewAliasTable(weights []float64) (*AliasTable, error) {
	total, err := errWeights(weights)
	if err != nil {
		return nil, err
	}
	n := len(weights)
	t := &AliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	// Scaled weights: mean 1 per column.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers hold (up to rounding) exactly probability 1: they keep their
	// whole column. A zero-weight value can never be left over — it always
	// pairs with a large column and keeps threshold 0.
	for _, l := range large {
		t.prob[l] = 1
	}
	for _, s := range small {
		t.prob[s] = 1
	}
	return t, nil
}

// Len returns the number of values the table samples over.
func (t *AliasTable) Len() int { return len(t.prob) }

// DrawAlias samples an index from the alias table, consuming one Float64:
// the integer part picks the column, the fractional part picks between the
// column's own value and its alias.
func (r *RNG) DrawAlias(t *AliasTable) int {
	x := r.Float64() * float64(len(t.prob))
	i := int(x)
	if x-float64(i) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
