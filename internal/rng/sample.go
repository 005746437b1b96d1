package rng

import (
	"fmt"
	"math"
)

// This file provides the precomputed-table draw primitives behind the
// bayesnet conditional tables: exact cumulative-probability rows, with an
// optional guide index for O(1) expected draws.
//
// DrawCum/DrawCumGuided compute the exact same u → index mapping as
// Categorical — first index i with u·total < cum[i], evaluated with the
// identical floating-point expressions — so a table-backed draw consumes
// the same RNG state and returns the same value as the linear scan it
// replaces. That is what lets the table-backed sampling path promise the
// bytes of a plain Categorical draw.

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
