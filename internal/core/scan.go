package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// The privacy test's plausible-seed count is the hot path's hot path. For
// the seed synthesizer, Pr{y = M(d)} depends on a seed d only through its
// agreement bucket with the candidate y (see Probe.agreeBucket): the
// length of the σ-prefix d shares with y, clamped to [loIdx, hiIdx]. With
// the seeds sorted lexicographically in σ order, the A_j seeds sharing y's
// first j σ-values form one contiguous row range, which two binary searches
// per σ-column narrow down. Bucket j < hiIdx holds A_j − A_{j+1} seeds and
// bucket hiIdx holds A_hiIdx, so the test's count is the sum of the buckets
// the partition memo matches: exact, in O(m log n) per candidate instead of
// a walk over all n seeds.
//
// Only a capped test (MaxCheckPlausible in (0, n)) still walks the seeds:
// which seeds a truncated walk visits is observable in its count, so it
// follows the reference path's pseudo-random cyclic order. It looks each
// seed up in the same sorted table through rank and decides it by the
// prefix range its sorted row falls in, without reading the row.

// ScanTable is an immutable, shareable index of one (seed dataset, σ order)
// pair: the seeds re-laid in σ order and sorted. Building one costs
// O(n·m); serving layers cache it per fitted model (see
// sgf.FittedModel) and attach it to each Mechanism via the Scan field so
// per-request runs skip the rebuild.
type ScanTable struct {
	n, width int
	// rows holds the seeds sorted lexicographically in σ order: sorted row
	// s occupies rows[s*width : (s+1)*width], position k holding that
	// seed's value of attribute order[k].
	rows []uint16
	// rank maps a seed's index in the dataset to its sorted row.
	rank []int32
}

// NewScanTable builds the sorted seed table for the dataset under the given
// attribute order (the synthesizer's σ). The dataset and order are read
// once and not retained.
func NewScanTable(data *dataset.Dataset, order []int) *ScanTable {
	n, m := data.Len(), len(order)
	// cols holds the seeds column by column in σ order — σ-position k at
	// cols[k*n : (k+1)*n] — so each radix pass below reads one small
	// column; card[k] bounds the values at σ-position k.
	cols, card := make([]uint16, m*n), make([]int, m)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for k, attr := range order {
			cols[k*n+i] = row[attr]
			card[k] = max(card[k], int(row[attr])+1)
		}
	}
	// LSD radix sort: stable counting sorts by σ-position, last to first,
	// leave idx in lexicographic σ order.
	perm := make([]int32, 2*n)
	idx, tmp := perm[:n], perm[n:]
	for i := range idx {
		idx[i] = int32(i)
	}
	starts := make([]int, slices.Max(card)+1)
	for k := m - 1; k >= 0; k-- {
		col, at := cols[k*n:(k+1)*n], starts[:card[k]+1]
		clear(at)
		for _, v := range col {
			at[v+1]++
		}
		for v := 1; v < len(at); v++ {
			at[v] += at[v-1]
		}
		for _, i := range idx {
			v := col[i]
			tmp[at[v]] = i
			at[v]++
		}
		idx, tmp = tmp, idx
	}
	t := &ScanTable{n: n, width: m, rows: make([]uint16, n*m), rank: make([]int32, n)}
	for s, i := range idx {
		for k := range order {
			t.rows[s*m+k] = cols[k*n+int(i)]
		}
		t.rank[i] = int32(s)
	}
	return t
}

// ScanTableFor builds the sorted seed table for a synthesizer over its seed
// dataset, keyed on the σ order the seed synthesizer's probe compares seeds
// along. It returns nil for any other synthesizer (e.g. the marginal
// backend, whose constant probe needs none: its count is computed
// analytically).
func ScanTableFor(syn Synthesizer, seeds *dataset.Dataset) *ScanTable {
	s, ok := syn.(*SeedSynthesizer)
	if !ok {
		return nil
	}
	return NewScanTable(seeds, s.Model.Struct.Order)
}

// countPlausible returns the exact number of seeds whose agreement bucket
// with the probe's candidate the partition memo matches.
func (t *ScanTable) countPlausible(ps *Probe) int {
	top := ps.decisive()
	r := t.prefixRanges(ps, top)
	total, shared := 0, t.n
	for j := 0; j < top; j++ {
		// Of the A_j seeds sharing y's first j σ-values, those not sharing
		// the next one agree on exactly j, i.e. fall in bucket j.
		if ps.match[j] {
			total += shared - r[2*j+1]
		}
		shared = r[2*j+1]
	}
	// The A_top seeds left all fall in buckets [top, hiIdx], which the memo
	// treats alike.
	if ps.match[top] {
		total += shared
	}
	return total
}

// prefixRanges fills ps.ranges with the sorted rows holding the seeds that
// share y's first j σ-values, as (first row, row count) pairs for j = 1 …
// top. The rows sharing j values are sorted by σ-position j, so each range
// narrows the previous one by two binary searches.
func (t *ScanTable) prefixRanges(ps *Probe, top int) []int {
	if cap(ps.ranges) < 2*top {
		ps.ranges = make([]int, 0, 2*ps.hiIdx)
	}
	r := ps.ranges[:0]
	lo, hi := 0, t.n
	for j := 0; j < top; j++ {
		if lo < hi {
			lo, hi = t.narrow(j, ps.y[ps.order[j]], lo, hi)
		}
		r = append(r, lo, hi-lo)
	}
	ps.ranges = r
	return r
}

// narrow returns the part of the sorted row range [lo, hi) whose σ-position
// k holds v, where [lo, hi) shares its first k σ-values.
func (t *ScanTable) narrow(k int, v uint16, lo, hi int) (int, int) {
	col, w := t.rows[k:], t.width
	first := lo
	for b := hi; first < b; {
		mid := int(uint(first+b) >> 1)
		if col[mid*w] < v {
			first = mid + 1
		} else {
			b = mid
		}
	}
	end := first
	for b := hi; end < b; {
		mid := int(uint(end+b) >> 1)
		if col[mid*w] <= v {
			end = mid + 1
		} else {
			b = mid
		}
	}
	return first, end
}

// walk is the capped test's per-record walk: it visits up to maxCheck seeds
// in RunTest's cyclic order (start, start+stride, … mod n) and stops at
// breakAt plausible ones. A seed's verdict follows from its sorted row,
// looked up through rank: going down the nested prefix ranges, the verdict
// starts at match[0] and flips at every range where the memo changes, so
// it is match[0] XOR the parity of the flipping ranges holding the row.
func (t *ScanTable) walk(ps *Probe, maxCheck, breakAt, start, stride int) (checked, count int) {
	top := ps.decisive()
	r := t.prefixRanges(ps, top)
	flips := r[:0]
	for j := 0; j < top; j++ {
		if ps.match[j] != ps.match[j+1] {
			flips = append(flips, r[2*j], r[2*j+1])
		}
	}
	// Most memos flip once; that range is tested inline, any others in the
	// loop below it. With no flip, the empty range (0, 0) holds no row.
	var lo, size uint
	if len(flips) > 0 {
		lo, size, flips = uint(flips[0]), uint(flips[1]), flips[2:]
	}
	v0, rank, n := ps.match[0], t.rank, t.n
	// The countdowns keep the loop's live values few enough for registers.
	left, need := maxCheck, breakAt
	for idx := start; left > 0; {
		left--
		s := uint(rank[idx])
		v := v0 != (s-lo < size)
		for k := 1; k < len(flips); k += 2 {
			v = v != (s-uint(flips[k-1]) < uint(flips[k]))
		}
		if v {
			need--
		}
		if need == 0 {
			break
		}
		idx += stride
		if idx >= n {
			idx -= n
		}
	}
	return maxCheck - left, breakAt - need
}

// testPre is the per-run precomputation of the privacy test: parameters
// validated once and limits resolved once, instead of per candidate.
type testPre struct {
	n, maxCheck, maxPlausible, k int
	logGamma, eps0               float64
	randomized                   bool
}

// newTestPre validates the mechanism's test configuration and resolves the
// count limits for its seed dataset.
func newTestPre(m *Mechanism) (testPre, error) {
	if err := m.Test.Validate(); err != nil {
		return testPre{}, err
	}
	n := m.Seeds.Len()
	if n == 0 {
		return testPre{}, fmt.Errorf("core: privacy test on empty dataset")
	}
	pre := testPre{
		n:            n,
		maxCheck:     n,
		maxPlausible: math.MaxInt,
		k:            m.Test.K,
		logGamma:     math.Log(m.Test.Gamma),
		eps0:         m.Test.Eps0,
		randomized:   m.Test.Randomized,
	}
	if c := m.Test.MaxCheckPlausible; c > 0 && c < n {
		pre.maxCheck = c
	}
	if p := m.Test.MaxPlausible; p > 0 {
		pre.maxPlausible = p
	}
	return pre, nil
}

// runTestFast is the generation kernel's privacy test: identical RNG
// consumption, decisions, PlausibleCount and Threshold as RunTest over the
// same probe. The seed's partition and threshold are computed as in
// RunTest and the partition is memoized per agreement bucket (see
// initPartitions), so no seed needs a float. Three shapes:
//
//   - constant probe: every seed matches or none does — the count is
//     computed analytically in O(1).
//   - capped (MaxCheckPlausible in (0, n)): the per-record walk over the
//     sorted table, in RunTest's visit order.
//   - uncapped: the exact bucket count; Checked stays 0.
//
// An uncapped walk visits every seed unless it stops at breakAt matches,
// so its count is min(total, breakAt) whatever the visit order.
func runTestFast(ps *Probe, st *ScanTable, pre *testPre, seed dataset.Record, r *rng.RNG) TestResult {
	res := TestResult{SeedProb: ps.Prob(seed), Threshold: float64(pre.k)}

	part, ok := partitionIndexLog(res.SeedProb, pre.logGamma)
	if !ok {
		return res
	}
	res.Partition = part
	if pre.randomized {
		res.Threshold += r.Laplace(1 / pre.eps0)
	}

	ps.initPartitions(part, pre.logGamma)

	// breakAt is the integer form of the walk's two exit conditions: the
	// count is an int, so count ≥ threshold ⟺ count ≥ ⌈threshold⌉. The
	// threshold is clamped before the ceil so an extreme Laplace draw can
	// not overflow the conversion; a threshold below 1 exits on the first
	// plausible record exactly as the float compare did.
	breakAt := pre.maxPlausible
	if t := res.Threshold; t < float64(breakAt) {
		if t < 1 {
			breakAt = 1
		} else if c := int(math.Ceil(t)); c < breakAt {
			breakAt = c
		}
	}

	// The cyclic walk's draws happen unconditionally, in the exact order of
	// the reference path; resolving the stride consumes no RNG, so only the
	// walk does it.
	n, maxCheck := pre.n, pre.maxCheck
	start := r.Intn(n)
	stride := 1
	if n > 2 {
		stride = 1 + r.Intn(n-1)
	}

	capped := maxCheck < n
	switch {
	case ps.constP >= 0:
		// Constant probe: replaying the walk analytically, every visit
		// checks one seed, a match increments the count, and the walk stops
		// at breakAt matches or maxCheck visits.
		if ps.constMatch {
			res.PlausibleCount = min(breakAt, maxCheck)
		}
		if capped {
			res.Checked = maxCheck
			if ps.constMatch {
				res.Checked = res.PlausibleCount
			}
		}
	case capped:
		res.Checked, res.PlausibleCount = st.walk(ps, maxCheck, breakAt, start, coprimeStride(stride, n))
	default:
		res.PlausibleCount = min(st.countPlausible(ps), breakAt)
	}

	res.Pass = float64(res.PlausibleCount) >= res.Threshold
	return res
}
