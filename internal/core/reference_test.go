package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// The reference implementation of the privacy test: the straightforward
// per-record walk over every seed that the generation kernel (onceFast,
// runTestFast and the sorted ScanTable) is pinned against. It lives in a
// test file so that production code has one privacy-test implementation,
// the kernel; core's tests keep it as their oracle.

// referenceOnce runs one iteration of Mechanism 1 through the reference
// path: it draws the seed, allocates and generates the candidate, and runs
// RunTest. It consumes the RNG exactly as Mechanism.Once does.
func referenceOnce(m *Mechanism, r *rng.RNG) (dataset.Record, TestResult, bool) {
	seed := m.Seeds.Row(r.Intn(m.Seeds.Len()))
	y := make(dataset.Record, len(seed))
	m.Synth.GenerateInto(y, seed, r)
	res, err := RunTest(m.Synth, m.Seeds, seed, y, m.Test, r)
	if err != nil {
		// Config was validated at construction; an error here means the
		// dataset emptied underneath us, which is a programming error.
		panic(err)
	}
	return y, res, res.Pass
}

// RunTest executes Privacy Test 1 (deterministic) or Privacy Test 2
// (randomized) on the tuple (M, D, d, y, k, γ[, ε0]). It is the reference
// implementation the generation kernel's test is pinned against.
//
// Records of D are scanned in a pseudo-random cyclic order (random start
// and coprime stride), matching the tool's randomized iteration (§5), and
// the scan stops early once the threshold is met, MaxPlausible plausible
// seeds are found, or MaxCheckPlausible records have been examined.
func RunTest(syn Synthesizer, data *dataset.Dataset, seed, y dataset.Record, cfg TestConfig, r *rng.RNG) (TestResult, error) {
	if err := cfg.Validate(); err != nil {
		return TestResult{}, err
	}
	n := data.Len()
	if n == 0 {
		return TestResult{}, fmt.Errorf("core: privacy test on empty dataset")
	}

	var probe Probe
	syn.Probe(y, &probe)
	res := TestResult{SeedProb: probe.Prob(seed)}

	// Step 1/2 of the tests: the partition of the actual seed.
	part, ok := PartitionIndex(res.SeedProb, cfg.Gamma)
	if !ok {
		// The seed could not have generated y at all; reject outright.
		res.Threshold = float64(cfg.K)
		return res, nil
	}
	res.Partition = part

	// Threshold: k, or k̃ = k + Lap(1/ε0) for the randomized test.
	res.Threshold = float64(cfg.K)
	if cfg.Randomized {
		res.Threshold += r.Laplace(1 / cfg.Eps0)
	}

	maxCheck := n
	if cfg.MaxCheckPlausible > 0 && cfg.MaxCheckPlausible < n {
		maxCheck = cfg.MaxCheckPlausible
	}
	maxPlausible := math.MaxInt
	if cfg.MaxPlausible > 0 {
		maxPlausible = cfg.MaxPlausible
	}

	// Pseudo-random cyclic scan: start anywhere, step by a stride coprime
	// with n so that every record is visited exactly once.
	start := r.Intn(n)
	stride := 1
	if n > 2 {
		stride = coprimeStride(1+r.Intn(n-1), n)
	}

	idx := start
	for res.Checked < maxCheck {
		da := data.Row(idx)
		res.Checked++
		if p := probe.Prob(da); p > 0 {
			if i, ok := PartitionIndex(p, cfg.Gamma); ok && i == part {
				res.PlausibleCount++
				if float64(res.PlausibleCount) >= res.Threshold || res.PlausibleCount >= maxPlausible {
					break
				}
			}
		}
		idx += stride
		if idx >= n {
			idx -= n
		}
	}

	res.Pass = float64(res.PlausibleCount) >= res.Threshold
	return res, nil
}

// CountPlausibleSeeds exhaustively counts records of D in the same
// γ-partition as probability p for candidate y — the quantity k' of the
// privacy tests without any early exit. It is primarily a test and
// diagnostics helper.
func CountPlausibleSeeds(syn Synthesizer, data *dataset.Dataset, y dataset.Record, p, gamma float64) int {
	part, ok := PartitionIndex(p, gamma)
	if !ok {
		return 0
	}
	var probe Probe
	syn.Probe(y, &probe)
	count := 0
	for _, da := range data.Rows() {
		if q := probe.Prob(da); q > 0 {
			if i, ok := PartitionIndex(q, gamma); ok && i == part {
				count++
			}
		}
	}
	return count
}

// IsPlausiblyDeniable verifies Definition 1 directly: it reports whether
// there exist at least k records of D (including one occurrence of the
// seed) whose generation probabilities for y lie pairwise within a factor
// γ. This is an independent check of the criterion the privacy tests
// enforce — the tests are sufficient for it, never necessary — and is used
// by the property-based test suite.
func IsPlausiblyDeniable(syn Synthesizer, data *dataset.Dataset, seed, y dataset.Record, k int, gamma float64) bool {
	if k < 1 || gamma < 1 {
		return false
	}
	var probe Probe
	syn.Probe(y, &probe)
	p1 := probe.Prob(seed)
	if p1 <= 0 {
		return false
	}
	probs := make([]float64, 0, data.Len())
	for _, da := range data.Rows() {
		if p := probe.Prob(da); p > 0 {
			probs = append(probs, p)
		}
	}
	if len(probs) < k {
		return false
	}
	sort.Float64s(probs)
	// Two-pointer sweep: find a window [lo, hi] with probs[hi] ≤ γ·probs[lo],
	// size ≥ k, containing the value p1.
	lo := 0
	for hi := 0; hi < len(probs); hi++ {
		for probs[hi] > gamma*probs[lo] {
			lo++
		}
		if hi-lo+1 >= k && probs[lo] <= p1 && p1 <= probs[hi] {
			return true
		}
	}
	return false
}
