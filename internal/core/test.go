package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// PartitionIndex returns the geometric partition number of a generation
// probability p with respect to γ: the unique integer i ≥ 0 with
//
//	γ^(−i−1) < p ≤ γ^(−i)
//
// (Privacy Test 1, step 1). The boolean result is false when p ≤ 0, in
// which case the record cannot be a plausible seed. Probabilities slightly
// above 1 (floating-point dust) are clamped into partition 0.
func PartitionIndex(p, gamma float64) (int, bool) {
	return partitionIndexLog(p, math.Log(gamma))
}

// partitionIndexLog is PartitionIndex with log γ precomputed: the hot path
// evaluates it once per run instead of once per bucket. math.Log is a pure
// function, so the division sees the identical float64 and the result is
// bit-identical.
func partitionIndexLog(p, logGamma float64) (int, bool) {
	if p <= 0 || math.IsNaN(p) {
		return 0, false
	}
	if p >= 1 {
		return 0, true
	}
	i := int(math.Floor(-math.Log(p) / logGamma))
	if i < 0 {
		i = 0
	}
	return i, true
}

// TestConfig parameterizes the privacy test of Mechanism 1.
type TestConfig struct {
	// K is the plausible deniability parameter k ≥ 1: the minimum number of
	// records that must be plausible seeds of a released record.
	K int
	// Gamma is the indistinguishability parameter γ > 1 of Definition 1.
	Gamma float64
	// Randomized selects Privacy Test 2: the threshold k is perturbed with
	// Lap(1/ε0) noise, which makes the overall mechanism
	// (ε0 + ln(1+γ/t), e^(−ε0(k−t)))-differentially private (Theorem 1).
	// When false, the deterministic Privacy Test 1 runs.
	Randomized bool
	// Eps0 is the randomization parameter ε0 (required when Randomized).
	Eps0 float64
	// MaxPlausible, when positive, caps the plausible-seed count at this
	// many (the tool's max_plausible knob, §5). The generation pipeline
	// counts seeds exactly in O(m log n), so the cap buys no speed there; it
	// only costs utility, never privacy. It must be ≥ K to avoid rejecting
	// every candidate; with the randomized test it should be comfortably
	// above K (the paper uses 2k) because the noisy threshold k̃ can exceed
	// K, and counts capped at MaxPlausible < k̃ fail.
	MaxPlausible int
	// MaxCheckPlausible, when in (0, |D|), bounds how many records of the
	// input dataset are examined (the tool's max_check_plausible knob, §5).
	// Which records a truncated count examines is observable, so such a cap
	// selects the per-record walk, whose cost is linear in the cap; 0 or a
	// value ≥ |D| selects the exact count.
	MaxCheckPlausible int
}

// Validate checks the parameter constraints of §2.
func (c TestConfig) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: privacy test needs k >= 1, got %d", c.K)
	}
	if c.Gamma <= 1 {
		return fmt.Errorf("core: privacy test needs gamma > 1, got %g", c.Gamma)
	}
	if c.Randomized && c.Eps0 <= 0 {
		return fmt.Errorf("core: randomized privacy test needs eps0 > 0, got %g", c.Eps0)
	}
	if c.MaxPlausible > 0 && c.MaxPlausible < c.K {
		return fmt.Errorf("core: max_plausible %d < k %d would reject everything", c.MaxPlausible, c.K)
	}
	return nil
}

// TestResult reports the outcome of one privacy-test invocation.
type TestResult struct {
	// Pass is true when the candidate may be released.
	Pass bool
	// SeedProb is Pr{y = M(d)} for the actual seed.
	SeedProb float64
	// Partition is the geometric partition index i of the seed probability.
	Partition int
	// PlausibleCount is the number k' of plausible seeds found (records of
	// the input dataset whose generation probability falls in the seed's
	// partition). Early exits can leave this an undercount.
	PlausibleCount int
	// Checked is the number of input records the walk read one at a time.
	// RunTest always walks; the generation pipeline walks only under a
	// MaxCheckPlausible cap in (0, |D|) and otherwise counts exactly,
	// leaving Checked 0.
	Checked int
	// Threshold is the value k' was compared against: k for the
	// deterministic test, or the randomized k̃ for Privacy Test 2.
	Threshold float64
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

// coprimeStride resolves a drawn stride to the cyclic walk's: it steps
// forward (wrapping past n to 1) until the stride is coprime with n, so the
// walk visits every record exactly once.
func coprimeStride(s, n int) int {
	for gcd(s, n) != 1 {
		s++
		if s >= n {
			s = 1
		}
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
