package core

import (
	"fmt"
	"math"
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
	// partition). The count stops at the threshold or at MaxPlausible, and a
	// MaxCheckPlausible cap stops it after that many records, so it can be
	// an undercount of the full k'.
	PlausibleCount int
	// Checked is the number of input records the test read one at a time.
	// Only a MaxCheckPlausible cap in (0, |D|) makes the test walk the
	// seeds; otherwise it counts them exactly over the sorted seed table
	// (see ScanTable) and Checked is 0.
	Checked int
	// Threshold is the value k' was compared against: k for the
	// deterministic test, or the randomized k̃ for Privacy Test 2.
	Threshold float64
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
