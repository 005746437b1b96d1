// Package privacy implements the differential privacy machinery the paper's
// generative framework builds on: the Laplace mechanism, the sensitivity
// bound for empirical entropy (Lemma 1 / eq. 9), the composition theorems of
// Appendix A, and the (ε, δ) budget of the plausible deniability mechanism
// itself (Theorem 1).
package privacy

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// The float64() conversions around products round them before the add,
// which the Go spec defines as forbidding a fused multiply-add, so an arm64
// build computes the same values as an amd64 one.

// Budget is an (ε, δ)-differential privacy guarantee.
type Budget struct {
	Epsilon float64
	Delta   float64
}

// String renders the budget.
func (b Budget) String() string {
	return fmt.Sprintf("(ε=%.4g, δ=%.3g)", b.Epsilon, b.Delta)
}

// Add composes two independent guarantees sequentially: ε and δ sum (basic
// composition, Theorem 4 of Appendix A). The serving layer uses it to total
// a tenant's lifetime spend across releases made with different mechanism
// parameters, where the homogeneous composition theorems do not apply.
func (b Budget) Add(o Budget) Budget {
	return Budget{Epsilon: b.Epsilon + o.Epsilon, Delta: b.Delta + o.Delta}
}

// Within reports whether the guarantee fits inside a budget cap: both ε and
// δ at or under the cap.
func (b Budget) Within(maxEps, maxDelta float64) bool {
	return b.Epsilon <= maxEps && b.Delta <= maxDelta
}

// Laplace applies the Laplace mechanism: it returns value + Lap(sens/eps).
// This is Theorem 3.6 of Dwork–Roth, used throughout §3.3.1 and §3.4.1.
// It panics if sens or eps is non-positive.
func Laplace(r *rng.RNG, value, sens, eps float64) float64 {
	if sens <= 0 {
		panic("privacy: Laplace mechanism with non-positive sensitivity")
	}
	if eps <= 0 {
		panic("privacy: Laplace mechanism with non-positive epsilon")
	}
	return value + r.Laplace(sens/eps)
}

// LaplaceNonNegative applies the Laplace mechanism and clamps the result at
// zero, as done for the CPT counts of eq. (14): ñ = max(0, n + Lap(1/εp)).
func LaplaceNonNegative(r *rng.RNG, value, sens, eps float64) float64 {
	v := Laplace(r, value, sens, eps)
	if v < 0 {
		return 0
	}
	return v
}

// EntropySensitivity returns the L1 sensitivity bound of Lemma 1 for the
// empirical entropy of a distribution estimated from n records:
//
//	ΔH ≤ (2 + 1/ln 2 + 2·log2 n) / n
//
// It panics if n < 1.
func EntropySensitivity(n float64) float64 {
	if n < 1 {
		panic("privacy: EntropySensitivity with n < 1")
	}
	return (2 + 1/math.Ln2 + 2*math.Log2(n)) / n
}

// SequentialComposition composes mechanisms run on the same dataset
// (Theorem 2 / Dwork–Roth 3.16): epsilons and deltas add.
func SequentialComposition(parts ...Budget) Budget {
	var out Budget
	for _, p := range parts {
		out.Epsilon += p.Epsilon
		out.Delta += p.Delta
	}
	return out
}

// AdvancedComposition composes k runs of an (eps, delta)-DP mechanism with
// slack deltaSlack (Theorem 3 / Dwork–Roth 3.20):
//
//	ε' = ε·√(2k·ln(1/δ″)) + k·ε·(e^ε − 1),   δ' = k·δ + δ″
//
// It panics if k < 1 or deltaSlack is not in (0, 1).
func AdvancedComposition(k int, eps, delta, deltaSlack float64) Budget {
	if k < 1 {
		panic("privacy: AdvancedComposition with k < 1")
	}
	if deltaSlack <= 0 || deltaSlack >= 1 {
		panic("privacy: AdvancedComposition needs deltaSlack in (0,1)")
	}
	kf := float64(k)
	return Budget{
		Epsilon: float64(eps*math.Sqrt(2*kf*math.Log(1/deltaSlack))) + float64(kf*eps*(math.Expm1(eps))),
		Delta:   float64(kf*delta) + deltaSlack,
	}
}

// ReleaseBudget returns the per-record (ε, δ) guarantee of Theorem 1 for
// Mechanism 1 with the randomized privacy test:
//
//	δ = e^(−ε0·(k−t)),   ε = ε0 + ln(1 + γ/t)
//
// for an integer trade-off parameter 1 ≤ t < k. It panics on parameter
// violations (k ≥ 1, γ > 1, ε0 > 0 are required by the theorem).
func ReleaseBudget(k int, gamma, eps0 float64, t int) Budget {
	if k < 1 {
		panic("privacy: ReleaseBudget with k < 1")
	}
	if gamma <= 1 {
		panic("privacy: ReleaseBudget with gamma <= 1")
	}
	if eps0 <= 0 {
		panic("privacy: ReleaseBudget with eps0 <= 0")
	}
	if t < 1 || t >= k {
		panic("privacy: ReleaseBudget needs 1 <= t < k")
	}
	return Budget{
		Epsilon: eps0 + math.Log1p(gamma/float64(t)),
		Delta:   math.Exp(-eps0 * float64(k-t)),
	}
}

// BestReleaseBudget searches the trade-off parameter t of Theorem 1 for the
// smallest ε whose δ does not exceed maxDelta. The boolean result is false
// if no t ∈ [1, k) achieves the δ target.
func BestReleaseBudget(k int, gamma, eps0, maxDelta float64) (Budget, int, bool) {
	best := Budget{Epsilon: math.Inf(1)}
	bestT := 0
	for t := 1; t < k; t++ {
		b := ReleaseBudget(k, gamma, eps0, t)
		if b.Delta <= maxDelta && b.Epsilon < best.Epsilon {
			best, bestT = b, t
		}
	}
	if bestT == 0 {
		return Budget{}, 0, false
	}
	return best, bestT, true
}

// MinKForDelta returns the smallest k such that some t ∈ [1, k) makes
// δ = e^(−ε0·(k−t)) ≤ maxDelta; this is the "k ≥ t + (c/ε0)·ln n" guidance
// below Theorem 1, solved exactly. It panics on non-positive arguments.
func MinKForDelta(eps0, maxDelta float64, t int) int {
	if eps0 <= 0 || maxDelta <= 0 || maxDelta >= 1 {
		panic("privacy: MinKForDelta needs eps0 > 0 and maxDelta in (0,1)")
	}
	if t < 1 {
		panic("privacy: MinKForDelta needs t >= 1")
	}
	// e^(−ε0 (k−t)) ≤ δ  ⇔  k ≥ t + ln(1/δ)/ε0.
	k := t + int(math.Ceil(math.Log(1/maxDelta)/eps0))
	if k <= t {
		k = t + 1
	}
	return k
}

// Accountant tracks the privacy budget spent by a sequence of releases from
// the same input dataset, composing them sequentially. It is the bookkeeping
// device suggested in §8 for extending the single-record guarantee of
// Theorem 1 to whole synthetic datasets.
type Accountant struct {
	items []item
}

type item struct {
	label  string
	budget Budget
	count  int
}

// Spend records that a mechanism with the given per-invocation budget was
// invoked count times.
func (a *Accountant) Spend(label string, b Budget, count int) {
	if count <= 0 {
		return
	}
	a.items = append(a.items, item{label: label, budget: b, count: count})
}

// Total returns the sequentially composed budget of everything spent.
func (a *Accountant) Total() Budget {
	var out Budget
	for _, it := range a.items {
		out.Epsilon += float64(it.budget.Epsilon * float64(it.count))
		out.Delta += float64(it.budget.Delta * float64(it.count))
	}
	return out
}

// TotalAdvanced returns the advanced-composition budget for the common case
// where every item shares the same per-invocation budget; if budgets differ,
// it falls back to sequential composition. deltaSlack is the δ″ slack term.
func (a *Accountant) TotalAdvanced(deltaSlack float64) Budget {
	if len(a.items) == 0 {
		return Budget{}
	}
	first := a.items[0].budget
	n := 0
	for _, it := range a.items {
		if it.budget != first {
			return a.Total()
		}
		n += it.count
	}
	return AdvancedComposition(n, first.Epsilon, first.Delta, deltaSlack)
}

// Items returns a human-readable ledger of the spend history.
func (a *Accountant) Items() []string {
	out := make([]string, len(a.items))
	for i, it := range a.items {
		out[i] = fmt.Sprintf("%s ×%d %s", it.label, it.count, it.budget)
	}
	return out
}

// StructureLearningBudget composes the structure-learning spend of §3.5:
// m(m+1) noisy entropies at epsH each (advanced composition with slack
// deltaL) plus the noisy record count at epsN (sequential).
func StructureLearningBudget(m int, epsH, epsN, deltaL float64) Budget {
	if m < 1 {
		panic("privacy: StructureLearningBudget with m < 1")
	}
	entropies := AdvancedComposition(m*(m+1), epsH, 0, deltaL)
	return SequentialComposition(entropies, Budget{Epsilon: epsN})
}

// ParameterLearningBudget composes the parameter-learning spend of §3.5:
// per-attribute count vectors have L1 sensitivity 1, composed over the m
// attributes with advanced composition and slack deltaP.
func ParameterLearningBudget(m int, epsP, deltaP float64) Budget {
	if m < 1 {
		panic("privacy: ParameterLearningBudget with m < 1")
	}
	return AdvancedComposition(m, epsP, 0, deltaP)
}

// ModelBudget combines structure and parameter learning over disjoint
// training sets DT and DP: the total is the max of the two budgets
// (parallel composition over disjoint data, as argued in §3.5).
func ModelBudget(structure, params Budget) Budget {
	return Budget{
		Epsilon: math.Max(structure.Epsilon, params.Epsilon),
		Delta:   math.Max(structure.Delta, params.Delta),
	}
}
