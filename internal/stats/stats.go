// Package stats implements the statistical primitives of the framework:
// empirical distributions over attribute codes, Shannon entropy (base 2),
// the symmetrical uncertainty correlation coefficient used by CFS structure
// learning (eq. 5 of the paper), and the total variation ("the" statistical)
// distance used by the utility evaluation (§6.2).
package stats

import (
	"fmt"
	"math"
)

// The float64() conversions around products round them before the add,
// which the Go spec defines as forbidding a fused multiply-add, so an arm64
// build computes the same values as an amd64 one.

// Distribution is an empirical probability distribution over a finite
// domain, stored as non-negative weights that need not be normalized.
type Distribution struct {
	weights []float64
	total   float64
}

// NewDistribution returns an all-zero distribution over a domain of the
// given cardinality.
func NewDistribution(card int) *Distribution {
	return &Distribution{weights: make([]float64, card)}
}

// FromCounts wraps a count vector as a distribution. The slice is not
// copied.
func FromCounts(counts []float64) *Distribution {
	d := &Distribution{weights: counts}
	for _, c := range counts {
		d.total += c
	}
	return d
}

// FromColumn tallies a column of codes into a distribution over [0, card).
func FromColumn(col []uint16, card int) *Distribution {
	d := NewDistribution(card)
	for _, c := range col {
		d.weights[c]++
	}
	d.total = float64(len(col))
	return d
}

// Add increments the weight of value v by w.
func (d *Distribution) Add(v int, w float64) {
	d.weights[v] += w
	d.total += w
}

// Card returns the domain cardinality.
func (d *Distribution) Card() int { return len(d.weights) }

// Total returns the total weight.
func (d *Distribution) Total() float64 { return d.total }

// P returns the probability of value v (0 if the distribution is empty).
func (d *Distribution) P(v int) float64 {
	if d.total <= 0 {
		return 0
	}
	return d.weights[v] / d.total
}

// Probs returns the normalized probability vector. For an empty
// distribution it returns all zeros.
func (d *Distribution) Probs() []float64 {
	out := make([]float64, len(d.weights))
	if d.total <= 0 {
		return out
	}
	for i, w := range d.weights {
		out[i] = w / d.total
	}
	return out
}

// Entropy returns the Shannon entropy in bits of the normalized
// distribution: H = −Σ p·log2 p. Zero-probability values contribute 0.
func (d *Distribution) Entropy() float64 {
	if d.total <= 0 {
		return 0
	}
	h := 0.0
	for _, w := range d.weights {
		if w > 0 {
			p := w / d.total
			h -= float64(p * math.Log2(p))
		}
	}
	if h < 0 { // guard against −0 and floating-point dust
		h = 0
	}
	return h
}

// Joint is an empirical joint distribution over a pair of finite domains.
type Joint struct {
	cardA, cardB int
	weights      []float64
	total        float64
}

// NewJoint returns an all-zero joint distribution.
func NewJoint(cardA, cardB int) *Joint {
	return &Joint{cardA: cardA, cardB: cardB, weights: make([]float64, cardA*cardB)}
}

// FromColumns tallies two aligned code columns into a joint distribution.
// It panics if the columns have different lengths.
func FromColumns(colA []uint16, cardA int, colB []uint16, cardB int) *Joint {
	if len(colA) != len(colB) {
		panic(fmt.Sprintf("stats: joint columns have lengths %d and %d", len(colA), len(colB)))
	}
	j := NewJoint(cardA, cardB)
	for i := range colA {
		j.weights[int(colA[i])*cardB+int(colB[i])]++
	}
	j.total = float64(len(colA))
	return j
}

// Add increments the weight of the pair (a, b) by w.
func (j *Joint) Add(a, b int, w float64) {
	j.weights[a*j.cardB+b] += w
	j.total += w
}

// P returns the probability of the pair (a, b).
func (j *Joint) P(a, b int) float64 {
	if j.total <= 0 {
		return 0
	}
	return j.weights[a*j.cardB+b] / j.total
}

// Total returns the total weight.
func (j *Joint) Total() float64 { return j.total }

// Entropy returns the Shannon entropy in bits of the joint distribution.
func (j *Joint) Entropy() float64 {
	if j.total <= 0 {
		return 0
	}
	h := 0.0
	for _, w := range j.weights {
		if w > 0 {
			p := w / j.total
			h -= float64(p * math.Log2(p))
		}
	}
	if h < 0 {
		h = 0
	}
	return h
}

// MarginalA returns the first marginal of the joint distribution.
func (j *Joint) MarginalA() *Distribution {
	d := NewDistribution(j.cardA)
	for a := 0; a < j.cardA; a++ {
		for b := 0; b < j.cardB; b++ {
			d.Add(a, j.weights[a*j.cardB+b])
		}
	}
	return d
}

// MarginalB returns the second marginal of the joint distribution.
func (j *Joint) MarginalB() *Distribution {
	d := NewDistribution(j.cardB)
	for a := 0; a < j.cardA; a++ {
		for b := 0; b < j.cardB; b++ {
			d.Add(b, j.weights[a*j.cardB+b])
		}
	}
	return d
}

// Flatten returns the joint as a flat probability vector (row-major), so
// pairs of attributes can be compared with TotalVariation (§6.2, Fig. 4).
func (j *Joint) Flatten() []float64 {
	out := make([]float64, len(j.weights))
	if j.total <= 0 {
		return out
	}
	for i, w := range j.weights {
		out[i] = w / j.total
	}
	return out
}

// SymmetricalUncertainty computes the correlation coefficient of eq. (5):
//
//	corr(x, y) = 2 − 2·H(x,y) / (H(x) + H(y))
//
// from plain (possibly noisy) entropy values. The result is clamped to
// [0, 1] as required by §3.3.1 when noisy entropies are used.
func SymmetricalUncertainty(hx, hy, hxy float64) float64 {
	if hx+hy <= 0 {
		// Both variables are constant: define corr = 0.
		return 0
	}
	su := 2 - 2*hxy/(hx+hy)
	if su < 0 {
		return 0
	}
	if su > 1 {
		return 1
	}
	return su
}

// SymmetricalUncertaintyColumns computes eq. (5) directly from two aligned
// code columns.
func SymmetricalUncertaintyColumns(colA []uint16, cardA int, colB []uint16, cardB int) float64 {
	j := FromColumns(colA, cardA, colB, cardB)
	return SymmetricalUncertainty(j.MarginalA().Entropy(), j.MarginalB().Entropy(), j.Entropy())
}

// TotalVariation returns the total variation distance ½·Σ|p_i − q_i|
// between two probability vectors of equal length. It panics on a length
// mismatch.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: TotalVariation on vectors of lengths %d and %d", len(p), len(q)))
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}

// FiveNumber is a box-and-whisker summary (used to report the distance
// distributions of Figs. 3–4 in text form).
type FiveNumber struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary of the values. It panics on an
// empty input.
func Summarize(values []float64) FiveNumber {
	if len(values) == 0 {
		panic("stats: Summarize on empty slice")
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	insertionSort(sorted)
	return FiveNumber{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary compactly.
func (f FiveNumber) String() string {
	return fmt.Sprintf("min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f", f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

func insertionSort(a []float64) {
	// The summaries here cover at most a few dozen attribute pairs;
	// insertion sort keeps the package dependency-free and allocation-lean.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// quantileSorted computes the q-th quantile of a sorted slice with linear
// interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Mean returns the arithmetic mean of the values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// StdDev returns the population standard deviation of the values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		s += float64((v - m) * (v - m))
	}
	return math.Sqrt(s / float64(len(values)))
}
