package rng

import "math"

// The float64() conversions around products round them before the add,
// which the Go spec defines as forbidding a fused multiply-add, so an arm64
// build computes the same values as an amd64 one.

// Exponential returns a sample from the exponential distribution with the
// given rate (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Laplace returns a sample from the Laplace distribution with mean 0 and
// scale b, i.e. density (1/2b)·exp(−|z|/b). This is the noise distribution
// of the Laplace mechanism (§3.3.1, §3.4.1) and of the randomized privacy
// test (Privacy Test 2). It panics if b <= 0.
func (r *RNG) Laplace(b float64) float64 {
	if b <= 0 {
		panic("rng: Laplace with non-positive scale")
	}
	// Inverse CDF sampling on u ∈ (−1/2, 1/2).
	u := r.Float64Open() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// Normal returns a sample from the normal distribution with the given mean
// and standard deviation (Marsaglia polar method).
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return mean + float64(stddev*u*math.Sqrt(-2*math.Log(s)/s))
		}
	}
}

// Gamma returns a sample from the Gamma distribution with the given shape
// and scale (mean shape·scale), using the Marsaglia–Tsang method. Gamma
// noise is needed by differentially private empirical risk minimization
// (output perturbation draws a noise vector whose norm is Gamma-distributed).
// It panics if shape <= 0 or scale <= 0.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive shape or scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := r.Float64Open()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64Open()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v * scale
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v * scale
		}
	}
}

// Dirichlet returns a sample from the Dirichlet distribution with the given
// concentration parameters. The generative model samples multinomial CPT
// parameters from a Dirichlet posterior (§3.4, eq. 12) to increase the
// variety of synthesizable records. It panics if alpha is empty or contains
// a non-positive entry.
func (r *RNG) Dirichlet(alpha []float64) []float64 {
	if len(alpha) == 0 {
		panic("rng: Dirichlet with empty alpha")
	}
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		if a <= 0 {
			panic("rng: Dirichlet with non-positive alpha")
		}
		g := r.Gamma(a, 1)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Astronomically unlikely; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Categorical returns an index sampled proportionally to the given
// non-negative weights. It panics if the weights are empty, contain a
// negative entry, or sum to zero.
func (r *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last index with positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// UnitSphere fills out with a uniformly random direction on the unit sphere
// in len(out) dimensions. Used by DP-ERM output perturbation.
func (r *RNG) UnitSphere(out []float64) {
	for {
		norm := 0.0
		for i := range out {
			out[i] = r.Normal(0, 1)
			norm += float64(out[i] * out[i])
		}
		norm = math.Sqrt(norm)
		if norm > 1e-12 {
			for i := range out {
				out[i] /= norm
			}
			return
		}
	}
}
