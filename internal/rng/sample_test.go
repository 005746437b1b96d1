package rng

import (
	"math"
	"testing"
)

// randomWeights draws a weight vector with occasional zeros and wildly
// varying magnitudes — the shapes CPT rows actually take.
func randomWeights(r *RNG, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch r.Intn(5) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = r.Float64() * 1e-9
		default:
			w[i] = r.Float64() * math.Pow(10, float64(r.Intn(6)))
		}
	}
	// Guarantee a positive total.
	w[r.Intn(n)] += 1
	return w
}

// TestDrawCumMatchesCategorical pins the byte-identical contract the
// table-backed sampling path depends on: for the same RNG state, DrawCum and
// DrawCumGuided return exactly what Categorical returns, across sizes well
// above and below the guide crossover.
func TestDrawCumMatchesCategorical(t *testing.T) {
	r := New(101)
	for _, n := range []int{1, 2, 3, 7, 16, 17, 33, 100, 257, 1000} {
		for trial := 0; trial < 20; trial++ {
			w := randomWeights(r, n)
			cum, err := BuildCum(w, nil)
			if err != nil {
				t.Fatalf("BuildCum(n=%d): %v", n, err)
			}
			guide := BuildGuide(cum, nil)
			seed := r.Uint64()
			ra, rb, rc := New(seed), New(seed), New(seed)
			for draw := 0; draw < 200; draw++ {
				want := ra.Categorical(w)
				if got := rb.DrawCum(cum); got != want {
					t.Fatalf("n=%d trial=%d draw=%d: DrawCum=%d, Categorical=%d", n, trial, draw, got, want)
				}
				if got := rc.DrawCumGuided(cum, guide); got != want {
					t.Fatalf("n=%d trial=%d draw=%d: DrawCumGuided=%d, Categorical=%d", n, trial, draw, got, want)
				}
			}
			// The three generators must also have consumed identical state.
			if ra.Uint64() != rb.Uint64() || New(seed).Uint64() == 0 {
				t.Fatalf("n=%d: DrawCum consumed different RNG state than Categorical", n)
			}
		}
	}
}

// TestDrawCumGuidedDegenerate exercises rows dominated by one value and
// rows with long zero runs, where guide buckets straddle step edges.
func TestDrawCumGuidedDegenerate(t *testing.T) {
	cases := [][]float64{
		{1},
		{0, 0, 5, 0},
		{1e-300, 1, 1e-300},
		append(make([]float64, 100), 1), // all mass on the last value
		func() []float64 { w := make([]float64, 100); w[0] = 1; return w }(),
	}
	for ci, w := range cases {
		cum, err := BuildCum(w, nil)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		guide := BuildGuide(cum, nil)
		seed := uint64(7*ci + 1)
		ra, rb := New(seed), New(seed)
		for draw := 0; draw < 500; draw++ {
			want := ra.Categorical(w)
			if got := rb.DrawCumGuided(cum, guide); got != want {
				t.Fatalf("case %d draw %d: got %d, want %d", ci, draw, got, want)
			}
		}
	}
}

// TestBuildCumRejectsPoisoned covers the build/decode-time validation:
// poisoned weight vectors must yield errors, never panics.
func TestBuildCumRejectsPoisoned(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{-1, 2},
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{1e308, 1e308, 1e308}, // finite weights, overflowing total
	}
	for i, w := range cases {
		if _, err := BuildCum(w, nil); err == nil {
			t.Errorf("case %d: BuildCum(%v) accepted poisoned weights", i, w)
		}
	}
}

func BenchmarkCategorical64(b *testing.B) {
	r := New(1)
	w := randomWeights(New(2), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Categorical(w)
	}
}

func BenchmarkDrawCumGuided64(b *testing.B) {
	r := New(1)
	w := randomWeights(New(2), 64)
	cum, err := BuildCum(w, nil)
	if err != nil {
		b.Fatal(err)
	}
	guide := BuildGuide(cum, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DrawCumGuided(cum, guide)
	}
}
