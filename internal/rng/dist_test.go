package rng

import (
	"math"
	"testing"
)

// moments draws n samples and returns their mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

// TestLaplaceKnownAnswers pins the first Laplace(1) draws of one stream
// bit for bit. The randomized privacy test's threshold and every DP count
// are Laplace draws, so they reach released bytes through math.Log; a
// toolchain or CPU whose math.Log rounds differently fails here by name
// instead of as a golden diff.
func TestLaplaceKnownAnswers(t *testing.T) {
	want := [16]uint64{
		0xc0059334ae24b9b7, 0x40045c917ace37cb, 0x3fd58a1d50b5cc2d, 0xbfc57d5a68f1976b,
		0x3ffff9fe07132fa6, 0xbff3b18e45367141, 0xbfbf8525ef46df45, 0xbfb2d47d990fc4de,
		0x3fe08a411100e1ac, 0x3fd3ef0bc90b3c24, 0x3f7e39e05a3108b3, 0x3fc7e91c38a2a8e5,
		0x3ff7f9ca2c213676, 0x3fe6ace2bace0655, 0x3fd20952f1935dba, 0xbfd3937579f2256c,
	}
	r := NewStream(2017, 3)
	for i, w := range want {
		if got := math.Float64bits(r.Laplace(1)); got != w {
			t.Errorf("draw %d: Laplace(1) bits %#016x, want %#016x", i, got, w)
		}
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(101)
	for _, b := range []float64{0.5, 1, 2.5} {
		mean, variance := moments(200000, func() float64 { return r.Laplace(b) })
		if math.Abs(mean) > 0.05*b {
			t.Errorf("Laplace(%g) mean %.4f, want ~0", b, mean)
		}
		want := 2 * b * b
		if math.Abs(variance-want)/want > 0.05 {
			t.Errorf("Laplace(%g) variance %.4f, want %.4f", b, variance, want)
		}
	}
}

func TestLaplaceTailSymmetry(t *testing.T) {
	r := New(55)
	pos, neg := 0, 0
	for i := 0; i < 100000; i++ {
		if r.Laplace(1) > 0 {
			pos++
		} else {
			neg++
		}
	}
	if math.Abs(float64(pos-neg)) > 5*math.Sqrt(100000) {
		t.Fatalf("Laplace not symmetric: %d positive, %d negative", pos, neg)
	}
}

func TestLaplacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplace(0) did not panic")
		}
	}()
	New(1).Laplace(0)
}

func TestExponentialMoments(t *testing.T) {
	r := New(13)
	for _, rate := range []float64{0.5, 1, 3} {
		mean, variance := moments(200000, func() float64 { return r.Exponential(rate) })
		if math.Abs(mean-1/rate)/(1/rate) > 0.03 {
			t.Errorf("Exp(%g) mean %.4f, want %.4f", rate, mean, 1/rate)
		}
		wantVar := 1 / (rate * rate)
		if math.Abs(variance-wantVar)/wantVar > 0.06 {
			t.Errorf("Exp(%g) variance %.4f, want %.4f", rate, variance, wantVar)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	mean, variance := moments(200000, func() float64 { return r.Normal(2, 3) })
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("Normal(2,3) mean %.4f", mean)
	}
	if math.Abs(variance-9)/9 > 0.05 {
		t.Errorf("Normal(2,3) variance %.4f", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(19)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 1}, {1, 2}, {3, 0.5}, {11, 1},
	} {
		mean, variance := moments(200000, func() float64 { return r.Gamma(tc.shape, tc.scale) })
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean)/wantMean > 0.05 {
			t.Errorf("Gamma(%g,%g) mean %.4f, want %.4f", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.10 {
			t.Errorf("Gamma(%g,%g) variance %.4f, want %.4f", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if g := r.Gamma(0.3, 1); g <= 0 {
			t.Fatalf("Gamma produced non-positive sample %g", g)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(29)
	alpha := []float64{0.5, 2, 7, 1}
	for i := 0; i < 1000; i++ {
		p := r.Dirichlet(alpha)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("Dirichlet component negative: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %.12f", sum)
		}
	}
}

func TestDirichletMean(t *testing.T) {
	r := New(31)
	alpha := []float64{1, 2, 5}
	total := 8.0
	sums := make([]float64, 3)
	const draws = 50000
	for i := 0; i < draws; i++ {
		p := r.Dirichlet(alpha)
		for j, v := range p {
			sums[j] += v
		}
	}
	for j := range sums {
		got := sums[j] / draws
		want := alpha[j] / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet mean[%d] = %.4f, want %.4f", j, got, want)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(37)
	w := []float64{1, 0, 3, 6}
	counts := make([]int, len(w))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	for i, wi := range w {
		want := wi / 10 * draws
		if wi > 0 && math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("category %d count %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestUnitSphereNorm(t *testing.T) {
	r := New(41)
	v := make([]float64, 12)
	for i := 0; i < 1000; i++ {
		r.UnitSphere(v)
		norm := 0.0
		for _, x := range v {
			norm += x * x
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("UnitSphere norm² = %.12f", norm)
		}
	}
}
