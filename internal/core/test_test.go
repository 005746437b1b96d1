package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestPartitionIndexKnownValues(t *testing.T) {
	gamma := 2.0
	cases := []struct {
		p    float64
		want int
	}{
		{1, 0},
		{0.75, 0},
		{0.5, 1},  // p = γ^-1 belongs to partition 1 (γ^-2 < p ≤ γ^-1)
		{0.3, 1},  // γ^-2=0.25 < 0.3 ≤ 0.5
		{0.25, 2}, // p = γ^-2
		{0.2, 2},
		{1.0000000001, 0}, // floating-point dust clamps to 0
	}
	for _, c := range cases {
		got, ok := PartitionIndex(c.p, gamma)
		if !ok {
			t.Fatalf("PartitionIndex(%g) not ok", c.p)
		}
		if got != c.want {
			t.Errorf("PartitionIndex(%g, 2) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestPartitionIndexLogKnownAnswers pins the partition index the kernel
// computes at each γ⁻ⁱ boundary and at its two float64 neighbours. The
// index decides which seeds are plausible, so it reaches released bytes
// through math.Log; a toolchain or CPU whose math.Log rounds differently
// fails here by name instead of as a golden diff. Mathematically the upper
// neighbour of γ⁻ⁱ belongs to partition i−1; from i = 3 (γ = 2) and i = 2
// (γ = 4) on the quotient rounds back to exactly i, which is what the
// goldens were made with. The values were captured before any change to
// the kernel.
func TestPartitionIndexLogKnownAnswers(t *testing.T) {
	// want[γ][i] is the index at {below, at, above} γ⁻ⁱ.
	want := map[int][13][3]int{
		2: {{0, 0, 0}, {1, 1, 0}, {2, 2, 1}, {3, 3, 3}, {4, 4, 4}, {5, 5, 5}, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10}, {11, 11, 11}, {12, 12, 12}},
		3: {{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 5, 5}, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10}, {11, 11, 11}, {12, 12, 12}},
		4: {{0, 0, 0}, {1, 1, 0}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 5, 5}, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10}, {11, 11, 11}, {12, 12, 12}},
		8: {{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 5, 5}, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10}, {11, 11, 11}, {12, 12, 12}},
	}
	for gamma, rows := range want {
		logGamma := math.Log(float64(gamma))
		pow := 1 // γ^i, exact in an int and in a float64 for i ≤ 12
		for i, row := range rows {
			// 1/γ^i divides by an exact float64, so p is float64(γ⁻ⁱ).
			p := 1 / float64(pow)
			for j, q := range [3]float64{math.Nextafter(p, 0), p, math.Nextafter(p, 2)} {
				got, ok := partitionIndexLog(q, logGamma)
				if !ok || got != row[j] {
					t.Errorf("γ=%d i=%d: partitionIndexLog(%x) = %d, %v; want %d", gamma, i, math.Float64bits(q), got, ok, row[j])
				}
			}
			pow *= gamma
		}
	}
}

func TestPartitionIndexInvalid(t *testing.T) {
	for _, p := range []float64{0, -1, math.NaN()} {
		if _, ok := PartitionIndex(p, 2); ok {
			t.Errorf("PartitionIndex(%g) reported ok", p)
		}
	}
}

func TestPartitionIndexLaw(t *testing.T) {
	// Property: for every positive p ≤ 1, γ^(−i−1) < p ≤ γ^(−i).
	r := rng.New(1)
	for _, gamma := range []float64{1.5, 2, 4} {
		for trial := 0; trial < 2000; trial++ {
			p := math.Exp(-r.Float64() * 30) // spans ~13 orders of magnitude
			i, ok := PartitionIndex(p, gamma)
			if !ok {
				t.Fatalf("PartitionIndex(%g) not ok", p)
			}
			lo := math.Pow(gamma, -float64(i+1))
			hi := math.Pow(gamma, -float64(i))
			if !(lo < p && p <= hi*(1+1e-12)) {
				t.Fatalf("γ=%g p=%g: partition %d bounds (%g, %g] violated", gamma, p, i, lo, hi)
			}
		}
	}
}

func TestTestConfigValidate(t *testing.T) {
	bad := []TestConfig{
		{K: 0, Gamma: 2},
		{K: 5, Gamma: 1},
		{K: 5, Gamma: 0.5},
		{K: 5, Gamma: 2, Randomized: true},
		{K: 5, Gamma: 2, MaxPlausible: 3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
	good := TestConfig{K: 5, Gamma: 2, Randomized: true, Eps0: 1, MaxPlausible: 10, MaxCheckPlausible: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTestAgainstExhaustiveCount(t *testing.T) {
	model := tinyModel(t, 20)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 21)
	r := rng.New(22)
	for trial := 0; trial < 100; trial++ {
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := generate(syn, seed, r)
		p := genProb(syn, y, seed)
		full := CountPlausibleSeeds(syn, seeds, y, p, 2)
		for _, k := range []int{1, full, full + 1, full * 2} {
			if k < 1 {
				continue
			}
			res, err := RunTest(syn, seeds, seed, y, TestConfig{K: k, Gamma: 2}, r)
			if err != nil {
				t.Fatal(err)
			}
			wantPass := full >= k
			if res.Pass != wantPass {
				t.Fatalf("k=%d full=%d: pass=%v, want %v", k, full, res.Pass, wantPass)
			}
		}
	}
}

// TestDeterministicTestImpliesDefinition1 is the central soundness property:
// anything Privacy Test 1 passes satisfies (k, γ)-plausible deniability per
// Definition 1, verified by the independent sliding-window checker.
func TestDeterministicTestImpliesDefinition1(t *testing.T) {
	model := tinyModel(t, 23)
	for _, omegaRange := range [][2]int{{1, 1}, {1, 3}} {
		syn, err := NewSeedSynthesizer(model, omegaRange[0], omegaRange[1])
		if err != nil {
			t.Fatal(err)
		}
		seeds := tinySeeds(t, model, 400, 24)
		r := rng.New(25)
		passes := 0
		for trial := 0; trial < 300; trial++ {
			seed := seeds.Row(r.Intn(seeds.Len()))
			y := generate(syn, seed, r)
			cfg := TestConfig{K: 20, Gamma: 3}
			res, err := RunTest(syn, seeds, seed, y, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pass {
				passes++
				if !IsPlausiblyDeniable(syn, seeds, seed, y, cfg.K, cfg.Gamma) {
					t.Fatalf("released record %v violates Definition 1 (seed %v)", y, seed)
				}
			}
		}
		if passes == 0 {
			t.Fatalf("omega %v: no candidate ever passed; test vacuous", omegaRange)
		}
	}
}

func TestRandomizedTestApproachesDeterministic(t *testing.T) {
	// With a huge ε0 the Laplace noise on k is negligible, so Privacy
	// Test 2 must agree with Privacy Test 1.
	model := tinyModel(t, 26)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 27)
	r := rng.New(28)
	for trial := 0; trial < 100; trial++ {
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := generate(syn, seed, r)
		det, err := RunTest(syn, seeds, seed, y, TestConfig{K: 15, Gamma: 2}, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := RunTest(syn, seeds, seed, y,
			TestConfig{K: 15, Gamma: 2, Randomized: true, Eps0: 1e6}, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if det.Pass != rnd.Pass {
			t.Fatalf("trial %d: deterministic=%v randomized(ε0→∞)=%v", trial, det.Pass, rnd.Pass)
		}
	}
}

func TestRandomizedTestThresholdVaries(t *testing.T) {
	model := tinyModel(t, 29)
	syn, err := NewSeedSynthesizer(model, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 100, 30)
	seed := seeds.Row(0)
	y := generate(syn, seed, rng.New(31))
	thresholds := map[float64]bool{}
	for trial := 0; trial < 50; trial++ {
		res, err := RunTest(syn, seeds, seed, y,
			TestConfig{K: 10, Gamma: 2, Randomized: true, Eps0: 0.5}, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		thresholds[res.Threshold] = true
	}
	if len(thresholds) < 10 {
		t.Fatalf("randomized threshold took only %d distinct values", len(thresholds))
	}
}

func TestMaxCheckPlausibleCapsScan(t *testing.T) {
	model := tinyModel(t, 32)
	syn, err := NewSeedSynthesizer(model, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 500, 33)
	seed := seeds.Row(0)
	y := generate(syn, seed, rng.New(34))
	res, err := RunTest(syn, seeds, seed, y,
		TestConfig{K: 100000, Gamma: 2, MaxCheckPlausible: 50}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked > 50 {
		t.Fatalf("checked %d records, cap was 50", res.Checked)
	}
	if res.Pass {
		t.Fatal("test passed with k larger than the dataset")
	}
}

func TestMaxPlausibleStopsEarly(t *testing.T) {
	// A marginal synthesizer makes every record a plausible seed, so the
	// count should stop exactly at MaxPlausible (≥ threshold met first,
	// whichever comes sooner).
	model := tinyModel(t, 36)
	marg := marginalSynth(t, model)
	seeds := tinySeeds(t, model, 500, 37)
	seed := seeds.Row(0)
	y := generate(marg, seed, rng.New(38))
	res, err := RunTest(marg, seeds, seed, y,
		TestConfig{K: 10, Gamma: 2, MaxPlausible: 25}, rng.New(39))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatal("marginal candidate failed the test")
	}
	if res.PlausibleCount > 25 {
		t.Fatalf("counted %d plausible seeds past the cap", res.PlausibleCount)
	}
	// It must stop at the threshold k=10, which binds before the cap.
	if res.PlausibleCount != 10 {
		t.Fatalf("counted %d, expected to stop at threshold 10", res.PlausibleCount)
	}
}

func TestRunTestEmptyDataset(t *testing.T) {
	model := tinyModel(t, 40)
	syn, err := NewSeedSynthesizer(model, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	empty := dataset.New(model.Meta)
	_, err = RunTest(syn, empty, dataset.Record{0, 0, 0}, dataset.Record{0, 0, 0},
		TestConfig{K: 1, Gamma: 2}, rng.New(1))
	if err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestIsPlausiblyDeniableDirect(t *testing.T) {
	model := tinyModel(t, 41)
	syn, err := NewSeedSynthesizer(model, 3, 3) // ω = m: fully re-sampled
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 50, 42)
	seed := seeds.Row(0)
	y := generate(syn, seed, rng.New(43))
	// With ω = m every record has the same generation probability, so
	// (k, γ)-PD holds for k = |D| and any γ > 1.
	if !IsPlausiblyDeniable(syn, seeds, seed, y, seeds.Len(), 1.01) {
		t.Fatal("fully re-sampled synthesis should be maximally deniable")
	}
	if IsPlausiblyDeniable(syn, seeds, seed, y, seeds.Len()+1, 1.01) {
		t.Fatal("k beyond dataset size should fail")
	}
	if IsPlausiblyDeniable(syn, seeds, seed, y, 0, 2) {
		t.Fatal("k=0 should be rejected")
	}
}
