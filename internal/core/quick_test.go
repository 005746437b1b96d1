package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// TestQuickPartitionIndexLaw verifies γ^(−i−1) < p ≤ γ^(−i) for arbitrary
// probabilities and γ values generated by testing/quick.
func TestQuickPartitionIndexLaw(t *testing.T) {
	f := func(pBits, gBits uint32) bool {
		// Map to p ∈ (0, 1] and γ ∈ (1, 17].
		p := (float64(pBits%1000000) + 1) / 1000000
		gamma := 1 + (float64(gBits%1600)+1)/100
		i, ok := PartitionIndex(p, gamma)
		if !ok {
			return false
		}
		lo := math.Pow(gamma, -float64(i+1))
		hi := math.Pow(gamma, -float64(i))
		return lo < p && p <= hi*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionIndexMonotone: larger probabilities never land in
// higher-numbered (smaller-probability) partitions.
func TestQuickPartitionIndexMonotone(t *testing.T) {
	f := func(aBits, bBits uint32) bool {
		a := (float64(aBits%1000000) + 1) / 1000000
		b := (float64(bBits%1000000) + 1) / 1000000
		if a > b {
			a, b = b, a
		}
		ia, _ := PartitionIndex(a, 2)
		ib, _ := PartitionIndex(b, 2)
		return ia >= ib
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickGenProbDistribution: for random seeds and ω ranges, the
// generation probabilities over the whole (tiny) universe form a
// probability distribution.
func TestQuickGenProbDistribution(t *testing.T) {
	model := tinyModel(t, 71)
	r := rng.New(72)
	f := func(seedBits uint16, omegaBits uint8) bool {
		seed := dataset.Record{
			uint16(seedBits) % 2,
			uint16(seedBits>>4) % 3,
			uint16(seedBits>>8) % 2,
		}
		lo := 1 + int(omegaBits)%3
		hi := lo + int(omegaBits>>4)%(4-lo)
		syn, err := NewSeedSynthesizer(model, lo, hi)
		if err != nil {
			return false
		}
		sum := 0.0
		for a := uint16(0); a < 2; a++ {
			for b := uint16(0); b < 3; b++ {
				for c := uint16(0); c < 2; c++ {
					y := dataset.Record{a, b, c}
					p := genProb(syn, y, seed)
					if p < 0 || p > 1 {
						return false
					}
					sum += p
				}
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
}

// TestQuickDeniabilityMonotoneInK: if (k, γ)-plausible deniability holds,
// then (k−1, γ) holds too; and if it holds at γ, it holds at any larger γ.
func TestQuickDeniabilityMonotone(t *testing.T) {
	model := tinyModel(t, 73)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 120, 74)
	r := rng.New(75)
	for trial := 0; trial < 150; trial++ {
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := generate(syn, seed, r)
		k := 2 + r.Intn(40)
		gamma := 1.2 + 3*r.Float64()
		if IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma) {
			if !IsPlausiblyDeniable(syn, seeds, seed, y, k-1, gamma) {
				t.Fatalf("PD(k=%d) holds but PD(k=%d) fails", k, k-1)
			}
			if !IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma*1.5) {
				t.Fatalf("PD(γ=%.2f) holds but PD(γ=%.2f) fails", gamma, gamma*1.5)
			}
		}
	}
}

// TestQuickReleasedAlwaysDeniable: fuzzed mechanism parameters never let a
// record through the generation kernel's Privacy Test 1 that violates
// Definition 1, as the reference IsPlausiblyDeniable checks it.
func TestQuickReleasedAlwaysDeniable(t *testing.T) {
	model := tinyModel(t, 76)
	seeds := tinySeeds(t, model, 200, 77)
	st := NewScanTable(seeds, model.Struct.Order)
	r := rng.New(78)
	var ps Probe
	passes := 0
	for trial := 0; trial < 200; trial++ {
		lo := 1 + r.Intn(3)
		hi := lo + r.Intn(4-lo)
		syn, err := NewSeedSynthesizer(model, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(30)
		gamma := 1.1 + 4*r.Float64()
		mech, err := NewMechanism(syn, seeds, TestConfig{K: k, Gamma: gamma})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := newTestPre(mech)
		if err != nil {
			t.Fatal(err)
		}
		seed := seeds.Row(r.Intn(seeds.Len()))
		y := generate(syn, seed, r)
		syn.Probe(y, &ps)
		if !runTestFast(&ps, st, &pre, seed, r).Pass {
			continue
		}
		passes++
		if !IsPlausiblyDeniable(syn, seeds, seed, y, k, gamma) {
			t.Fatalf("trial %d (k=%d γ=%.2f ω=[%d,%d]): released record violates Definition 1",
				trial, k, gamma, lo, hi)
		}
	}
	if passes == 0 {
		t.Fatal("no candidate passed; the check would be vacuous")
	}
}
