package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// referenceGenerate is the pre-batching pipeline spelled out: one explicit
// ReseedStream(seed, i) per candidate, the allocating reference path
// (referenceOnce), releases in candidate index order. The batched kernel is
// pinned against this oracle, not against itself.
func referenceGenerate(t *testing.T, mech *Mechanism, candidates int, seed uint64) ([]dataset.Record, GenStats) {
	t.Helper()
	var stats GenStats
	var rows []dataset.Record
	r := rng.New(0)
	for i := 0; i < candidates; i++ {
		r.ReseedStream(seed, uint64(i))
		y, res, ok := referenceOnce(mech, r)
		stats.Candidates++
		stats.CheckedTotal += int64(res.Checked)
		if res.SeedProb <= 0 {
			stats.SeedRejected++
		}
		if ok {
			rows = append(rows, y)
			stats.Released++
		}
	}
	return rows, stats
}

// batchMechs builds the mechanisms the batch-identity matrix runs over, so
// the batched kernel (sorted seed table, fused sampling, arena) is what
// executes: for the seed synthesizer, a
// deterministic one whose cap selects the per-record walk and two uncapped
// randomized ones whose test counts exactly, the second at paper
// parameters; the same kernel over differentially private parameters,
// uncapped and capped; for a constant probe (marginalSyn), an uncapped
// randomized one and a capped one, whose counts the kernel computes in O(1).
func batchMechs(t *testing.T) map[string]*Mechanism {
	t.Helper()
	model := benchModel(t, 21)
	syn, err := NewSeedSynthesizer(model, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 22)
	// DP noise (eq. 14) leaves the conditionals, and with them the tail
	// products the probe's buckets sum, far less regular than a non-private
	// fit's.
	dpModel := benchModelWith(t, 21, bayesnet.ModelConfig{Alpha: 1, DP: true, EpsP: 0.5, NoiseKey: "core-dp"})
	dpSyn, err := NewSeedSynthesizer(dpModel, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Mechanism{"paper": paperMech(t)}
	for name, mc := range map[string]struct {
		syn Synthesizer
		tc  TestConfig
	}{
		"deterministic": {syn, TestConfig{K: 5, Gamma: 3, MaxPlausible: 10, MaxCheckPlausible: 64}},
		"randomized":    {syn, TestConfig{K: 5, Gamma: 3, Randomized: true, Eps0: 0.8, MaxPlausible: 12}},
		"dp":            {dpSyn, TestConfig{K: 3, Gamma: 8, Randomized: true, Eps0: 0.5}},
		"dp-capped":     {dpSyn, TestConfig{K: 8, Gamma: 8, Randomized: true, Eps0: 0.5, MaxCheckPlausible: 10}},
	} {
		mech, err := NewMechanism(mc.syn, seeds, mc.tc)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = mech
	}
	marg := marginalSyn{marginalModel(t, model)}
	// K near |D| with a noisy threshold, so candidates pass and fail.
	margSeeds := tinySeeds(t, model, 40, 24)
	for name, tc := range map[string]TestConfig{
		"constant":        {K: 38, Gamma: 3, Randomized: true, Eps0: 0.5},
		"constant-capped": {K: 8, Gamma: 3, Randomized: true, Eps0: 0.5, MaxCheckPlausible: 10},
	} {
		mech, err := NewMechanism(marg, margSeeds, tc)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = mech
	}
	return out
}

// paperMech is an uncapped mechanism at the §6.1 test parameters (k = 50,
// γ = 4, randomized with ε₀ = 1, ω ∈ [5, 11]) over 2,400 seeds, so its
// privacy test takes the exact-count path.
func paperMech(t testing.TB) *Mechanism {
	t.Helper()
	model := benchModel(t, 21)
	syn, err := NewSeedSynthesizer(model, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := NewMechanism(syn, tinySeeds(t, model, 2400, 23), TestConfig{K: 50, Gamma: 4, Randomized: true, Eps0: 1})
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

// walks reports whether the mechanism's privacy test walks the seeds (a
// MaxCheckPlausible cap below |D|) rather than counting them exactly; only
// then does the hot path report Checked.
func walks(m *Mechanism) bool {
	c := m.Test.MaxCheckPlausible
	return c > 0 && c < m.Seeds.Len()
}

// TestBatchedGenerateByteIdentical is the batching half of the determinism
// suite: for every worker count × batch size combination, the batched
// kernel must release the byte-identical record sequence and the identical
// statistics of the explicit per-candidate reference loop. The reference
// always walks, so CheckedTotal is compared only where the kernel walks
// too; an exact count reads no seed one at a time and reports 0.
func TestBatchedGenerateByteIdentical(t *testing.T) {
	const candidates = 800
	const seed = 99
	for name, mech := range batchMechs(t) {
		t.Run(name, func(t *testing.T) {
			wantRows, wantStats := referenceGenerate(t, mech, candidates, seed)
			if wantStats.Released == 0 {
				t.Fatal("reference released nothing; test would be vacuous")
			}
			for _, workers := range []int{1, 3, 8} {
				for _, batch := range []int{1, 7, 256, candidates} {
					out, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
						Candidates: candidates, Workers: workers, Seed: seed, BatchSize: batch,
					})
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("workers=%d batch=%d", workers, batch)
					rows := out.Rows()
					if len(rows) != len(wantRows) {
						t.Fatalf("%s: released %d records, want %d", tag, len(rows), len(wantRows))
					}
					for i := range rows {
						for j := range rows[i] {
							if rows[i][j] != wantRows[i][j] {
								t.Fatalf("%s: record %d attr %d = %d, want %d",
									tag, i, j, rows[i][j], wantRows[i][j])
							}
						}
					}
					want := wantStats
					if !walks(mech) {
						want.CheckedTotal = 0
					}
					if stats.Released != want.Released || stats.Candidates != want.Candidates ||
						stats.SeedRejected != want.SeedRejected || stats.CheckedTotal != want.CheckedTotal {
						t.Fatalf("%s: stats %+v, want %+v", tag, stats, want)
					}
				}
			}
		})
	}
}

// TestFastTestMatchesRunTest pins the kernel's step, Mechanism.Once,
// against the reference path on identical RNG streams, candidate by
// candidate: the capped walk, the exact count (on a small seed set, at
// paper parameters and over DP parameters) and the constant probe's O(1)
// count, capped and uncapped, must produce identical records, decisions,
// counts and thresholds, and consume identical RNG state. Checked matches
// where the kernel walks and is 0 where it counts.
func TestFastTestMatchesRunTest(t *testing.T) {
	for name, mech := range batchMechs(t) {
		t.Run(name, func(t *testing.T) {
			st := mech.ensureScan()
			if _, seeded := mech.Synth.(*SeedSynthesizer); seeded && st == nil {
				t.Fatal("expected a sorted seed table for the seed synthesizer")
			}
			y := make(dataset.Record, len(mech.Seeds.Meta.Attrs))
			var ps Probe
			rFast, rRef := rng.New(0), rng.New(0)
			passes, fails := 0, 0
			for i := uint64(0); i < 500; i++ {
				rFast.ReseedStream(7, i)
				rRef.ReseedStream(7, i)
				res := mech.Once(y, &ps, rFast)
				ok := res.Pass
				wantY, wantRes, wantOK := referenceOnce(mech, rRef)
				if !walks(mech) {
					if res.Checked != 0 {
						t.Fatalf("candidate %d: exact count reported Checked = %d", i, res.Checked)
					}
					wantRes.Checked = 0
				}
				if ok != wantOK || res != wantRes {
					t.Fatalf("candidate %d: result %+v (ok=%v), want %+v (ok=%v)", i, res, ok, wantRes, wantOK)
				}
				for j := range wantY {
					if y[j] != wantY[j] {
						t.Fatalf("candidate %d: attr %d = %d, want %d", i, j, y[j], wantY[j])
					}
				}
				// Both paths must have consumed the same stream.
				if g, w := rFast.Uint64(), rRef.Uint64(); g != w {
					t.Fatalf("candidate %d: RNG streams diverged after the test", i)
				}
				if ok {
					passes++
				} else {
					fails++
				}
			}
			if passes == 0 || fails == 0 {
				t.Fatalf("%d candidates passed and %d failed; the comparison would be one-sided", passes, fails)
			}
		})
	}
}

// TestBatchedGenerateCancelled pins the per-batch cancellation poll: a
// pre-cancelled context must yield zero candidates — workers check before
// claiming their first batch.
func TestBatchedGenerateCancelled(t *testing.T) {
	mech := batchMechs(t)["deterministic"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := GenerateCtx(ctx, mech, GenConfig{Candidates: 10000, Workers: 4, Seed: 3})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Candidates != 0 || out.Len() != 0 {
		t.Fatalf("pre-cancelled run drew %d candidates, released %d; want 0, 0", stats.Candidates, out.Len())
	}
}

// BenchmarkGenerateBatched measures the batched kernel at the default batch
// size across multiple workers — the claim-cursor + per-worker-counter
// configuration a serving layer runs — complementing the single-core
// BenchmarkGenerateFrozen number.
func BenchmarkGenerateBatched(b *testing.B) {
	mech := benchMech(b)
	const candidates = 10000
	b.ReportAllocs()
	b.ResetTimer()
	released := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
			Candidates: candidates, Workers: 4, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		released = stats.Released
	}
	b.ReportMetric(float64(candidates)*float64(b.N)/b.Elapsed().Seconds(), "cands/s")
	if released == 0 {
		b.Fatal("benchmark mechanism released nothing")
	}
}
