package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Mechanism is Mechanism 1 of §2: sample a seed from the seed dataset,
// generate a candidate synthetic with the generative model, and release it
// only if the privacy test passes.
type Mechanism struct {
	// Synth draws candidates from the generative model and prices their
	// generation probabilities for the privacy test.
	Synth Synthesizer
	// Seeds is the synthesis split DS of the input dataset.
	Seeds *dataset.Dataset
	// Test configures the plausible-deniability test applied to every
	// candidate before release.
	Test TestConfig
	// Scan optionally holds the privacy test's sorted seed table for
	// (Synth, Seeds). Serving layers that run many mechanisms over one
	// fitted model set it to a shared ScanTable (see sgf.FittedModel); when
	// nil, generation builds it lazily on the first run.
	Scan *ScanTable

	scanOnce sync.Once
}

// ensureScan resolves the scan table once per mechanism, honoring a
// caller-provided Scan.
func (m *Mechanism) ensureScan() *ScanTable {
	m.scanOnce.Do(func() {
		if m.Scan == nil {
			m.Scan = ScanTableFor(m.Synth, m.Seeds)
		}
	})
	return m.Scan
}

// NewMechanism validates the configuration (|D| ≥ k is required by
// Definition 1 and Theorem 1).
func NewMechanism(syn Synthesizer, seeds *dataset.Dataset, test TestConfig) (*Mechanism, error) {
	if err := test.Validate(); err != nil {
		return nil, err
	}
	if seeds.Len() < test.K {
		return nil, fmt.Errorf("core: seed dataset has %d records, need at least k=%d", seeds.Len(), test.K)
	}
	return &Mechanism{Synth: syn, Seeds: seeds, Test: test}, nil
}

// Once runs one iteration of Mechanism 1 through the generation kernel: it
// draws a seed, generates the candidate into y (one entry per attribute),
// fills ps for it and runs the privacy test, consuming exactly the RNG state
// one GenerateCtx candidate does. The candidate may be released only when
// the result passes; y is filled either way so that callers can account for
// it (the tool emits all candidates and marks which passed, §6.5). The
// caller owns y and ps, so a loop of Once calls allocates nothing per
// candidate, and ps stays filled for y (see ScanTable.SeedProbs).
func (m *Mechanism) Once(y dataset.Record, ps *Probe, r *rng.RNG) TestResult {
	pre, err := newTestPre(m)
	if err != nil {
		// Config was validated at construction; failing here means the
		// mechanism was mutated invalid afterwards, which is a programming
		// error.
		panic(err)
	}
	return m.onceFast(y, ps, m.ensureScan(), &pre, r)
}

// genScratch is a generation worker's reusable state: the candidate record
// buffer and the probe, allocated once per worker instead of once per
// candidate.
type genScratch struct {
	rec dataset.Record
	ps  Probe
}

func newGenScratch(numAttrs int) *genScratch {
	return &genScratch{rec: make(dataset.Record, numAttrs)}
}

// onceFast is the kernel's per-candidate step, Once with the run's seed
// table and test limits resolved: the candidate is generated into y, ps is
// filled for it, and the privacy test runs on the probe against the sorted
// seed table.
func (m *Mechanism) onceFast(y dataset.Record, ps *Probe, st *ScanTable, pre *testPre, r *rng.RNG) TestResult {
	seed := m.Seeds.Row(r.Intn(pre.n))
	m.Synth.GenerateInto(y, seed, r)
	m.Synth.Probe(y, ps)
	return runTestFast(ps, st, pre, seed, r)
}

// recordArena hands out record copies from growing block allocations, so
// cloning a passing candidate out of the scratch buffer costs amortized
// ~one allocation per hundreds of records instead of one per record. Blocks
// are never reused: handed-out records stay valid for as long as the caller
// keeps them (the GenerateTargetStream contract).
type recordArena struct {
	free []uint16
	next int
}

func (a *recordArena) clone(src dataset.Record) dataset.Record {
	m := len(src)
	if len(a.free) < m {
		if a.next < 1024 {
			a.next = a.next*4 + 16
		}
		a.free = make([]uint16, a.next*m)
	}
	out := dataset.Record(a.free[:m:m])
	a.free = a.free[m:]
	copy(out, src)
	return out
}

// ReleaseBudget returns the per-released-record (ε, δ) differential privacy
// guarantee of Theorem 1 for this mechanism's parameters, optimized over
// the trade-off parameter t. The boolean is false for the deterministic
// test (no DP guarantee) or when no t meets the δ target.
func (m *Mechanism) ReleaseBudget(maxDelta float64) (privacy.Budget, bool) {
	if !m.Test.Randomized {
		return privacy.Budget{}, false
	}
	b, _, ok := privacy.BestReleaseBudget(m.Test.K, m.Test.Gamma, m.Test.Eps0, maxDelta)
	return b, ok
}

// GenStats aggregates the outcome of a generation run.
type GenStats struct {
	// Candidates is the number of candidate synthetics generated.
	Candidates int
	// Released is the number of records released to the caller. For
	// GenerateCtx this is exactly the privacy-test pass count; for
	// GenerateTargetStream it is capped at what the sink actually accepted
	// (trimmed overshoot and failed deliveries are excluded).
	Released int
	// SeedRejected counts candidates whose own seed had zero generation
	// probability (cannot happen with seed-based synthesis; tracked for
	// generality).
	SeedRejected int
	// CheckedTotal sums TestResult.Checked: the seed records the privacy
	// test's walk read one at a time. It is 0 for runs whose test counts
	// exactly (no MaxCheckPlausible cap in (0, |D|)).
	CheckedTotal int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// SinkElapsed is the portion of Elapsed spent inside the caller's sink
	// (GenerateTargetStream only): delivery/flush time as opposed to
	// generation time, so a serving layer can report the two stages apart.
	SinkElapsed time.Duration
}

// PassRate returns Released/Candidates (0 when no candidates were drawn).
func (s GenStats) PassRate() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Released) / float64(s.Candidates)
}

// GenConfig controls a generation run.
type GenConfig struct {
	// Candidates is the number of candidate synthetics to draw.
	Candidates int
	// Workers is the parallelism degree; 0 means GOMAXPROCS. Synthesis of
	// one record is independent of all others (§5), so the run scales
	// embarrassingly.
	Workers int
	// Seed seeds the run's deterministic RNG tree.
	Seed uint64
	// IndexOffset shifts the candidate indices used for RNG stream
	// derivation: candidate i draws from rng.NewStream(Seed, IndexOffset+i).
	// A multi-batch driver sets it to the number of candidates already
	// drawn, so every candidate of the whole run gets a distinct stream
	// without perturbing the seed (two runs whose seeds differ must never
	// share streams, which perturbed seeds — e.g. seed+batch — would cause).
	IndexOffset uint64
	// BatchSize is the number of contiguous candidate indices a worker
	// claims at a time; 0 means a sensible default. It tunes scheduling
	// granularity only — candidate i's randomness is a pure function of
	// (Seed, IndexOffset+i), so the output is byte-identical for any batch
	// size (pinned by the batch-identity tests).
	BatchSize int
}

// defaultGenBatch is the candidate-range claim size when GenConfig.BatchSize
// is zero: large enough that the claim cursor and the per-batch ctx poll
// vanish from profiles, small enough to balance workers on short runs.
const defaultGenBatch = 256

// Generate runs Mechanism 1 cfg.Candidates times and returns the released
// synthetic records. See GenerateCtx for the determinism contract.
func Generate(mech *Mechanism, cfg GenConfig) (*dataset.Dataset, GenStats, error) {
	return GenerateCtx(context.Background(), mech, cfg)
}

// GenerateCtx runs Mechanism 1 cfg.Candidates times and returns the released
// synthetic records, stopping early when ctx is cancelled (the partial
// output, the stats so far, and ctx's error are returned in that case).
//
// Determinism contract: candidate i draws all of its randomness from
// rng.NewStream(cfg.Seed, i), and releases are concatenated in candidate
// index order. Workers shard the index space, so the released sequence is
// byte-identical for a fixed seed REGARDLESS of cfg.Workers — a serving
// layer may size parallelism to the current load without perturbing
// results.
func GenerateCtx(ctx context.Context, mech *Mechanism, cfg GenConfig) (*dataset.Dataset, GenStats, error) {
	if cfg.Candidates < 0 {
		return nil, GenStats{}, fmt.Errorf("core: negative candidate count %d", cfg.Candidates)
	}
	slots := make([]dataset.Record, cfg.Candidates)
	stats, err := generateSlots(ctx, mech, cfg, slots)
	released := make([]dataset.Record, 0, stats.Released)
	for _, y := range slots {
		if y != nil {
			released = append(released, y)
		}
	}
	return dataset.FromRecords(mech.Seeds.Meta, released), stats, err
}

// genCounters is one worker's private statistics, merged under a mutex
// after the worker drains — the per-candidate hot loop touches no shared
// cache line.
type genCounters struct {
	cands, pass, checked, rejected int64
}

// generateSlots runs the candidate loop of GenerateCtx into caller-owned
// per-candidate slots (len(slots) == cfg.Candidates, all entries nil on
// entry): slot i receives candidate i's record iff it passed the privacy
// test. Letting the caller own the slots is what allows
// GenerateTargetStream to reuse one allocation across its chunks.
//
// Workers claim contiguous candidate ranges off a shared cursor (batched
// work stealing): a claimed batch seeks the worker's stream seeder to its
// start once and reseeds per candidate with one add, cancellation is
// polled per batch, and statistics accumulate in per-worker counters.
// Candidate i's randomness stays a pure function of (Seed, IndexOffset+i),
// so slot contents are byte-identical whatever the worker count or batch
// size.
func generateSlots(ctx context.Context, mech *Mechanism, cfg GenConfig, slots []dataset.Record) (GenStats, error) {
	start := time.Now()
	if cfg.Candidates == 0 {
		return GenStats{Elapsed: time.Since(start)}, ctx.Err()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Candidates {
		workers = cfg.Candidates
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultGenBatch
	}

	st := mech.ensureScan()
	pre, err := newTestPre(mech)
	if err != nil {
		// Config was validated at construction; failing here means the
		// mechanism was mutated invalid afterwards, which is a programming
		// error (Once panics the same way).
		panic(err)
	}

	// Nil slot entries (rejected or cancelled) are squeezed out by the
	// caller, so the released sequence follows candidate index order
	// whatever the goroutine scheduling.
	var (
		total  genCounters
		mu     sync.Mutex
		cursor atomic.Int64
	)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c genCounters
			var arena recordArena
			sc := newGenScratch(len(mech.Seeds.Meta.Attrs))
			seeder := rng.NewStreamSeeder(cfg.Seed)
			r := rng.New(0) // reseeded per candidate below
		claim:
			for {
				select {
				case <-done:
					break claim
				default:
				}
				hi := int(cursor.Add(int64(batch)))
				lo := hi - batch
				if lo >= cfg.Candidates {
					break
				}
				if hi > cfg.Candidates {
					hi = cfg.Candidates
				}
				seeder.Seek(cfg.IndexOffset + uint64(lo))
				for i := lo; i < hi; i++ {
					seeder.Reseed(r)
					// Scratch-buffer generation: only passing candidates are
					// copied out (through the arena); the rest cost zero
					// allocations.
					res := mech.onceFast(sc.rec, &sc.ps, st, &pre, r)
					c.cands++
					c.checked += int64(res.Checked)
					if res.SeedProb <= 0 {
						c.rejected++
					}
					if res.Pass {
						slots[i] = arena.clone(sc.rec)
						c.pass++
					}
				}
			}
			mu.Lock()
			total.cands += c.cands
			total.pass += c.pass
			total.checked += c.checked
			total.rejected += c.rejected
			mu.Unlock()
		}()
	}
	wg.Wait()

	stats := GenStats{
		Candidates:   int(total.cands),
		Released:     int(total.pass),
		SeedRejected: int(total.rejected),
		CheckedTotal: total.checked,
		Elapsed:      time.Since(start),
	}
	return stats, ctx.Err()
}

// GenerateTarget keeps drawing candidates until `target` records have been
// released or maxCandidates candidates have been drawn (0 = 100×target).
// It is the convenient entry point when a synthetic dataset of a given size
// is wanted and the pass rate is unknown.
func GenerateTarget(mech *Mechanism, target, maxCandidates int, workers int, seed uint64) (*dataset.Dataset, GenStats, error) {
	return GenerateTargetCtx(context.Background(), mech, target, maxCandidates, workers, seed)
}

// GenerateTargetCtx is GenerateTarget with cancellation: an aborted caller
// (e.g. a closed HTTP request) stops workers at the next candidate
// boundary, and what was released so far is returned together with ctx's
// error.
func GenerateTargetCtx(ctx context.Context, mech *Mechanism, target, maxCandidates int, workers int, seed uint64) (*dataset.Dataset, GenStats, error) {
	out := dataset.New(mech.Seeds.Meta)
	stats, err := GenerateTargetStream(ctx, mech, target, maxCandidates, workers, seed, func(batch []dataset.Record) error {
		for _, r := range batch {
			out.Append(r)
		}
		return nil
	})
	return out, stats, err
}

// GenerateTargetStream is the incremental form of GenerateTargetCtx: every
// batch of released records is handed to sink as soon as it is available
// (never more than `target` records in total), so a serving layer can
// stream synthetics while generation is still running. sink runs on the
// caller's goroutine, in deterministic order; a sink error aborts the run.
// The batch slice is reused between calls — sinks must not retain it past
// the call (the records themselves are theirs to keep). The batching
// schedule depends only on the released/candidate counts, which — by the
// GenerateCtx determinism contract — depend only on the seed, so the
// concatenation of all batches is identical for any worker count.
//
// The returned GenStats reports Released as the number of records actually
// delivered to the sink: candidates that passed the privacy test but were
// trimmed off an overshooting final chunk, or whose batch failed to
// deliver, are not counted, so ledger settlement and client-visible
// trailers can use Released directly.
func GenerateTargetStream(ctx context.Context, mech *Mechanism, target, maxCandidates int, workers int, seed uint64, sink func(batch []dataset.Record) error) (GenStats, error) {
	if target <= 0 {
		return GenStats{}, fmt.Errorf("core: target must be positive, got %d", target)
	}
	if maxCandidates <= 0 {
		maxCandidates = 100 * target
	}
	// maxChunk bounds one batch's candidate count, and with it the size of
	// the per-candidate slot buffer, whatever target a caller asks for.
	const maxChunk = 1 << 20
	var total GenStats
	var slots, rows []dataset.Record
	start := time.Now()
	chunk := target
	for total.Released < target && total.Candidates < maxCandidates {
		remaining := maxCandidates - total.Candidates
		if chunk > remaining {
			chunk = remaining
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
		// Reuse the slot buffer across chunks; generateSlots requires the
		// prefix it writes into to be nil-cleared.
		if cap(slots) < chunk {
			slots = make([]dataset.Record, chunk)
		} else {
			slots = slots[:chunk]
			for i := range slots {
				slots[i] = nil
			}
		}
		// One seed for the whole run; batches advance IndexOffset so every
		// candidate draws a distinct stream keyed on (seed, global index).
		stats, err := generateSlots(ctx, mech, GenConfig{
			Candidates:  chunk,
			Workers:     workers,
			Seed:        seed,
			IndexOffset: uint64(total.Candidates),
		}, slots)
		total.Candidates += stats.Candidates
		total.CheckedTotal += stats.CheckedTotal
		total.SeedRejected += stats.SeedRejected
		rows = rows[:0]
		keep := target - total.Released
		for _, y := range slots {
			if y != nil {
				rows = append(rows, y)
				if len(rows) == keep {
					break // overshoot: trimmed rows are never delivered, never counted
				}
			}
		}
		var sinkErr error
		if len(rows) > 0 {
			// Deliver even when the chunk was cancelled mid-run, so "what was
			// released so far" really reaches the caller — but count only what
			// the sink accepted: a failed client write is not a release.
			sinkStart := time.Now()
			sinkErr = sink(rows)
			total.SinkElapsed += time.Since(sinkStart)
			if sinkErr == nil {
				total.Released += len(rows)
			}
		}
		if err != nil {
			total.Elapsed = time.Since(start)
			if sinkErr != nil {
				return total, errors.Join(err, sinkErr)
			}
			return total, err
		}
		if sinkErr != nil {
			total.Elapsed = time.Since(start)
			return total, sinkErr
		}
		// Adapt the next chunk to the observed pass rate.
		need := target - total.Released
		if need > 0 {
			rate := stats.PassRate()
			if rate < 0.01 {
				rate = 0.01
			}
			chunk = int(float64(need)/rate) + 1
		}
	}
	total.Elapsed = time.Since(start)
	if total.Released < target {
		return total, fmt.Errorf("core: released only %d/%d records after %d candidates", total.Released, target, total.Candidates)
	}
	return total, nil
}
