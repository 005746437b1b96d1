package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// Lend optionally lends generation runs idle workers beyond their own.
	// With a Lender, a run's Workers caps its parallelism: it keeps one
	// worker of its own and, once that worker has claimed the first batch
	// of a chunk of more than one candidate batch, borrows up to Workers−1
	// more (never more than the chunk has batches to spare), each of which
	// returns at its next batch boundary once Lend.Wanted reports true.
	// With nil, a run uses the workers it asked for, up to one per batch.
	// Either way the output is unchanged.
	Lend Lender

	scanOnce sync.Once
}

// Lender lends idle workers to generation runs (see Mechanism.Lend): a
// serving layer whose worker pool is shared by concurrent requests lets a
// request borrow what is idle, and recalls it as soon as another request
// waits. Borrow is called on the run's calling goroutine; Return and
// Wanted are called by its borrowed workers, concurrently.
type Lender interface {
	// Borrow takes up to n idle workers without blocking and returns how
	// many it took, possibly none.
	Borrow(n int) int
	// Return gives back n borrowed workers.
	Return(n int)
	// Wanted reports whether someone waits for a worker: a borrowed worker
	// that sees it claims no further batch and returns.
	Wanted() bool
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

// cacheLine is the padding, in bytes, kept around every per-worker region
// the candidate loop writes.
const cacheLine = 64

// genScratch is a generation worker's reusable state: its RNG, the
// candidate record buffer and the probe, allocated once per worker instead
// of once per candidate. The loop writes all of it many times per
// candidate, so none of it may share a cache line with another worker's
// state: the struct and every buffer keep at least a cache line unused
// before and after what the loop writes.
type genScratch struct {
	_   [cacheLine]byte
	r   rng.RNG
	rec dataset.Record
	ps  Probe
	_   [cacheLine]byte
}

// newGenScratch sizes every buffer the loop writes for records of m
// attributes, so the probe's grow and make calls never reallocate them:
// the tail products (m+1), their partial sums and the partition memo (at
// most m each), and the prefix ranges (two per σ-position).
func newGenScratch(m int) *genScratch {
	sc := &genScratch{rec: padded[uint16](m)}
	sc.ps.tail = padded[float64](m + 1)
	sc.ps.cum = padded[float64](m)
	sc.ps.match = padded[bool](m)
	sc.ps.ranges = padded[int](2 * m)
	return sc
}

// padded returns a slice of n zero values whose backing array keeps at
// least a cache line unused on each side of them. Its capacity is n, so
// appending past it reallocates instead of writing into the padding.
func padded[T any](n int) []T {
	var zero T
	pad := (cacheLine + int(unsafe.Sizeof(zero)) - 1) / int(unsafe.Sizeof(zero))
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
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
	// SinkElapsed sums the time spent inside the caller's sink
	// (GenerateTargetStream only): delivery/flush time as opposed to
	// generation time, so a serving layer can report the two stages apart.
	// The sink runs on the calling goroutine's worker between its batches,
	// so it is a slice of Elapsed on that worker and overlaps only the
	// batches the run's other workers generate meanwhile.
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
	stats, err := generateSlots(ctx, mech, cfg, slots, nil)
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

// chunkProgress is the completed batch prefix of a reported chunk, shared
// by its workers. The worker on the calling goroutine reads it between its
// own batches to decide whether a report is due (see generateSlots).
type chunkProgress struct {
	mu     sync.Mutex
	done   []bool // done[b]: every candidate of batch b is in its slot
	prefix int    // leading batches done
	// stop asks workers to claim no further batch (a report failed).
	stop atomic.Bool
}

// newChunkProgress returns the shared progress of a chunk of nb batches,
// or nil when there is no report.
func newChunkProgress(report func(done int) error, nb int) *chunkProgress {
	if report == nil {
		return nil
	}
	return &chunkProgress{done: make([]bool, nb)}
}

// complete marks batch b done and returns the completed prefix.
func (p *chunkProgress) complete(b int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done[b] = true
	for p.prefix < len(p.done) && p.done[p.prefix] {
		p.prefix++
	}
	return p.prefix
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
//
// The calling goroutine runs the first worker. It claims batch 0 before
// any other worker starts, so a one-worker run starts no goroutine, and a
// run starts no more workers than the chunk has batches. With mech.Lend
// set, the chunk runs that one worker of its own plus what it borrows
// once batch 0 is claimed: up to cfg.Workers−1, and no more than the chunk
// has batches beyond the first, so a one-batch chunk never borrows. A
// borrowed worker polls Lend.Wanted before each claim, stops claiming once
// it reports true, and returns its worker when it stops; the calling
// goroutine's worker finishes whatever is left.
//
// A non-nil report is called by the calling goroutine's worker between its
// own batches, with a count done: slots [0, done) are final, and each
// call's done is at least the last one's. It reports the completed prefix
// of batches after its first batch and then whenever the prefix has at
// least doubled; after its last claim it waits for the other workers and
// reports the final prefix. So a chunk of nb batches is reported at most
// ⌊log₂ nb⌋ + 2 times, and no worker ever waits for a report. Every
// claimed batch completes, so the last report covers every candidate
// drawn, cancelled or not. A report error stops further claims and is
// returned, joined after ctx's error if both occur.
func generateSlots(ctx context.Context, mech *Mechanism, cfg GenConfig, slots []dataset.Record, report func(done int) error) (GenStats, error) {
	start := time.Now()
	if cfg.Candidates == 0 {
		return GenStats{Elapsed: time.Since(start)}, ctx.Err()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultGenBatch
	}
	nb := (cfg.Candidates + batch - 1) / batch
	own := min(workers, nb)
	lend := mech.Lend
	if lend != nil {
		own = 1
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
		wg     sync.WaitGroup
	)
	// Assigned once, so the worker closures capture prog by value: a run
	// that does not stream allocates nothing for it.
	prog := newChunkProgress(report, nb)
	done := ctx.Done()
	m := len(mech.Seeds.Meta.Attrs)
	// work runs one worker until the chunk has no batch left, ctx is
	// cancelled, a report fails or, for a borrowed worker, the lender wants
	// it back. The calling goroutine's worker (caller) starts the others
	// once it holds batch 0, and reports between its batches.
	var work func(lent, caller bool) error
	work = func(lent, caller bool) (reportErr error) {
		var c genCounters
		var arena recordArena
		sc := newGenScratch(m)
		seeder := rng.NewStreamSeeder(cfg.Seed)
		reported := 0 // the prefix of the caller's last report
	claim:
		for {
			select {
			case <-done:
				break claim
			default:
			}
			if prog != nil && prog.stop.Load() {
				break
			}
			if lent && lend.Wanted() {
				break
			}
			hi := int(cursor.Add(int64(batch)))
			lo := hi - batch
			if lo >= cfg.Candidates {
				break
			}
			if caller && lo == 0 {
				borrowed := 0
				if extra := min(workers, nb) - own; lend != nil && extra > 0 {
					borrowed = lend.Borrow(extra)
				}
				for w := 1; w < own+borrowed; w++ {
					wg.Add(1)
					go func(lent bool) {
						defer wg.Done()
						work(lent, false)
					}(w >= own)
				}
			}
			if hi > cfg.Candidates {
				hi = cfg.Candidates
			}
			seeder.Seek(cfg.IndexOffset + uint64(lo))
			for i := lo; i < hi; i++ {
				seeder.Reseed(&sc.r)
				// Scratch-buffer generation: only passing candidates are
				// copied out (through the arena); the rest cost zero
				// allocations.
				res := mech.onceFast(sc.rec, &sc.ps, st, &pre, &sc.r)
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
			if prog == nil {
				continue
			}
			if prefix := prog.complete(lo / batch); caller && prefix >= 2*reported {
				reported = prefix
				if reportErr = report(min(prefix*batch, cfg.Candidates)); reportErr != nil {
					prog.stop.Store(true)
					break
				}
			}
		}
		if lent {
			lend.Return(1)
		}
		mu.Lock()
		total.cands += c.cands
		total.pass += c.pass
		total.checked += c.checked
		total.rejected += c.rejected
		mu.Unlock()
		return reportErr
	}
	reportErr := work(false, true)
	wg.Wait()
	if prog != nil && reportErr == nil {
		reportErr = report(min(prog.prefix*batch, cfg.Candidates))
	}

	stats := GenStats{
		Candidates:   int(total.cands),
		Released:     int(total.pass),
		SeedRejected: int(total.rejected),
		CheckedTotal: total.checked,
		Elapsed:      time.Since(start),
	}
	if err := ctx.Err(); err != nil {
		if reportErr != nil {
			return stats, errors.Join(err, reportErr)
		}
		return stats, err
	}
	return stats, reportErr
}

// GenerateTargetCtx keeps drawing candidates until `target` records have
// been released or maxCandidates candidates have been drawn (0 =
// 100×target). It is the convenient entry point when a synthetic dataset of
// a given size is wanted and the pass rate is unknown. An aborted caller
// (e.g. a closed HTTP request) stops workers at the next batch boundary,
// and what was released so far is returned together with ctx's error.
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

// GenerateTargetStream is the incremental form of GenerateTargetCtx: the
// released records reach sink while generation is still running (never
// more than `target` records in total), so a serving layer can stream
// synthetics as they pass.
//
// Candidates are drawn in chunks, each sized from the previous chunk's pass
// rate, and every chunk runs to completion. A chunk is delivered while it
// runs: each newly completed prefix of its candidate batches
// (GenConfig.BatchSize) is handed to sink, the first after one batch and
// then whenever the completed prefix has at least doubled, so a chunk of
// nb batches makes at most ⌊log₂ nb⌋ + 2 sink calls. sink runs on the
// caller's goroutine, which is the chunk's first worker: it delivers
// between its own batches, so a delivery waits at most for one of them,
// and no other worker waits for sink. The batch slice is reused between
// calls — sinks must not retain it past the call (the records themselves
// are theirs to keep).
//
// Records arrive in candidate order, and the chunk schedule depends only
// on the released/candidate counts, which — by the GenerateCtx determinism
// contract — depend only on the seed, so the concatenation of all batches
// and the returned counts are identical for any worker count; only how the
// records are split into sink calls varies. A sink error stops the chunk's
// workers at their next claim and is returned; a cancelled ctx stops them
// the same way, and the records they completed are delivered first.
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
	// maxChunk bounds one chunk's candidate count, and with it the size of
	// the per-candidate slot buffer, whatever target a caller asks for.
	const maxChunk = 1 << 20
	var total GenStats
	var slots, rows []dataset.Record
	var scanned int // slots of the current chunk already delivered or trimmed
	// deliver hands sink the released records among slots [scanned, done),
	// trimmed at the target. It runs even when the chunk was cancelled, so
	// "what was released so far" really reaches the caller — but it counts
	// only what the sink accepted: a failed client write is not a release.
	deliver := func(done int) error {
		rows = rows[:0]
		// Overshoot past the target is trimmed: never delivered, never counted.
		for ; scanned < done && total.Released+len(rows) < target; scanned++ {
			if y := slots[scanned]; y != nil {
				rows = append(rows, y)
			}
		}
		if len(rows) == 0 {
			return nil
		}
		sinkStart := time.Now()
		err := sink(rows)
		total.SinkElapsed += time.Since(sinkStart)
		if err == nil {
			total.Released += len(rows)
		}
		return err
	}
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
		scanned = 0
		// One seed for the whole run; chunks advance IndexOffset so every
		// candidate draws a distinct stream keyed on (seed, global index).
		stats, err := generateSlots(ctx, mech, GenConfig{
			Candidates:  chunk,
			Workers:     workers,
			Seed:        seed,
			IndexOffset: uint64(total.Candidates),
		}, slots, deliver)
		total.Candidates += stats.Candidates
		total.CheckedTotal += stats.CheckedTotal
		total.SeedRejected += stats.SeedRejected
		if err != nil {
			total.Elapsed = time.Since(start)
			return total, err
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
