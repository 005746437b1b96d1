package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// referenceChunkedStream is GenerateTargetStream's chunk loop spelled out
// over GenerateCtx: each chunk is generated to completion, its released
// records are trimmed at the target and delivered at once, and the next
// chunk is sized from this chunk's pass rate. The streaming kernel must
// deliver the same records with the same statistics; only when records
// leave may differ.
func referenceChunkedStream(mech *Mechanism, target, maxCandidates, workers int, seed uint64) ([]dataset.Record, GenStats, error) {
	if maxCandidates <= 0 {
		maxCandidates = 100 * target
	}
	var total GenStats
	var out []dataset.Record
	chunk := target
	for total.Released < target && total.Candidates < maxCandidates {
		chunk = min(chunk, maxCandidates-total.Candidates, 1<<20)
		ds, stats, err := GenerateCtx(context.Background(), mech, GenConfig{
			Candidates:  chunk,
			Workers:     workers,
			Seed:        seed,
			IndexOffset: uint64(total.Candidates),
		})
		if err != nil {
			return out, total, err
		}
		total.Candidates += stats.Candidates
		total.CheckedTotal += stats.CheckedTotal
		total.SeedRejected += stats.SeedRejected
		rows := ds.Rows()
		if keep := target - total.Released; len(rows) > keep {
			rows = rows[:keep]
		}
		out = append(out, rows...)
		total.Released += len(rows)
		if need := target - total.Released; need > 0 {
			rate := max(stats.PassRate(), 0.01)
			chunk = int(float64(need)/rate) + 1
		}
	}
	if total.Released < target {
		return out, total, fmt.Errorf("released only %d/%d records", total.Released, target)
	}
	return out, total, nil
}

// seededLender lends 0–7 workers per Borrow and switches Wanted on and
// off, both from a seeded RNG, so lending runs cover chunks that borrow
// none, some or all they ask for, and borrowed workers recalled after any
// batch.
type seededLender struct {
	mu     sync.Mutex
	r      *rng.RNG
	wanted bool
	out    int // borrowed and not yet returned
	lent   int
}

func (l *seededLender) Borrow(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := min(n, l.r.Intn(8))
	l.out += got
	l.lent += got
	return got
}

func (l *seededLender) Return(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out -= n
}

func (l *seededLender) Wanted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.r.Intn(4) == 0 {
		l.wanted = !l.wanted
	}
	return l.wanted
}

// TestStreamMatchesChunkedReference pins what GenerateTargetStream
// delivers — the records in order and all four GenStats counts — against
// the chunk-then-deliver reference, over every kernel shape (the capped
// walk included, so CheckedTotal is non-zero), at targets whose first
// chunk is one batch and many, at several worker counts, with a lender
// that grants and recalls workers at random, and with candidate budgets
// that leave the run short of its target.
func TestStreamMatchesChunkedReference(t *testing.T) {
	const seed = 17
	cases := []struct{ target, maxCandidates int }{
		{1, 0}, {37, 0}, {700, 0}, {3000, 0},
		{700, 400}, {3000, 4000},
	}
	inputs := []struct {
		workers int
		lend    bool
	}{{1, false}, {3, false}, {8, false}, {8, true}}
	lent := 0
	for name, mech := range batchMechs(t) {
		t.Run(name, func(t *testing.T) {
			for _, c := range cases {
				wantRows, want, wantErr := referenceChunkedStream(mech, c.target, c.maxCandidates, 1, seed)
				for _, in := range inputs {
					tag := fmt.Sprintf("target=%d max=%d workers=%d lend=%v", c.target, c.maxCandidates, in.workers, in.lend)
					var lend *seededLender
					if in.lend {
						lend = &seededLender{r: rng.New(uint64(c.target))}
						mech.Lend = lend
					}
					var rows []dataset.Record
					stats, err := GenerateTargetStream(context.Background(), mech, c.target, c.maxCandidates, in.workers, seed,
						func(batch []dataset.Record) error {
							rows = append(rows, batch...)
							return nil
						})
					mech.Lend = nil
					if lend != nil {
						if lend.out != 0 {
							t.Fatalf("%s: %d borrowed workers not returned", tag, lend.out)
						}
						lent += lend.lent
					}
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s: error %v, reference error %v", tag, err, wantErr)
					}
					if len(rows) != len(wantRows) {
						t.Fatalf("%s: delivered %d records, reference %d", tag, len(rows), len(wantRows))
					}
					for i := range rows {
						if !rows[i].Equal(wantRows[i]) {
							t.Fatalf("%s: record %d differs from the reference", tag, i)
						}
					}
					if stats.Candidates != want.Candidates || stats.Released != want.Released ||
						stats.SeedRejected != want.SeedRejected || stats.CheckedTotal != want.CheckedTotal {
						t.Fatalf("%s: stats %+v, reference %+v", tag, stats, want)
					}
					if walks(mech) && stats.CheckedTotal == 0 {
						t.Fatalf("%s: the capped walk reported no checked seeds", tag)
					}
				}
			}
		})
	}
	if lent == 0 {
		t.Fatal("the lender never lent a worker")
	}
}

// recallLender lends every worker asked for, and is wanted once its flag
// is set.
type recallLender struct {
	wanted    atomic.Bool
	out, lent atomic.Int64
	returned  chan struct{} // closed by the first Return
	once      sync.Once
}

func (l *recallLender) Borrow(n int) int {
	l.out.Add(int64(n))
	l.lent.Add(int64(n))
	return n
}

func (l *recallLender) Return(n int) {
	l.out.Add(-int64(n))
	l.once.Do(func() { close(l.returned) })
}

func (l *recallLender) Wanted() bool { return l.wanted.Load() }

// gateSynth counts the candidates a run draws. Once a batch's worth is
// drawn it sets its lender wanted, and the draw that starts the chunk's
// last batch's worth waits until a borrowed worker has returned (for at
// most 10 s, which reads as a failure).
type gateSynth struct {
	Synthesizer
	lend           *recallLender
	drawn          atomic.Int64
	wantAt, gateAt int64
	late           atomic.Bool
}

func (g *gateSynth) GenerateInto(dst, seed dataset.Record, r *rng.RNG) {
	switch g.drawn.Add(1) {
	case g.wantAt:
		g.lend.wanted.Store(true)
	case g.gateAt:
		select {
		case <-g.lend.returned:
		case <-time.After(10 * time.Second):
			g.late.Store(true)
		}
	}
	g.Synthesizer.GenerateInto(dst, seed, r)
}

// TestStreamLendRecall pins the recall at batch boundaries: a run borrows
// what its cap allows, its lender turns wanted after the first batch, and
// a borrowed worker must return before the chunk's last batch while the
// run's own worker finishes the chunk. Every borrowed worker is returned
// by the end of the run, and the stream is byte-identical to a run that
// never borrowed.
func TestStreamLendRecall(t *testing.T) {
	base := paperMech(t)
	const chunk = 64 * defaultGenBatch // maxCandidates = target: one chunk
	collect := func(mech *Mechanism, workers int) ([]dataset.Record, GenStats) {
		var rows []dataset.Record
		stats, _ := GenerateTargetStream(context.Background(), mech, chunk, chunk, workers, 5, func(batch []dataset.Record) error {
			rows = append(rows, batch...)
			return nil
		})
		return rows, stats
	}
	wantRows, want := collect(base, 1)
	for _, workers := range []int{2, 4} {
		lend := &recallLender{returned: make(chan struct{})}
		g := &gateSynth{Synthesizer: base.Synth, lend: lend, wantAt: defaultGenBatch, gateAt: chunk - defaultGenBatch + 1}
		mech := &Mechanism{Synth: g, Seeds: base.Seeds, Test: base.Test, Scan: base.ensureScan(), Lend: lend}
		rows, stats := collect(mech, workers)
		if got := lend.lent.Load(); got != int64(workers-1) {
			t.Fatalf("workers=%d: borrowed %d workers, want %d", workers, got, workers-1)
		}
		if out := lend.out.Load(); out != 0 {
			t.Fatalf("workers=%d: %d borrowed workers not returned at the end of the run", workers, out)
		}
		if g.late.Load() {
			t.Fatalf("workers=%d: no borrowed worker returned before the chunk's last batch", workers)
		}
		if len(rows) != len(wantRows) {
			t.Fatalf("workers=%d: delivered %d records, %d without lending", workers, len(rows), len(wantRows))
		}
		for i := range rows {
			if !rows[i].Equal(wantRows[i]) {
				t.Fatalf("workers=%d: record %d differs from the run without lending", workers, i)
			}
		}
		if stats.Candidates != want.Candidates || stats.Released != want.Released ||
			stats.SeedRejected != want.SeedRejected || stats.CheckedTotal != want.CheckedTotal {
			t.Fatalf("workers=%d: stats %+v, without lending %+v", workers, stats, want)
		}
	}
}

// streamMech builds a mechanism with a mid-range pass rate (~0.65: few
// seeds, randomized threshold) so target runs genuinely under-deliver their
// first chunk and overshoot their final one.
func streamMech(t testing.TB) *Mechanism {
	t.Helper()
	model := tinyModel(t, 56)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 60, 57)
	mech, err := NewMechanism(syn, seeds, TestConfig{
		K: 14, Gamma: 1.2, Randomized: true, Eps0: 0.4, MaxPlausible: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

// streamCase is one stream test configuration. Targets of a few dozen
// records fit each chunk in one candidate batch, so a chunk makes at most
// one sink call; a 1,000-record target's first chunk spans four batches,
// which stream while they are generated.
type streamCase struct{ target, workers int }

func (c streamCase) String() string { return fmt.Sprintf("target=%d workers=%d", c.target, c.workers) }

// TestStreamReleasedMatchesDelivered pins the over-reporting fix: when the
// final chunk overshoots the target, GenStats.Released must equal what the
// sink received, not the chunk pass counts.
func TestStreamReleasedMatchesDelivered(t *testing.T) {
	mech := streamMech(t)
	for _, c := range []streamCase{{37, 3}, {1000, 1}, {1000, 3}} {
		for seed := uint64(1); seed <= 5; seed++ {
			delivered := 0
			stats, err := GenerateTargetStream(context.Background(), mech, c.target, 0, c.workers, seed, func(batch []dataset.Record) error {
				delivered += len(batch)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if delivered != c.target {
				t.Fatalf("%v seed %d: sink received %d records, want %d", c, seed, delivered, c.target)
			}
			if stats.Released != delivered {
				t.Fatalf("%v seed %d: stats.Released = %d, sink received %d", c, seed, stats.Released, delivered)
			}
		}
	}
}

// TestStreamSinkErrorNotCounted pins the swallowed-error fix: a batch the
// sink rejects is not counted as released, the error surfaces, and the sink
// is not called again.
func TestStreamSinkErrorNotCounted(t *testing.T) {
	mech := streamMech(t)
	boom := errors.New("client gone")
	for _, c := range []streamCase{{30, 2}, {1000, 1}, {1000, 3}} {
		calls := 0
		stats, err := GenerateTargetStream(context.Background(), mech, c.target, 0, c.workers, 3, func(batch []dataset.Record) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%v: stream error = %v, want the sink's error", c, err)
		}
		if calls != 1 {
			t.Fatalf("%v: sink called %d times after failing, want 1", c, calls)
		}
		if stats.Released != 0 {
			t.Fatalf("%v: stats.Released = %d after a failed delivery, want 0", c, stats.Released)
		}
	}
}

// TestStreamCancelKeepsDeliveredCount cancels from inside the sink and
// checks the stats still reflect exactly the delivered records.
func TestStreamCancelKeepsDeliveredCount(t *testing.T) {
	mech := streamMech(t)
	for _, workers := range []int{1, 2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		stats, err := GenerateTargetStream(ctx, mech, 1000, 0, workers, 3, func(batch []dataset.Record) error {
			delivered += len(batch)
			cancel() // client walks away after the first batch
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: stream error = %v, want context.Canceled", workers, err)
		}
		if delivered == 0 {
			t.Fatalf("workers=%d: sink never ran", workers)
		}
		if stats.Released != delivered {
			t.Fatalf("workers=%d: stats.Released = %d, sink received %d", workers, stats.Released, delivered)
		}
	}
}

// TestStreamBatchSliceReuse documents the sink contract: the batch slice is
// invalidated by the next batch, but the records are the sink's to keep —
// collected output must match a non-streaming run.
func TestStreamBatchSliceReuse(t *testing.T) {
	mech := streamMech(t)
	for _, c := range []streamCase{{40, 2}, {1000, 1}, {1000, 3}} {
		var kept []dataset.Record
		_, err := GenerateTargetStream(context.Background(), mech, c.target, 0, c.workers, 9, func(batch []dataset.Record) error {
			kept = append(kept, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := referenceChunkedStream(mech, c.target, 0, c.workers, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) != len(rows) {
			t.Fatalf("%v: streamed %d records, collected %d", c, len(kept), len(rows))
		}
		for i := range kept {
			if !kept[i].Equal(rows[i]) {
				t.Fatalf("%v: record %d: streamed %v, collected %v", c, i, kept[i], rows[i])
			}
		}
	}
}

// TestStreamDeliversBeforeChunkEnds pins that a multi-batch chunk streams:
// a sink that fails on its first call must stop the chunk's workers before
// the chunk's candidates are all drawn. A loop that delivers only after the
// whole chunk fails here.
func TestStreamDeliversBeforeChunkEnds(t *testing.T) {
	mech := paperMech(t)
	const chunk = 100000 // maxCandidates = target: the whole run is one chunk
	boom := errors.New("client gone")
	for _, workers := range []int{1, 3} {
		calls := 0
		stats, err := GenerateTargetStream(context.Background(), mech, chunk, chunk, workers, 5, func(batch []dataset.Record) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("workers=%d: error %v after %d sink calls, want the sink's error after 1", workers, err, calls)
		}
		if stats.Candidates >= chunk {
			t.Fatalf("workers=%d: drew all %d candidates of the chunk before the first delivery", workers, stats.Candidates)
		}
		if stats.Released != 0 {
			t.Fatalf("workers=%d: stats.Released = %d after a failed delivery, want 0", workers, stats.Released)
		}
	}
}

// TestStreamSinkCallsBounded pins the report rule's bound: one chunk of nb
// candidate batches makes at most ⌊log₂ nb⌋ + 2 sink calls, however the
// workers are scheduled.
func TestStreamSinkCallsBounded(t *testing.T) {
	mech := paperMech(t)
	const chunk = 20000 // maxCandidates = target: the whole run is one chunk
	nb := (chunk + defaultGenBatch - 1) / defaultGenBatch
	bound := bits.Len(uint(nb)) - 1 + 2
	for _, workers := range []int{1, 3, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			calls := 0
			stats, _ := GenerateTargetStream(context.Background(), mech, chunk, chunk, workers, seed, func(batch []dataset.Record) error {
				calls++
				return nil
			})
			if stats.Candidates != chunk {
				t.Fatalf("workers=%d seed=%d: drew %d candidates, want one chunk of %d", workers, seed, stats.Candidates, chunk)
			}
			if calls < 1 || calls > bound {
				t.Fatalf("workers=%d seed=%d: %d sink calls for %d batches, want 1..%d", workers, seed, calls, nb, bound)
			}
		}
	}
}

// drawSynth counts the candidates a run draws, and how many draws are in
// progress.
type drawSynth struct {
	Synthesizer
	drawn, drawing atomic.Int64
}

func (d *drawSynth) GenerateInto(dst, seed dataset.Record, r *rng.RNG) {
	d.drawing.Add(1)
	d.Synthesizer.GenerateInto(dst, seed, r)
	d.drawn.Add(1)
	d.drawing.Add(-1)
}

// TestStreamCallerReportsBetweenBatches pins who delivers a one-worker
// run: its only worker is the calling goroutine, which reports between its
// own batches. So the first sink call comes after exactly one batch of
// draws, and no candidate is drawn while the sink runs, however long it
// takes.
func TestStreamCallerReportsBetweenBatches(t *testing.T) {
	base := paperMech(t)
	const chunk = 16 * defaultGenBatch // maxCandidates = target: one chunk
	for seed := uint64(1); seed <= 5; seed++ {
		d := &drawSynth{Synthesizer: base.Synth}
		mech := &Mechanism{Synth: d, Seeds: base.Seeds, Test: base.Test, Scan: base.ensureScan()}
		calls := 0
		GenerateTargetStream(context.Background(), mech, chunk, chunk, 1, seed, func(batch []dataset.Record) error {
			calls++
			at := d.drawn.Load()
			if calls == 1 && at != defaultGenBatch {
				t.Errorf("seed %d: first sink call after %d draws, want %d", seed, at, defaultGenBatch)
			}
			time.Sleep(time.Millisecond) // a worker beside the sink would draw meanwhile
			if n, now := d.drawing.Load(), d.drawn.Load(); n != 0 || now != at {
				t.Errorf("seed %d: sink call %d overlapped draws (%d → %d drawn, %d in progress)", seed, calls, at, now, n)
			}
			return nil
		})
		if calls == 0 {
			t.Fatalf("seed %d: sink never called", seed)
		}
	}
}

// TestStreamLendCancelledBeforeFirstClaim pins a lending run whose ctx is
// cancelled before its first claim: it draws nothing, never calls the
// sink, and holds no borrowed worker when it returns.
func TestStreamLendCancelledBeforeFirstClaim(t *testing.T) {
	base := paperMech(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{2, 4} {
		d := &drawSynth{Synthesizer: base.Synth}
		lend := &recallLender{returned: make(chan struct{})}
		mech := &Mechanism{Synth: d, Seeds: base.Seeds, Test: base.Test, Scan: base.ensureScan(), Lend: lend}
		stats, err := GenerateTargetStream(ctx, mech, 64*defaultGenBatch, 0, workers, 5, func([]dataset.Record) error {
			t.Errorf("workers=%d: sink called", workers)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: stream error = %v, want context.Canceled", workers, err)
		}
		if stats.Candidates != 0 || d.drawn.Load() != 0 {
			t.Fatalf("workers=%d: drew %d candidates (%d counted), want none", workers, d.drawn.Load(), stats.Candidates)
		}
		if out := lend.out.Load(); out != 0 {
			t.Fatalf("workers=%d: %d borrowed workers not returned", workers, out)
		}
	}
}
