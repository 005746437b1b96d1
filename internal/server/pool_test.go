package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sgf "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// TestWorkerPoolLending pins the work-conserving grant: Acquire takes one
// token and blocks, honouring its context, only on an empty pool; Wanted
// reports exactly a blocked Acquire; Borrow takes idle tokens without
// blocking, and none while an Acquire is blocked; Return hands borrowed
// tokens back, counting those returned to a waiting Acquire as recalled.
func TestWorkerPoolLending(t *testing.T) {
	p := NewWorkerPool(4)
	ctx := context.Background()

	// While an Acquire is blocked, Borrow lends nothing, not even a token
	// that is idle for the moment (returned before the blocked caller took
	// it). The blocked caller is simulated, so the tokens stay idle.
	p.waiting.Add(1)
	if got := p.Borrow(4); got != 0 || !p.Wanted() {
		t.Fatalf("Borrow(4) while an Acquire is blocked = %d, want 0", got)
	}
	p.waiting.Add(-1)

	rel1, err := p.Acquire(ctx)
	if err != nil || p.InUse() != 1 {
		t.Fatalf("Acquire = %v with %d in use; want one token", err, p.InUse())
	}
	// A lone holder may borrow every idle token, and no more.
	if got := p.Borrow(8); got != 3 {
		t.Fatalf("Borrow(8) with 3 idle tokens = %d", got)
	}
	if got := p.Borrow(1); got != 0 {
		t.Fatalf("Borrow(1) on an empty pool = %d", got)
	}
	if p.Wanted() {
		t.Fatal("Wanted with no Acquire blocked")
	}

	// An empty pool blocks Acquire, which gives up with its context and is
	// no longer wanted.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on an empty pool = %v, want the context's deadline", err)
	}
	if p.Wanted() {
		t.Fatal("Wanted after the blocked Acquire gave up")
	}

	// A blocked Acquire is wanted until a returned token reaches it.
	acquired := make(chan func(), 1)
	go func() {
		rel, err := p.Acquire(ctx)
		if err != nil {
			rel = nil
		}
		acquired <- rel
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !p.Wanted() {
		if time.Now().After(deadline) {
			t.Fatal("a blocked Acquire never reported Wanted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Borrow(1); got != 0 {
		t.Fatalf("Borrow(1) while an Acquire is blocked = %d, want 0", got)
	}

	// A borrowed token returned to a blocked Acquire counts as recalled;
	// one returned to an idle pool does not.
	p.Return(1)
	rel2 := <-acquired
	if rel2 == nil {
		t.Fatal("the blocked Acquire failed")
	}
	if p.Wanted() {
		t.Fatal("Wanted after the blocked Acquire got its token")
	}
	p.Return(2)
	if b, r := p.borrowed.Load(), p.recalled.Load(); b != 3 || r != 1 {
		t.Fatalf("borrowed %d, recalled %d; want 3 and 1", b, r)
	}
	rel1()
	rel2()
	if p.InUse() != 0 {
		t.Fatalf("InUse after every release and return = %d, want 0", p.InUse())
	}
}

// tinyFitData builds a minimal dataset the registry can fit quickly.
func tinyFitData(seed uint64) (*dataset.Dataset, dataset.CleanStats) {
	meta := dataset.MustMetadata(
		dataset.NewCategorical("A", "0", "1"),
		dataset.NewCategorical("B", "x", "y", "z"),
	)
	d := dataset.New(meta)
	r := rng.New(seed)
	for i := 0; i < 60; i++ {
		a := uint16(r.Intn(2))
		b := uint16(r.Intn(3))
		d.Append(dataset.Record{a, b})
	}
	return d, dataset.CleanStats{Total: 60, Clean: 60}
}

func waitReady(t *testing.T, e *ModelEntry) {
	t.Helper()
	if _, err := e.Wait(nil); err != nil {
		t.Fatalf("fit failed: %v", err)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	reg := NewRegistry(2, 0, 0, NewMetrics(), nil)

	data, clean := tinyFitData(1)
	e1, cached, err := reg.Open("1111111111111111aa", data, sgf.FitOptions{}, clean)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first open reported cached")
	}
	waitReady(t, e1)
	e2, _, _ := reg.Open("2222222222222222aa", data, sgf.FitOptions{}, clean)
	waitReady(t, e2)

	// Touch e1 so e2 is the LRU victim.
	if _, ok := reg.Get(e1.ID); !ok {
		t.Fatal("e1 disappeared")
	}
	e3, _, _ := reg.Open("3333333333333333aa", data, sgf.FitOptions{}, clean)
	waitReady(t, e3)

	if reg.Len() != 2 {
		t.Fatalf("registry holds %d models, want 2", reg.Len())
	}
	if _, ok := reg.Get(e2.ID); ok {
		t.Error("LRU entry e2 survived eviction")
	}
	if _, ok := reg.Get(e1.ID); !ok {
		t.Error("recently used e1 was evicted")
	}

	// Reopening the evicted key must fit anew, not resurrect the old entry.
	e2b, cached, err := reg.Open("2222222222222222aa", data, sgf.FitOptions{}, clean)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("evicted key reported as cache hit")
	}
	waitReady(t, e2b)
}

func TestRegistryPendingFitLimit(t *testing.T) {
	reg := NewRegistry(8, 1, 2, NewMetrics(), nil)
	gate := make(chan struct{})
	reg.fitHook = func() { <-gate }
	data, clean := tinyFitData(3)

	e1, _, err := reg.Open("aaaaaaaaaaaaaaaa01", data, sgf.FitOptions{}, clean)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := reg.Open("aaaaaaaaaaaaaaaa02", data, sgf.FitOptions{}, clean)
	if err != nil {
		t.Fatal(err)
	}
	// Two unfinished fits: the third must be rejected...
	if _, _, err := reg.Open("aaaaaaaaaaaaaaaa03", data, sgf.FitOptions{}, clean); err != ErrTooManyFits {
		t.Fatalf("third open err = %v, want ErrTooManyFits", err)
	}
	// ...but re-opening an admitted key is a cache hit, not a new fit.
	if _, cached, err := reg.Open("aaaaaaaaaaaaaaaa01", data, sgf.FitOptions{}, clean); err != nil || !cached {
		t.Fatalf("reopen of pending key: cached=%v err=%v, want cache hit", cached, err)
	}

	close(gate)
	waitReady(t, e1)
	waitReady(t, e2)
	// With the backlog drained, admissions resume.
	e3, _, err := reg.Open("aaaaaaaaaaaaaaaa03", data, sgf.FitOptions{}, clean)
	if err != nil {
		t.Fatalf("open after drain: %v", err)
	}
	waitReady(t, e3)
}

func TestRegistryDeduplicatesConcurrentOpens(t *testing.T) {
	reg := NewRegistry(4, 0, 0, NewMetrics(), nil)
	data, clean := tinyFitData(2)

	const n = 16
	entries := make([]*ModelEntry, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			e, _, _ := reg.Open("4444444444444444aa", data, sgf.FitOptions{}, clean)
			entries[i] = e
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent opens of one key produced distinct entries")
		}
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d entries, want 1", reg.Len())
	}
	waitReady(t, entries[0])
}

// TestRegistryCountsFitBeforeWaitersWake pins the order at the end of a
// fit: the outcome counter moves before the entry's waiters wake, so a
// client that waited on a fit never reads the counter before it moved.
// The test holds r.mu across the wait, so the fit goroutine cannot get
// past the bookkeeping that takes it.
func TestRegistryCountsFitBeforeWaitersWake(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend string
		counter func(*Metrics) *int64
	}{
		{"fitted", "", func(m *Metrics) *int64 { return &m.modelsFitted }},
		{"failed", "no-such-backend", func(m *Metrics) *int64 { return &m.modelsFailed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			reg := NewRegistry(4, 0, 0, m, nil)
			gate := make(chan struct{})
			reg.fitHook = func() { <-gate }
			data, clean := tinyFitData(5)
			e, _, err := reg.Open("cccccccccccccccc01", data, sgf.FitOptions{Backend: tc.backend}, clean)
			if err != nil {
				t.Fatal(err)
			}
			reg.mu.Lock()
			close(gate)
			_, ferr := e.Wait(nil)
			got := atomic.LoadInt64(tc.counter(m))
			reg.mu.Unlock()
			if (ferr != nil) != (tc.backend != "") {
				t.Fatalf("fit error = %v", ferr)
			}
			if got != 1 {
				t.Fatalf("counter read %d after the fit's waiters woke, want 1", got)
			}
		})
	}
}

// hookSynth draws through a fitted model's synthesizer and runs a hook
// before a run's n-th draw, so a test can act at a known point of a chunk.
type hookSynth struct {
	core.Synthesizer
	drawn atomic.Int64
	at    map[int64]func()
}

func (h *hookSynth) GenerateInto(dst, seed dataset.Record, r *rng.RNG) {
	if hook := h.at[h.drawn.Add(1)]; hook != nil {
		hook()
	}
	h.Synthesizer.GenerateInto(dst, seed, r)
}

// TestPoolLendRecallsForNewcomer pins the newcomer bound on a pool of 2.
// One request holds a token and lends the other for a chunk of 64
// batches. A second request blocks in Acquire after the first batch, and
// must get its token when the borrowed worker finishes its current batch:
// the chunk's last batch waits for it (for at most 10 s, which reads as a
// failure), so a token handed over only at the end of the stream fails.
// Both lending counters move, and /metrics renders them.
func TestPoolLendRecallsForNewcomer(t *testing.T) {
	const batch, chunk = 256, 64 * 256
	data, _ := tinyFitData(7)
	fm, err := sgf.Fit(data, sgf.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := fm.Mechanism(sgf.SynthOptions{Records: chunk, K: 3, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := NewWorkerPool(2)
	ctx := context.Background()
	release, err := p.Acquire(ctx) // the lending request's own token
	if err != nil {
		t.Fatal(err)
	}

	var newcomer func()
	got := make(chan struct{})
	var late atomic.Bool
	h := &hookSynth{Synthesizer: mech.Synth}
	h.at = map[int64]func(){
		// After the first batch a second request arrives and blocks: both
		// tokens are out, one held and one lent.
		batch: func() {
			go func() {
				if rel, err := p.Acquire(ctx); err == nil {
					newcomer = rel
					close(got)
				}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for !p.Wanted() && time.Now().Before(deadline) {
				select {
				case <-got: // blocked, recalled a worker and got it
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		},
		chunk - batch + 1: func() {
			select {
			case <-got:
			case <-time.After(10 * time.Second):
				late.Store(true)
			}
		},
	}
	lending := &core.Mechanism{Synth: h, Seeds: mech.Seeds, Test: mech.Test, Scan: mech.Scan, Lend: p}
	stats, _ := core.GenerateTargetStream(ctx, lending, chunk, chunk, 2, 1, func([]dataset.Record) error { return nil })
	release()
	if late.Load() {
		t.Fatal("the blocked request got no token before the lending chunk's last batch")
	}
	if stats.Candidates != chunk {
		t.Fatalf("the lending run drew %d candidates, want one chunk of %d", stats.Candidates, chunk)
	}
	<-got
	newcomer()
	if b, r := p.borrowed.Load(), p.recalled.Load(); b != 1 || r != 1 {
		t.Fatalf("borrowed %d, recalled %d; want 1 and 1", b, r)
	}
	var out strings.Builder
	p.writeMetrics(&out)
	for _, line := range []string{"sgfd_workers_borrowed_total 1\n", "sgfd_workers_recalled_total 1\n"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("/metrics lending lines %q lack %q", out.String(), line)
		}
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse after both requests = %d, want 0", p.InUse())
	}
}
