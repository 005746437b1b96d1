package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	sgf "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestWorkerPoolElasticGrants(t *testing.T) {
	p := NewWorkerPool(4)
	ctx := context.Background()

	// Unspecified parallelism defaults to half the pool.
	got, release, err := p.Acquire(ctx, 0)
	if err != nil || got != 2 {
		t.Fatalf("Acquire(0) = %d, %v; want default grant of 2", got, err)
	}
	release()

	// An explicit ask for everything is capped at size-1: one request may
	// never monopolize the pool.
	got, release, err = p.Acquire(ctx, 4)
	if err != nil || got != 3 {
		t.Fatalf("Acquire(4) = %d, %v; want monopoly cap of 3", got, err)
	}
	if p.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", p.InUse())
	}

	// One token left: a newcomer gets it without blocking.
	got2, rel2, err := p.Acquire(ctx, 2)
	if err != nil || got2 != 1 {
		t.Fatalf("Acquire(2) with 1 free = %d, %v; want elastic grant of 1", got2, err)
	}

	// Pool exhausted: the next acquire must respect cancellation.
	ctx2, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, _, err := p.Acquire(ctx2, 2); err == nil {
		t.Fatal("Acquire on exhausted pool returned without error")
	}

	release()
	rel2()
	if p.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", p.InUse())
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
