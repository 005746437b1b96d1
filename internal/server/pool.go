package server

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
)

// WorkerPool is a bounded token pool shared by every synthesize request of
// the server, so concurrent requests cannot oversubscribe the CPU: the
// generation workers running across all in-flight requests never outnumber
// the pool's tokens.
//
// The pool is work-conserving. A request holds one token for its whole
// stream (Acquire) and borrows idle tokens for each chunk of candidates
// (Borrow), so a lone request runs on every token. A borrowed worker hands
// its token back (Return) at its next batch boundary once another request
// blocks in Acquire (Wanted), and Borrow lends nothing while one does.
// While any token is on loan, a newcomer therefore waits at most for one
// candidate batch of a lending request, however long its stream is; only
// when every token is held does it wait for a stream to end. The grant
// never changes results — core.GenerateCtx's output is worker-count
// independent — so lending costs or saves latency only, never
// reproducibility.
//
// A streaming request's handler goroutine is the worker its held token
// pays for: it generates, and encodes and writes its records between its
// own batches, so the tokens bound generation and delivery together.
type WorkerPool struct {
	tokens  chan struct{}
	waiting atomic.Int32 // Acquire callers blocked on an empty pool
	// borrowed counts tokens lent by Borrow; recalled counts those returned
	// while an Acquire caller was blocked (see writeMetrics).
	borrowed, recalled atomic.Int64
}

// NewWorkerPool returns a pool with the given number of tokens;
// size <= 0 means GOMAXPROCS.
func NewWorkerPool(size int) *WorkerPool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	tokens := make(chan struct{}, size)
	for i := 0; i < size; i++ {
		tokens <- struct{}{}
	}
	return &WorkerPool{tokens: tokens}
}

// Size returns the pool capacity.
func (p *WorkerPool) Size() int { return cap(p.tokens) }

// InUse returns the number of tokens currently held or borrowed.
func (p *WorkerPool) InUse() int { return cap(p.tokens) - len(p.tokens) }

// Acquire takes one token. It blocks — honouring ctx — only when none is
// free, and while it blocks Wanted reports true, which recalls borrowed
// tokens. The returned release function must be called exactly once.
func (p *WorkerPool) Acquire(ctx context.Context) (func(), error) {
	select {
	case <-p.tokens:
	default:
		p.waiting.Add(1)
		defer p.waiting.Add(-1)
		select {
		case <-p.tokens:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return func() { p.tokens <- struct{}{} }, nil
}

// Borrow takes up to n idle tokens without blocking and returns how many
// it took: none while an Acquire caller is blocked. Each must go back
// through Return.
func (p *WorkerPool) Borrow(n int) int {
	got := 0
	for got < n && !p.Wanted() {
		select {
		case <-p.tokens:
			got++
		default:
			n = got
		}
	}
	p.borrowed.Add(int64(got))
	return got
}

// Return gives back n borrowed tokens.
func (p *WorkerPool) Return(n int) {
	if p.Wanted() {
		p.recalled.Add(int64(n))
	}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// Wanted reports whether an Acquire caller is blocked on an empty pool.
func (p *WorkerPool) Wanted() bool { return p.waiting.Load() > 0 }

// writeMetrics renders the lending counters in the Prometheus text
// exposition format: worker-chunks run on a borrowed token, and borrowed
// tokens returned while a request waited for one.
func (p *WorkerPool) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "# TYPE sgfd_workers_borrowed_total counter\nsgfd_workers_borrowed_total %d\n", p.borrowed.Load())
	fmt.Fprintf(w, "# TYPE sgfd_workers_recalled_total counter\nsgfd_workers_recalled_total %d\n", p.recalled.Load())
}

// requestLender lends one synthesize request's generation run the pool's
// idle tokens (core.Mechanism.Lend) and keeps the largest loan any chunk
// took, for the generate span.
type requestLender struct {
	*WorkerPool
	most int
}

// Borrow implements core.Lender. Core calls it on the request's goroutine,
// so most needs no lock.
func (l *requestLender) Borrow(n int) int {
	got := l.WorkerPool.Borrow(n)
	l.most = max(l.most, got)
	return got
}
