package server

import (
	"context"
	"runtime"
)

// WorkerPool is a bounded token pool shared by every synthesize request of
// the server, so concurrent requests cannot oversubscribe the CPU: the sum
// of generation workers across all in-flight requests never exceeds the
// pool size.
//
// Grants are elastic: a request blocks only for its first token and then
// opportunistically takes whatever else is free, up to what it asked for —
// but never the whole pool (when the pool has more than one token), so a
// single long-streaming request cannot lock every other request out for
// its full duration. Under contention grants shrink toward one worker.
// Shrinking a grant never changes results — core.GenerateCtx's output is
// worker-count independent — so elasticity costs latency only, never
// reproducibility.
//
// Tokens count generation workers only. A streaming request's own handler
// goroutine encodes and writes its records while its granted workers run,
// so a request can use one core beyond its grant for that delivery.
type WorkerPool struct {
	tokens chan struct{}
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

// InUse returns the number of tokens currently held.
func (p *WorkerPool) InUse() int { return cap(p.tokens) - len(p.tokens) }

// ClampWant normalizes a requested worker count to what Acquire can
// actually grant: want <= 0 asks for half the pool (the default for
// requests that did not size themselves), at most the pool size, and never
// the whole pool when it has more than one token. Callers that account for
// grants elsewhere (the tenant worker ledger) clamp with this first, so
// they never reserve a unit the pool cannot hand out.
func (p *WorkerPool) ClampWant(want int) int {
	size := cap(p.tokens)
	if want <= 0 {
		want = (size + 1) / 2
	}
	if want > size {
		want = size
	}
	if size > 1 && want == size {
		want = size - 1
	}
	return want
}

// Acquire obtains between 1 and want tokens (normalized by ClampWant). It
// blocks — honouring ctx — until at least one token is free, then drains
// additional free tokens without blocking, capped at size-1 so one request
// never monopolizes the pool. The returned release function must be called
// exactly once.
func (p *WorkerPool) Acquire(ctx context.Context, want int) (int, func(), error) {
	want = p.ClampWant(want)
	select {
	case <-p.tokens:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	got := 1
	for got < want {
		select {
		case <-p.tokens:
			got++
		default:
			want = got
		}
	}
	release := func() {
		for i := 0; i < got; i++ {
			p.tokens <- struct{}{}
		}
	}
	return got, release, nil
}
