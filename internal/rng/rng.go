// Package rng provides a deterministic, splittable pseudo-random number
// generator together with the non-uniform samplers the synthesis framework
// needs (Laplace, Gamma, Dirichlet, categorical, ...).
//
// The framework depends on determinism in two ways. First, experiments must
// be reproducible bit-for-bit. Second, and more subtly, the synthesizer tool
// of the paper (§5) learns differentially private model parameters lazily:
// each CPT configuration draws its Laplace noise from an RNG stream seeded by
// a hash of the configuration, so that independent parallel workers
// materialize the exact same noisy model. NewHashed implements that stream
// derivation.
//
// The generator is xoshiro256** seeded via SplitMix64. It is implemented
// here rather than taken from math/rand so that streams are stable across Go
// releases and so that Split/NewHashed can derive independent streams.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; derive one per goroutine with Split.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used for seeding and for deriving child streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seedState fills s with the xoshiro256 state for the given seed.
func seedState(s *[4]uint64, seed uint64) {
	st := seed
	for i := range s {
		s[i] = splitmix64(&st)
	}
	// xoshiro256 must not be seeded with the all-zero state; SplitMix64
	// cannot produce four zero outputs in a row, so this is already
	// guaranteed, but keep a defensive check.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	seedState(&r.s, seed)
	return r
}

// NewHashed returns a generator whose seed is derived by hashing the given
// parts with FNV-64a. It is the stream-derivation primitive used for
// per-configuration differentially private parameter learning: every caller
// that asks for the stream of the same configuration key obtains the same
// noise.
func NewHashed(parts ...string) *RNG {
	h := fnv.New64a()
	for _, p := range parts {
		// Length-prefix each part so that ("ab","c") != ("a","bc").
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return New(h.Sum64())
}

// NewStream returns the idx-th member of the deterministic stream family
// rooted at seed. Unlike Split, derivation is stateless: NewStream(s, i) is
// a pure function of (s, i), so any worker — regardless of how work is
// sharded — can materialize the stream of a given work item. The generation
// pipeline keys candidate synthesis on the candidate index this way, which
// is what makes its output independent of the worker count.
func NewStream(seed, idx uint64) *RNG {
	r := &RNG{}
	r.ReseedStream(seed, idx)
	return r
}

// ReseedStream resets r in place to exactly the state NewStream(seed, idx)
// would return, so per-item hot loops can reuse one generator per worker
// instead of allocating one per item.
func (r *RNG) ReseedStream(seed, idx uint64) {
	st := seed
	root := splitmix64(&st)
	st = root ^ (idx+1)*streamStep
	seedState(&r.s, splitmix64(&st))
}

// streamStep is the SplitMix64 golden-ratio increment used by ReseedStream
// to mix the stream index into the root: stream idx perturbs the root by
// (idx+1)·streamStep before the final SplitMix64 finalization.
const streamStep = 0x9e3779b97f4a7c15

// StreamSeeder is the batched form of ReseedStream: it fixes the seed half
// of the (seed, idx) stream derivation once, so a hot loop that walks a
// contiguous index range pays one 64-bit add per candidate instead of
// re-deriving the root every time.
//
// The derivation is provably identical to ReseedStream. ReseedStream(seed,
// idx) computes root = splitmix64(seed) — a pure function of the seed — and
// then finalizes root ^ (idx+1)·streamStep. NewStreamSeeder captures that
// same root, Seek(idx) sets acc = (idx+1)·streamStep, and each Reseed uses
// root ^ acc then advances acc by streamStep; since (idx+1)·streamStep and
// acc both live in uint64 arithmetic, acc after j advances equals
// (idx+j+1)·streamStep exactly, so the i-th Reseed after Seek(idx) feeds the
// finalizer the identical word ReseedStream(seed, idx+i) would. The
// equivalence is pinned by quick and fuzz tests over arbitrary
// (seed, offset, i).
type StreamSeeder struct {
	root uint64 // splitmix64 output for the seed; pure function of it
	acc  uint64 // (next index + 1) · streamStep
}

// NewStreamSeeder returns a seeder for the stream family rooted at seed,
// positioned at index 0.
func NewStreamSeeder(seed uint64) StreamSeeder {
	st := seed
	return StreamSeeder{root: splitmix64(&st), acc: streamStep}
}

// Seek positions the seeder so the next Reseed produces the stream of the
// given index. Seeking is O(1): a batch worker claims a candidate range and
// seeks straight to its start.
func (s *StreamSeeder) Seek(idx uint64) {
	s.acc = (idx + 1) * streamStep
}

// Reseed resets r in place to exactly the state ReseedStream(seed, idx)
// would produce for the seeder's current index, then advances to the next
// index.
func (s *StreamSeeder) Reseed(r *RNG) {
	st := s.root ^ s.acc
	s.acc += streamStep
	seedState(&r.s, splitmix64(&st))
}

// Split derives a new independent generator from r, advancing r. Streams
// derived by successive Split calls are independent of each other and of the
// parent's subsequent output.
func (r *RNG) Split() *RNG {
	st := r.Uint64() ^ 0xa5a5a5a5deadbeef
	return New(splitmix64(&st))
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	_ = lo
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// The outer conversion rounds the scaled value, so a caller's add or
// subtract cannot fuse with the scaling into a multiply-add on arm64.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1); it never returns 0, which
// makes it safe as input to logarithms.
func (r *RNG) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the given slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
