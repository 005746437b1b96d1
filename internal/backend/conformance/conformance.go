// Package conformance is the shared compliance suite every generative-model
// backend must pass (run it from a backend package's tests — see
// docs/BACKENDS.md). It enforces the backend.Backend contract rather than
// leaving it aspirational:
//
//   - fit determinism: identical FitData produces byte-identical models;
//   - generation determinism: released records are byte-identical whatever
//     the worker count (the core.GenerateCtx contract);
//   - codec round-trip: Encode → Decode → Encode is a byte fixed point and
//     the decoded model synthesizes byte-identical output;
//   - poisoned-payload rejection: truncated payloads are rejected without
//     panicking, and corrupted payloads never panic the decoder;
//   - kernel/step agreement: the parallel generation kernel releases
//     exactly what a per-candidate Mechanism.Once loop releases, and a
//     candidate's own seed always has positive generation probability.
//
// The suite runs each check against a non-private and a differentially
// private fit, since DP noise exercises the hash-seeded stream plumbing
// that fit determinism and codec round-trips most easily get wrong.
package conformance

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/wire"
)

// fitSeed drives every fixture fit; the suite's checks are deterministic.
const fitSeed = 11

// fixture bundles one deterministic fit of the backend under test.
type fixture struct {
	name  string
	model backend.Model
	meta  *dataset.Metadata
	bkt   *dataset.Bucketizer
	seeds *dataset.Dataset
}

// Run executes the conformance suite against the backend registered under
// the given ID.
func Run(t *testing.T, id string) {
	t.Helper()
	b, ok := backend.Lookup(id)
	if !ok {
		t.Fatalf("backend %q is not registered (registered: %v)", id, backend.IDs())
	}
	if b.ID() != id {
		t.Fatalf("backend registered under %q reports ID %q", id, b.ID())
	}
	for _, eps := range []float64{0, 1} {
		name := "nonprivate"
		if eps > 0 {
			name = "dp"
		}
		t.Run(name, func(t *testing.T) {
			fx := fit(t, b, eps)
			t.Run("identity", func(t *testing.T) { checkIdentity(t, id, fx) })
			t.Run("fit-determinism", func(t *testing.T) { checkFitDeterminism(t, b, eps, fx) })
			t.Run("worker-determinism", func(t *testing.T) { checkWorkerDeterminism(t, fx) })
			t.Run("codec-roundtrip", func(t *testing.T) { checkCodecRoundTrip(t, b, fx) })
			t.Run("poisoned-rejection", func(t *testing.T) { checkPoisonedRejection(t, b, fx) })
			t.Run("kernel-matches-once", func(t *testing.T) { checkKernelMatchesOnce(t, fx) })
		})
	}
}

// testData builds the deterministic 300-record fixture dataset: two
// correlated categoricals and a numerical attribute, mirroring the shape
// the store golden tests pin.
func testData(t testing.TB) (*dataset.Dataset, *dataset.Bucketizer) {
	t.Helper()
	meta, err := dataset.NewMetadata(
		dataset.NewCategorical("COLOR", "red", "green", "blue"),
		dataset.NewCategorical("SIZE", "s", "m", "l"),
		dataset.NewNumerical("GRADE", 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.New(meta)
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		c := uint16(r.Intn(3))
		s := c
		if r.Float64() < 0.3 {
			s = uint16(r.Intn(3))
		}
		data.Append(dataset.Record{c, s, uint16((int(c) + r.Intn(2)) % 4)})
	}
	bkt := dataset.NewBucketizer(meta)
	if err := bkt.SetWidth(2, 2); err != nil {
		t.Fatal(err)
	}
	return data, bkt
}

// fit runs one deterministic fit through the backend, reproducing the
// sgf.Fit split discipline (DT/DP/DS at 0.25/0.25/0.5, RNG split first).
func fit(t testing.TB, b backend.Backend, eps float64) fixture {
	t.Helper()
	data, bkt := testData(t)
	r := rng.New(fitSeed)
	parts, err := data.SplitFrac(r.Split(), 0.25, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := b.Fit(backend.FitData{
		Structure:  parts[0],
		Params:     parts[1],
		Bkt:        bkt,
		ModelEps:   eps,
		ModelDelta: 1e-9,
		Seed:       fitSeed,
		RNG:        r,
	})
	if err != nil {
		t.Fatalf("fit (eps=%g): %v", eps, err)
	}
	name := fmt.Sprintf("eps=%g", eps)
	return fixture{name: name, model: model, meta: data.Meta, bkt: bkt, seeds: parts[2]}
}

// encode renders the model's backend payload.
func encode(m backend.Model) []byte {
	w := &wire.Writer{}
	m.Encode(w)
	return w.Bytes()
}

// synthesize releases 15 records from the model through the deterministic
// privacy test.
func synthesize(t testing.TB, fx fixture, model backend.Model, workers int) *dataset.Dataset {
	t.Helper()
	syn, err := model.Synthesizer(1, len(fx.meta.Attrs))
	if err != nil {
		t.Fatal(err)
	}
	mech, err := core.NewMechanism(syn, fx.seeds, core.TestConfig{K: 3, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := core.GenerateTargetCtx(context.Background(), mech, 15, 200*15, workers, 42)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRows fails the test when the two datasets differ anywhere.
func sameRows(t *testing.T, what string, want, have *dataset.Dataset) {
	t.Helper()
	if want.Len() != have.Len() {
		t.Fatalf("%s: released %d records, want %d", what, have.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !want.Row(i).Equal(have.Row(i)) {
			t.Fatalf("%s: record %d differs: %v vs %v", what, i, have.Row(i), want.Row(i))
		}
	}
}

// checkIdentity pins the model's self-description: backend ID, schema,
// bucketizer, and a Describe covering every attribute.
func checkIdentity(t *testing.T, id string, fx fixture) {
	if got := fx.model.Backend(); got != id {
		t.Errorf("model.Backend() = %q, want %q", got, id)
	}
	if fx.model.Meta() != fx.meta {
		t.Error("model.Meta() is not the fitted schema")
	}
	if fx.model.Bucketizer() == nil {
		t.Error("model.Bucketizer() = nil")
	}
	d := fx.model.Describe()
	if d == nil || d.Backend != id {
		t.Fatalf("Describe() = %+v, want backend %q", d, id)
	}
	if len(d.Order) != len(fx.meta.Attrs) || len(d.Parents) != len(fx.meta.Attrs) {
		t.Errorf("Describe() covers %d/%d attributes, want %d", len(d.Order), len(d.Parents), len(fx.meta.Attrs))
	}
}

// checkFitDeterminism refits from identical inputs and requires a
// byte-identical model payload.
func checkFitDeterminism(t *testing.T, b backend.Backend, eps float64, fx fixture) {
	again := fit(t, b, eps)
	a, bb := encode(fx.model), encode(again.model)
	if string(a) != string(bb) {
		t.Fatalf("two fits from identical inputs encoded to different payloads (%d vs %d bytes)", len(a), len(bb))
	}
}

// checkWorkerDeterminism releases the same request at several worker counts
// and requires identical records — the core.GenerateCtx contract that makes
// served streams independent of server concurrency.
func checkWorkerDeterminism(t *testing.T, fx fixture) {
	want := synthesize(t, fx, fx.model, 1)
	if want.Len() == 0 {
		t.Fatal("fixture released no records; the suite needs a passing privacy test")
	}
	for _, workers := range []int{3, 8} {
		have := synthesize(t, fx, fx.model, workers)
		sameRows(t, fmt.Sprintf("workers=%d", workers), want, have)
	}
}

// checkCodecRoundTrip requires Encode → Decode → Encode to be a byte fixed
// point, with the decoded model serving byte-identical records.
func checkCodecRoundTrip(t *testing.T, b backend.Backend, fx fixture) {
	payload := encode(fx.model)
	r := wire.NewReader(payload)
	decoded, err := b.Decode(r, fx.meta, fx.bkt)
	if err != nil {
		t.Fatalf("decoding own payload: %v", err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("decoder left payload bytes unread: %v", err)
	}
	if got := decoded.Backend(); got != fx.model.Backend() {
		t.Errorf("decoded model backend %q, want %q", got, fx.model.Backend())
	}
	if string(encode(decoded)) != string(payload) {
		t.Fatal("decode→encode is not a byte fixed point")
	}
	sameRows(t, "decoded model", synthesize(t, fx, fx.model, 2), synthesize(t, fx, decoded, 2))
}

// checkPoisonedRejection feeds truncated and corrupted payloads to the
// decoder. Truncations must be rejected (by the decoder itself, or by the
// exact-consumption check the sgf codec layers on top); corruption must
// never panic.
func checkPoisonedRejection(t *testing.T, b backend.Backend, fx fixture) {
	payload := encode(fx.model)
	step := len(payload)/97 + 1
	for cut := 0; cut < len(payload); cut += step {
		prefix := payload[:cut]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on %d-byte truncation: %v", cut, r)
				}
			}()
			r := wire.NewReader(prefix)
			m, err := b.Decode(r, fx.meta, fx.bkt)
			if err == nil {
				err = r.Done()
			}
			if err == nil {
				t.Fatalf("decode accepted a %d-byte truncation of a %d-byte payload (model %v)", cut, len(payload), m.Backend())
			}
		}()
	}
	flip := rng.New(99)
	for i := 0; i < 64; i++ {
		mut := append([]byte(nil), payload...)
		mut[flip.Intn(len(mut))] ^= byte(1 + flip.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on corrupted payload (round %d): %v", i, r)
				}
			}()
			// A flip that survives decoding is acceptable: the container
			// CRC catches real corruption.
			_, _ = b.Decode(wire.NewReader(mut), fx.meta, fx.bkt)
		}()
	}
}

// checkKernelMatchesOnce pins the parallel generation kernel to its
// single-candidate step: core.GenerateCtx must release the records, with
// the statistics, of a per-candidate Mechanism.Once loop on
// rng.NewStream(seed, i), under an uncapped randomized test and under a
// capped one. Every candidate's own seed must have positive probability
// (otherwise Mechanism 1's privacy test could not even count it). The
// reference privacy test the kernel is pinned against lives in
// internal/core's tests.
func checkKernelMatchesOnce(t *testing.T, fx fixture) {
	syn, err := fx.model.Synthesizer(1, len(fx.meta.Attrs))
	if err != nil {
		t.Fatal(err)
	}
	const candidates, seed = 400, 5
	for name, tc := range map[string]core.TestConfig{
		"uncapped": {K: 3, Gamma: 8, Randomized: true, Eps0: 0.5},
		"capped":   {K: 8, Gamma: 8, Randomized: true, Eps0: 0.5, MaxCheckPlausible: 10},
	} {
		mech, err := core.NewMechanism(syn, fx.seeds, tc)
		if err != nil {
			t.Fatal(err)
		}
		want := dataset.New(fx.meta)
		var wantStats core.GenStats
		y := make(dataset.Record, len(fx.meta.Attrs))
		var probe core.Probe
		for i := 0; i < candidates; i++ {
			res := mech.Once(y, &probe, rng.NewStream(seed, uint64(i)))
			if res.SeedProb <= 0 {
				t.Fatalf("%s candidate %d: generating seed has probability %g, want > 0", name, i, res.SeedProb)
			}
			wantStats.Candidates++
			wantStats.CheckedTotal += int64(res.Checked)
			if res.Pass {
				want.Append(y.Clone())
				wantStats.Released++
			}
		}
		if wantStats.Released == 0 {
			t.Fatalf("%s: the Once loop released nothing; the comparison would be vacuous", name)
		}
		have, stats, err := core.GenerateCtx(context.Background(), mech, core.GenConfig{Candidates: candidates, Workers: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, name+": kernel vs Once loop", want, have)
		if stats.Candidates != wantStats.Candidates || stats.Released != wantStats.Released ||
			stats.SeedRejected != 0 || stats.CheckedTotal != wantStats.CheckedTotal {
			t.Fatalf("%s: kernel stats %+v, Once loop %+v", name, stats, wantStats)
		}
	}
}
