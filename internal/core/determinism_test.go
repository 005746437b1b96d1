package core

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// sortedKeys renders a dataset as its sorted multiset of record keys, the
// canonical worker-count-independent fingerprint.
func sortedKeys(d *dataset.Dataset) []string {
	keys := make([]string, d.Len())
	for i, r := range d.Rows() {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestGenerateTargetWorkerCountInvariance guards the RNG-stream-splitting
// contract: candidate i draws from rng.NewStream(seed, i) regardless of
// which worker runs it, so for a fixed seed GenerateTargetCtx must produce
// byte-identical output for Workers=1 and Workers=8 — sorted AND in
// sequence order.
func TestGenerateTargetWorkerCountInvariance(t *testing.T) {
	model := tinyModel(t, 71)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 73)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 2, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}

	out1, stats1, err := GenerateTargetCtx(context.Background(), mech, 40, 0, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	out8, stats8, err := GenerateTargetCtx(context.Background(), mech, 40, 0, 8, 99)
	if err != nil {
		t.Fatal(err)
	}

	if stats1.Candidates != stats8.Candidates || stats1.Released != stats8.Released {
		t.Errorf("stats diverge across worker counts: 1 worker %+v, 8 workers %+v", stats1, stats8)
	}
	if out1.Len() != out8.Len() {
		t.Fatalf("released %d records with 1 worker, %d with 8", out1.Len(), out8.Len())
	}
	// Sequence order must already agree (sorted equality follows).
	for i := range out1.Rows() {
		if !out1.Row(i).Equal(out8.Row(i)) {
			t.Fatalf("record %d differs between 1 and 8 workers: %v vs %v", i, out1.Row(i), out8.Row(i))
		}
	}
	k1, k8 := sortedKeys(out1), sortedKeys(out8)
	for i := range k1 {
		if !bytes.Equal([]byte(k1[i]), []byte(k8[i])) {
			t.Fatalf("sorted output differs at position %d", i)
		}
	}
}

// TestGenerateIndexOffsetContract pins the stream-derivation contract used
// by multi-batch drivers: candidate i of a run with IndexOffset o draws
// from NewStream(seed, o+i), so a batch at offset o reproduces exactly the
// tail of one big batch — and two runs with different seeds never share
// candidate streams (the old seed+chunk scheme violated this for adjacent
// seeds).
func TestGenerateIndexOffsetContract(t *testing.T) {
	model := tinyModel(t, 91)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 93)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 2, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}

	full, fullStats, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 60, Workers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	head, headStats, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 30, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tail, tailStats, err := GenerateCtx(context.Background(), mech, GenConfig{Candidates: 30, Workers: 4, Seed: 5, IndexOffset: 30})
	if err != nil {
		t.Fatal(err)
	}
	if headStats.Released+tailStats.Released != fullStats.Released {
		t.Fatalf("split run released %d+%d, full run %d",
			headStats.Released, tailStats.Released, fullStats.Released)
	}
	for i := 0; i < full.Len(); i++ {
		var want dataset.Record
		if i < head.Len() {
			want = head.Row(i)
		} else {
			want = tail.Row(i - head.Len())
		}
		if !full.Row(i).Equal(want) {
			t.Fatalf("record %d of the full run differs from the split runs", i)
		}
	}
}

// TestGenerateCtxCancellation checks that a cancelled context stops
// generation early and surfaces the context error.
func TestGenerateCtxCancellation(t *testing.T) {
	model := tinyModel(t, 75)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 77)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 2, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no candidate should be drawn
	_, stats, err := GenerateCtx(ctx, mech, GenConfig{Candidates: 10000, Workers: 2, Seed: 3})
	if err != context.Canceled {
		t.Fatalf("GenerateCtx error = %v, want context.Canceled", err)
	}
	if stats.Candidates != 0 {
		t.Errorf("cancelled run still drew %d candidates", stats.Candidates)
	}

	_, _, err = GenerateTargetCtx(ctx, mech, 100, 0, 2, 3)
	if err != context.Canceled {
		t.Fatalf("GenerateTargetCtx error = %v, want context.Canceled", err)
	}
}

// TestGenerateTargetStreamMatchesCollect checks that the streamed batches
// concatenate to exactly the dataset GenerateTargetCtx returns, for chunks
// of one candidate batch (30 records) and of several (1,000), which stream
// while they are generated.
func TestGenerateTargetStreamMatchesCollect(t *testing.T) {
	model := tinyModel(t, 79)
	syn, err := NewSeedSynthesizer(model, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tinySeeds(t, model, 300, 81)
	mech, err := NewMechanism(syn, seeds, TestConfig{K: 2, Gamma: 8})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []streamCase{{30, 4}, {1000, 1}, {1000, 3}} {
		var streamed []dataset.Record
		_, err = GenerateTargetStream(context.Background(), mech, c.target, 0, c.workers, 11, func(batch []dataset.Record) error {
			streamed = append(streamed, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		collected, _, err := GenerateTargetCtx(context.Background(), mech, c.target, 0, c.workers, 11)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != collected.Len() {
			t.Fatalf("%v: streamed %d records, collected %d", c, len(streamed), collected.Len())
		}
		for i := range streamed {
			if !streamed[i].Equal(collected.Row(i)) {
				t.Fatalf("%v: record %d differs between stream and collect", c, i)
			}
		}
	}
}
