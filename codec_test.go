package sgf_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	sgf "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// codecTestData builds a small correlated dataset over a mixed
// categorical/numerical schema.
func codecTestData(t testing.TB, n int) *sgf.Dataset {
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
	for i := 0; i < n; i++ {
		c := uint16(r.Intn(3))
		s := c
		if r.Float64() < 0.3 {
			s = uint16(r.Intn(3))
		}
		g := uint16((int(c) + r.Intn(2)) % 4)
		data.Append(dataset.Record{c, s, g})
	}
	return data
}

func codecFit(t testing.TB, data *sgf.Dataset) *sgf.FittedModel {
	t.Helper()
	bkt := dataset.NewBucketizer(data.Meta)
	if err := bkt.SetWidth(2, 2); err != nil { // exercise a non-identity bucketizer
		t.Fatal(err)
	}
	fm, err := sgf.Fit(data, sgf.FitOptions{ModelEps: 1, Bucketizer: bkt, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func codecSynth(t testing.TB, fm *sgf.FittedModel) *sgf.Dataset {
	t.Helper()
	out, _, err := fm.Synthesize(context.Background(), sgf.SynthOptions{
		Records: 30, K: 3, Gamma: 8, Eps0: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFittedModelRoundTripDeterminism is the snapshot contract: a decoded
// model synthesizes byte-identically to the model it was encoded from, and
// encoding is itself deterministic — the same bytes before and after the
// model has served queries.
func TestFittedModelRoundTripDeterminism(t *testing.T) {
	fm := codecFit(t, codecTestData(t, 300))

	var before bytes.Buffer
	if err := fm.Encode(&before); err != nil {
		t.Fatal(err)
	}
	out1 := codecSynth(t, fm)
	var after bytes.Buffer
	if err := fm.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("encoding changed after the model served a query")
	}

	fm2, err := sgf.DecodeFittedModel(bytes.NewReader(after.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fm2.ModelBudget != fm.ModelBudget {
		t.Errorf("budget %v != %v", fm2.ModelBudget, fm.ModelBudget)
	}
	if fm2.Splits != fm.Splits {
		t.Errorf("splits %v != %v", fm2.Splits, fm.Splits)
	}
	if fm2.Seeds.Len() != fm.Seeds.Len() {
		t.Fatalf("seeds %d != %d", fm2.Seeds.Len(), fm.Seeds.Len())
	}

	out2 := codecSynth(t, fm2)
	if out1.Len() != out2.Len() {
		t.Fatalf("released %d records, want %d", out2.Len(), out1.Len())
	}
	for i := 0; i < out1.Len(); i++ {
		if !out1.Row(i).Equal(out2.Row(i)) {
			t.Fatalf("record %d differs after round trip: %v vs %v", i, out1.Row(i), out2.Row(i))
		}
	}

	// And the round trip is a fixed point: re-encoding the decoded model
	// reproduces the payload bit-for-bit.
	var again bytes.Buffer
	if err := fm2.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), after.Bytes()) {
		t.Fatal("decode→encode is not a fixed point")
	}
}

func TestDecodeFittedModelRejectsBadPayloads(t *testing.T) {
	fm := codecFit(t, codecTestData(t, 200))
	var buf bytes.Buffer
	if err := fm.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Wrong version: the payload starts with uvarint version 1.
	bumped := append([]byte{}, valid...)
	bumped[0] = 99
	if _, err := sgf.DecodeFittedModel(bytes.NewReader(bumped)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version 99 accepted (err = %v)", err)
	}

	// Truncations must error, never panic.
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		if _, err := sgf.DecodeFittedModel(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncated payload (%d bytes) accepted", n)
		}
	}

	// Trailing garbage means the payload is not what the encoder produced.
	if _, err := sgf.DecodeFittedModel(bytes.NewReader(append(append([]byte{}, valid...), 0xFF))); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
