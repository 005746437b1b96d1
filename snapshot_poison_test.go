package sgf_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	sgf "repro"
	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/wire"
)

// poisonMeta builds the schema the crafted payloads are written against.
func poisonMeta(t *testing.T) *dataset.Metadata {
	t.Helper()
	meta, err := dataset.NewMetadata(
		dataset.NewCategorical("COLOR", "red", "green", "blue"),
		dataset.NewCategorical("SIZE", "s", "m", "l"),
		dataset.NewNumerical("GRADE", 0, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// craftPayload hand-writes a complete fitted-model payload — version, schema,
// bucketizer, structure, count tables, seeds, budget, splits — mirroring
// FittedModel.Encode byte for byte, with attr 0's count vector set to the
// given values and the retired Gaussian-conditional flag set as given. It is
// what an attacker who controls snapshot bytes can produce without going
// through Fit.
func craftPayload(t *testing.T, meta *dataset.Metadata, attr0Counts []float64, gaussian bool) []byte {
	t.Helper()
	g := bayesnet.NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	st := &bayesnet.Structure{Graph: g, Order: order, Scores: make([]float64, 3)}

	ww := &wire.Writer{}
	ww.Uvarint(1) // fittedModelVersion
	dataset.EncodeMetadata(ww, meta)
	dataset.EncodeBucketizer(ww, dataset.NewBucketizer(meta))
	bayesnet.EncodeStructure(ww, st)

	// Model section: learning config, then per-attribute count tables.
	ww.Float64(1)     // Alpha
	ww.Int(0)         // Mode = MAPEstimate
	ww.Bool(false)    // DP
	ww.Float64(0)     // EpsP
	ww.String("")     // NoiseKey
	ww.Bool(gaussian) // retired Gaussian-conditional flag
	ww.Uvarint(1)     // attr 0: one (empty-parent) configuration
	ww.Uvarint(0)     //   config index
	ww.Float64s(attr0Counts)
	for _, card := range []int{3, 4} { // attrs 1 and 2, in order
		ww.Uvarint(3) // three parent configurations (parent card 3)
		for c := 0; c < 3; c++ {
			ww.Uvarint(uint64(c))
			vec := make([]float64, card)
			for i := range vec {
				vec[i] = float64(2 + (c+i)%3)
			}
			ww.Float64s(vec)
		}
	}

	seeds := dataset.New(meta)
	for i := 0; i < 12; i++ {
		seeds.Append(dataset.Record{uint16(i % 3), uint16(i % 3), uint16(i % 4)})
	}
	dataset.EncodeRows(ww, seeds)
	ww.Float64(0) // ModelBudget.Epsilon
	ww.Float64(0) // ModelBudget.Delta
	for _, s := range [3]int{4, 4, 12} {
		ww.Int(s)
	}
	return ww.Bytes()
}

// craftContainer wraps a fitted-model payload in a well-formed version-2
// snapshot container: magic, version, record kind, snapshot bookkeeping,
// length-prefixed payload, CRC-32C. Everything except the payload is valid,
// so a decode failure can only come from the payload checks.
func craftContainer(payload []byte) []byte {
	key := strings.Repeat("0123456789abcdef", 4)
	ww := &wire.Writer{}
	ww.Uvarint(2)              // container format version
	ww.Uvarint(1)              // KindModel
	ww.String("m-" + key[:16]) // ID
	ww.String(key)
	ww.Varint(0)  // Created
	ww.Int(12)    // Rows
	ww.Int(12)    // Clean.Total
	ww.Int(0)     // Clean.DroppedMissing
	ww.Int(0)     // Clean.DroppedInvalid
	ww.Int(12)    // Clean.Clean
	ww.Int(12)    // Clean.Unique
	ww.Float64(0) // Clean.PossibleRecords
	ww.Varint(0)  // FitDuration
	ww.Float64(0) // ModelEps
	ww.Float64(0) // ModelDelta
	ww.Float64(0) // MaxCost
	ww.Uvarint(0) // Seed
	ww.Strings(nil)
	ww.BytesField(payload)
	out := append([]byte("SGFSNAP\x00"), ww.Bytes()...)
	sum := crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(out, sum)
}

// TestCraftedSnapshotRejectsPoisonedCounts is the poisoned-import regression
// test: a hand-crafted v2 snapshot whose count table carries non-finite or
// implausibly large values must be rejected when it is decoded — at the
// fitted-model layer and through the store container — instead of producing
// a model whose materialized parameters panic a serving goroutine later. So
// must one that sets the retired Gaussian-conditional flag. The valid-counts
// control pins that the crafted bytes are otherwise well-formed, so the
// rejections below are about the counts and the flag alone.
func TestCraftedSnapshotRejectsPoisonedCounts(t *testing.T) {
	meta := poisonMeta(t)

	valid := craftPayload(t, meta, []float64{5, 7, 9}, false)
	fm, err := sgf.DecodeFittedModel(bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
	if fm.Model.Frozen() == nil {
		t.Fatal("decoded model was not frozen")
	}
	if snap, err := store.Decode(craftContainer(valid)); err != nil {
		t.Fatalf("control container rejected: %v", err)
	} else if snap.Model == nil {
		t.Fatal("control container decoded without a model")
	}

	for name, counts := range map[string][]float64{
		"infinite": {math.Inf(1), math.Inf(1), math.Inf(1)},
		"nan":      {1, math.NaN(), 1},
		"negative": {1, -3, 1},
		"huge":     {1e308, 1, 1},
	} {
		t.Run(name, func(t *testing.T) {
			payload := craftPayload(t, meta, counts, false)
			if _, err := sgf.DecodeFittedModel(bytes.NewReader(payload)); err == nil {
				t.Fatal("poisoned payload accepted by DecodeFittedModel")
			} else if !strings.Contains(err.Error(), "count") {
				t.Fatalf("rejection does not name the counts: %v", err)
			}
			if _, err := store.Decode(craftContainer(payload)); err == nil {
				t.Fatal("poisoned v2 snapshot accepted by store.Decode")
			}
		})
	}
	t.Run("gaussian", func(t *testing.T) {
		payload := craftPayload(t, meta, []float64{5, 7, 9}, true)
		if _, err := sgf.DecodeFittedModel(bytes.NewReader(payload)); err == nil {
			t.Fatal("payload with the retired Gaussian flag accepted by DecodeFittedModel")
		} else if !strings.Contains(err.Error(), "Gaussian") {
			t.Fatalf("rejection does not name the Gaussian flag: %v", err)
		}
		if _, err := store.Decode(craftContainer(payload)); err == nil {
			t.Fatal("v2 snapshot with the retired Gaussian flag accepted by store.Decode")
		}
	})
}
