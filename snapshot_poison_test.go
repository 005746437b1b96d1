package sgf_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// craftFitted hand-writes a complete version-1 fitted-model payload over
// the given schema and structure, mirroring FittedModel.Encode byte for
// byte: schema, bucketizer, structure, an un-noised MAP learning config with
// the retired Gaussian-conditional flag set as given, the per-attribute
// count tables written by counts, twelve seeds (seed i holds i mod card in
// every attribute), a zero budget and the splits. It is what an attacker who
// controls snapshot bytes can produce without going through Fit.
func craftFitted(meta *dataset.Metadata, st *bayesnet.Structure, gaussian bool, counts func(ww *wire.Writer)) []byte {
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
	counts(ww)

	seeds := dataset.New(meta)
	for i := 0; i < 12; i++ {
		rec := make(dataset.Record, len(meta.Attrs))
		for a := range rec {
			rec[a] = uint16(i % meta.Attrs[a].Card())
		}
		seeds.Append(rec)
	}
	dataset.EncodeRows(ww, seeds)
	ww.Float64(0) // ModelBudget.Epsilon
	ww.Float64(0) // ModelBudget.Delta
	for _, s := range [3]int{4, 4, 12} {
		ww.Int(s)
	}
	return ww.Bytes()
}

// structureOf returns the structure with the given edges (parent, child).
func structureOf(t *testing.T, n int, edges ...[2]int) *bayesnet.Structure {
	t.Helper()
	g := bayesnet.NewGraph(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	return &bayesnet.Structure{Graph: g, Order: order, Scores: make([]float64, n)}
}

// craftPayload crafts a payload over poisonMeta's chain COLOR → SIZE →
// GRADE, with attr 0's count vector set to the given values and the retired
// Gaussian-conditional flag set as given.
func craftPayload(t *testing.T, meta *dataset.Metadata, attr0Counts []float64, gaussian bool) []byte {
	t.Helper()
	st := structureOf(t, 3, [2]int{0, 1}, [2]int{1, 2})
	return craftFitted(meta, st, gaussian, func(ww *wire.Writer) {
		ww.Uvarint(1) // attr 0: one (empty-parent) configuration
		ww.Uvarint(0) //   config index
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
	})
}

// craftWidePayload crafts a payload whose last attribute, of two values,
// has every other attribute as a parent and no observed configuration; the
// parents have the given cardinalities and uniform counts. The product of
// the parent cardinalities alone sizes the child's tables.
func craftWidePayload(t *testing.T, parentCards []int) []byte {
	t.Helper()
	n := len(parentCards)
	attrs := make([]dataset.Attribute, n+1)
	edges := make([][2]int, n)
	for i, card := range append(parentCards, 2) {
		attrs[i] = dataset.NewNumerical(fmt.Sprintf("X%d", i), 0, card-1)
	}
	for p := range edges {
		edges[p] = [2]int{p, n}
	}
	meta, err := dataset.NewMetadata(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return craftFitted(meta, structureOf(t, n+1, edges...), false, func(ww *wire.Writer) {
		for _, card := range parentCards {
			ww.Uvarint(1) // one (empty-parent) configuration
			ww.Uvarint(0)
			vec := make([]float64, card)
			for i := range vec {
				vec[i] = 1
			}
			ww.Float64s(vec)
		}
		ww.Uvarint(0) // the child: no observed configuration
	})
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
	if fm.Model.Bytes() <= 0 {
		t.Fatal("decoded model built no tables")
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

// TestCraftedSnapshotRejectsOversizedTables is the import-crash regression
// test: a crafted snapshot whose conditional tables would exceed the 64 MiB
// limit must be refused when it is decoded — at the fitted-model layer and
// through the store container — with an error that names the limit. The
// overflow case's 2^32 configurations used to wrap the uint32 configuration
// count to 0; it decoded, and the first synthesis panicked a generation
// worker. The narrow control pins that the crafted bytes are otherwise
// well-formed.
func TestCraftedSnapshotRejectsOversizedTables(t *testing.T) {
	if _, err := sgf.DecodeFittedModel(bytes.NewReader(craftWidePayload(t, []int{4, 4, 4}))); err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
	for name, cards := range map[string][]int{
		"overflow":   {2048, 2048, 1024}, // 2^32 configurations
		"over-limit": {2048, 2048},       // 2^22 configurations, 128 MiB
	} {
		t.Run(name, func(t *testing.T) {
			payload := craftWidePayload(t, cards)
			if _, err := sgf.DecodeFittedModel(bytes.NewReader(payload)); err == nil {
				t.Fatal("oversized payload accepted by DecodeFittedModel")
			} else if !strings.Contains(err.Error(), "64 MiB") || !strings.Contains(err.Error(), "max_cost") {
				t.Fatalf("rejection does not name the limit and max_cost: %v", err)
			}
			if _, err := store.Decode(craftContainer(payload)); err == nil {
				t.Fatal("oversized v2 snapshot accepted by store.Decode")
			} else if !strings.Contains(err.Error(), "64 MiB") {
				t.Fatalf("store rejection does not name the limit: %v", err)
			}
		})
	}
}
