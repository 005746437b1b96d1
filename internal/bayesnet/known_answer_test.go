package bayesnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestDPFitKnownAnswers pins one small differentially private fit by hash:
// its snapshot payload (the structure, whose merit scores come from noisy
// entropies, and the count tables) and the conditional tables it serves
// (probabilities and cumulative rows, whose counts carry Laplace noise).
// Both reach released bytes through math.Log and math.Log2, and a snapshot
// imported on another machine must rebuild the same tables; a toolchain or
// CPU whose float functions round differently fails here by name instead
// of as a golden diff.
func TestDPFitKnownAnswers(t *testing.T) {
	const (
		wantSnapshot = "06414cd2baf1bc6b518bd2476f42ff9825fbb8741346e32a832d22d1244e8b0e"
		wantTables   = "a9df99fd470fada773a489f06d3f1a5c9d5decc065f73f52b984500c20acffb0"
	)
	ds := chainData(t, 600, 2017)
	bkt := dataset.NewBucketizer(ds.Meta)
	st, err := LearnStructure(ds, bkt, StructureConfig{
		DP: true, EpsH: 0.5, EpsN: 0.5, Rng: rng.New(2017), MinCorr: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LearnModel(ds, bkt, st, ModelConfig{Alpha: 1, DP: true, EpsP: 0.5, NoiseKey: "known-answer"})
	if err != nil {
		t.Fatal(err)
	}

	var w wire.Writer
	EncodeStructure(&w, st)
	EncodeModel(&w, m)
	snap := sha256.Sum256(w.Bytes())
	if got := hex.EncodeToString(snap[:]); got != wantSnapshot {
		t.Errorf("DP fit snapshot sha256 = %s, want %s", got, wantSnapshot)
	}

	h := sha256.New()
	var word []byte
	for _, tb := range m.tables {
		for _, rows := range [][]float64{tb.probs, tb.cum} {
			for _, p := range rows {
				word = binary.LittleEndian.AppendUint64(word[:0], math.Float64bits(p))
				h.Write(word)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTables {
		t.Errorf("DP fit tables sha256 = %s, want %s", got, wantTables)
	}
}
