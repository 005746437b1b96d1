package sgf

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/backend/bayes"
	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// Fitted-model payload versions. The snapshot container around this payload
// (internal/store) adds its own magic header, format version and checksum.
const (
	// fittedModelVersion is the current layout: a backend ID followed by a
	// length-prefixed backend-owned model payload, so new backends never
	// change this framing.
	fittedModelVersion = 2
	// fittedModelVersionV1 is the pre-backend layout with the Bayes net
	// hardwired in place of the (backend ID, payload) pair. Still decoded —
	// as the "bayesnet" backend — so snapshots from older deployments keep
	// warm-starting.
	fittedModelVersionV1 = 1
)

// Encode serializes the complete fitted model — backend ID, schema,
// bucketizer state, the backend-owned model payload (structure and count
// tables for the Bayes net, histogram tallies for the marginal backend),
// the DS seed partition, the spent model budget and the split sizes.
//
// The encoding is deterministic: the same fitted model always produces the
// same bytes (built probability tables are excluded; they are pure
// functions of what is encoded). A decoded model therefore synthesizes
// byte-identical output to the original for the same SynthOptions.
func (fm *FittedModel) Encode(w io.Writer) error {
	if fm.Gen == nil || fm.Seeds == nil {
		return fmt.Errorf("sgf: cannot encode incomplete fitted model")
	}
	ww := &wire.Writer{}
	ww.Uvarint(fittedModelVersion)
	ww.String(fm.Gen.Backend())
	dataset.EncodeMetadata(ww, fm.Gen.Meta())
	dataset.EncodeBucketizer(ww, fm.Gen.Bucketizer())
	pw := &wire.Writer{}
	fm.Gen.Encode(pw)
	ww.BytesField(pw.Bytes())
	dataset.EncodeRows(ww, fm.Seeds)
	ww.Float64(fm.ModelBudget.Epsilon)
	ww.Float64(fm.ModelBudget.Delta)
	for _, s := range fm.Splits {
		ww.Int(s)
	}
	_, err := w.Write(ww.Bytes())
	return err
}

// DecodeFittedModel reads a fitted model written by Encode, validating every
// layer (schema, bucket maps, the backend's model payload, seed records) so
// a corrupt or hand-crafted payload fails here instead of panicking during
// synthesis. A payload naming an unregistered backend is rejected. The
// backend builds (hence validates) every conditional table while decoding,
// and refuses tables over the size limit, so a poisoned snapshot that slips
// past the count checks is still rejected here rather than on a serving
// goroutine.
func DecodeFittedModel(r io.Reader) (*FittedModel, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sgf: reading fitted model: %w", err)
	}
	rr := wire.NewReader(raw)
	v := rr.Uvarint()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
	}

	var gen GenerativeModel
	switch v {
	case fittedModelVersionV1:
		// Legacy layout: bayesnet structure and counts inline, no backend ID.
		meta, bkt, err := decodeSchema(rr)
		if err != nil {
			return nil, err
		}
		st, err := bayesnet.DecodeStructure(rr, len(meta.Attrs))
		if err != nil {
			return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
		}
		model, err := bayesnet.DecodeModel(rr, meta, bkt, st)
		if err != nil {
			return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
		}
		gen = bayes.New(model, st)
	case fittedModelVersion:
		id := rr.ReadString()
		meta, bkt, err := decodeSchema(rr)
		if err != nil {
			return nil, err
		}
		payload := rr.BytesField()
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
		}
		be, ok := backend.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("sgf: snapshot uses unknown backend %q (registered: %v)", id, backend.IDs())
		}
		pr := wire.NewReader(payload)
		gen, err = be.Decode(pr, meta, bkt)
		if err != nil {
			return nil, fmt.Errorf("sgf: decoding %s model: %w", id, err)
		}
		// The backend must consume its payload exactly; trailing bytes mean
		// a corrupt or mismatched encoding.
		if err := pr.Done(); err != nil {
			return nil, fmt.Errorf("sgf: decoding %s model: %w", id, err)
		}
	default:
		return nil, fmt.Errorf("sgf: unsupported fitted-model version %d (supported: %d, %d)",
			v, fittedModelVersionV1, fittedModelVersion)
	}

	seeds, err := dataset.DecodeRows(rr, gen.Meta())
	if err != nil {
		return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
	}
	fm := &FittedModel{
		Backend: gen.Backend(),
		Gen:     gen,
		Seeds:   seeds,
	}
	if bm, ok := gen.(*bayes.Model); ok {
		fm.Model, fm.Structure = bm.M, bm.St
	}
	fm.ModelBudget.Epsilon = rr.Float64()
	fm.ModelBudget.Delta = rr.Float64()
	for i := range fm.Splits {
		fm.Splits[i] = rr.Int()
	}
	if err := rr.Done(); err != nil {
		return nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
	}
	return fm, nil
}

// decodeSchema reads the metadata/bucketizer pair shared by both payload
// layouts.
func decodeSchema(rr *wire.Reader) (*dataset.Metadata, *dataset.Bucketizer, error) {
	meta, err := dataset.DecodeMetadata(rr)
	if err != nil {
		return nil, nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
	}
	bkt, err := dataset.DecodeBucketizer(rr, meta)
	if err != nil {
		return nil, nil, fmt.Errorf("sgf: decoding fitted model: %w", err)
	}
	return meta, bkt, nil
}
