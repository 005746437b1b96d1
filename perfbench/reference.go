package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	sgf "repro"
	"repro/internal/dataset"
)

// fitInProcess fits panel model j through the public path, from the same
// upload sgfd received.
func fitInProcess(in *inputs, j int) (*sgf.FittedModel, error) {
	meta, err := dataset.ReadJSON(bytes.NewReader(in.metaJSON))
	if err != nil {
		return nil, err
	}
	data, _, err := dataset.ReadCSV(strings.NewReader(in.csv[j]), meta)
	if err != nil {
		return nil, err
	}
	return sgf.Fit(data, in.fitOptions(j))
}

func (in *inputs) fitOptions(j int) sgf.FitOptions {
	w := in.w
	return sgf.FitOptions{
		ModelEps: w.ModelEps, ModelDelta: w.ModelDelta, MaxCost: w.MaxCost,
		Backend: w.Backend, Seed: fitSeed(j),
	}
}

func synthOptions(b synthBody, workers int) sgf.SynthOptions {
	return sgf.SynthOptions{
		Records: b.Records, K: b.K, Gamma: b.Gamma, Eps0: b.Eps0,
		OmegaLo: b.OmegaLo, OmegaHi: b.OmegaHi, MaxCandidates: b.MaxCandidates,
		MaxPlausible: b.MaxPlausible, MaxCheckPlausible: b.MaxCheckPlausible,
		Workers: workers, Seed: b.Seed,
	}
}

// referenceBytes computes a request in-process — dataset.ReadCSV,
// sgf.Fit, FittedModel.SynthesizeStream — and renders every record with
// encoding/json, attributes in schema order: the bytes sgfd must stream.
func referenceBytes(in *inputs, r result) ([]byte, error) {
	fm, err := fitInProcess(in, r.model)
	if err != nil {
		return nil, err
	}
	attrs := fm.Meta().Attrs
	var out bytes.Buffer
	_, err = fm.SynthesizeStream(context.Background(), synthOptions(in.w.synthBody(in.w.Records, r.seed), 0),
		func(batch []dataset.Record) error {
			for _, rec := range batch {
				out.WriteByte('{')
				for i, code := range rec {
					if i > 0 {
						out.WriteByte(',')
					}
					// Marshalling a string cannot fail.
					name, _ := json.Marshal(attrs[i].Name)
					val, _ := json.Marshal(attrs[i].Value(code))
					out.Write(name)
					out.WriteByte(':')
					out.Write(val)
				}
				out.WriteString("}\n")
			}
			return nil
		})
	return out.Bytes(), err
}

// checkOutput compares the kept request's bytes with the reference.
func checkOutput(in *inputs, r result) error {
	if r.err != nil {
		return fmt.Errorf("request failed: %w", r.err)
	}
	want, err := referenceBytes(in, r)
	if err != nil {
		return fmt.Errorf("computing the reference: %w", err)
	}
	if !bytes.Equal(r.body, want) {
		return fmt.Errorf("sgfd streamed %d bytes that differ from the %d-byte in-process reference",
			len(r.body), len(want))
	}
	return nil
}
