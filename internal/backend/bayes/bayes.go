// Package bayes adapts the paper's §3 Bayesian-network synthesis
// (internal/bayesnet) to the backend.Backend interface. It is the default
// backend ("bayesnet"): correlation-based structure learning (§3.3),
// Dirichlet-smoothed parameter learning with optional Laplace noise
// (§3.4–3.5), and the seed-based conditional synthesizer of §3.2.
//
// The adapter is a thin shell — all learning and sampling lives in
// internal/bayesnet and internal/core — but it owns the fit recipe that
// earlier releases hardwired into sgf.Fit, and it must keep that recipe's
// RNG-consumption order and noise keys exactly: refitting the same data
// with the same seed must produce byte-identical models across releases.
package bayes

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/wire"
)

// ID is the backend's registry key.
const ID = "bayesnet"

func init() { backend.Register(Backend{}) }

// Backend is the Bayes-net backend handle.
type Backend struct{}

// ID returns "bayesnet".
func (Backend) ID() string { return ID }

// Fit learns the dependency structure from the DT split and the conditional
// count tables from the DP split, calibrating per-stage DP budgets with
// privacy.CalibrateModel when d.ModelEps > 0.
//
// Compatibility invariant: this is byte-for-byte the learning block that
// sgf.Fit ran before backends were pluggable. The RNG is consumed in the
// same order (one Split, only under DP) and the noise key is the same
// "sgf-<seed>", so models refit from identical inputs are identical to
// pre-backend models.
func (Backend) Fit(d backend.FitData) (backend.Model, privacy.Budget, error) {
	scfg := bayesnet.StructureConfig{MaxCost: d.MaxCost, MinCorr: 0.01}
	mcfg := bayesnet.ModelConfig{Alpha: 1, NoiseKey: fmt.Sprintf("sgf-%d", d.Seed)}
	var spent privacy.Budget
	if d.ModelEps > 0 {
		delta := d.ModelDelta
		if delta <= 0 {
			delta = 1e-9
		}
		budgets, err := privacy.CalibrateModel(len(d.Params.Meta.Attrs), d.ModelEps, delta)
		if err != nil {
			return nil, privacy.Budget{}, err
		}
		scfg.DP, scfg.EpsH, scfg.EpsN, scfg.Rng = true, budgets.EpsH, budgets.EpsN, d.RNG.Split()
		mcfg.DP, mcfg.EpsP = true, budgets.EpsP
		spent = budgets.Model
	}
	st, err := bayesnet.LearnStructure(d.Structure, d.Bkt, scfg)
	if err != nil {
		return nil, privacy.Budget{}, err
	}
	m, err := bayesnet.LearnModel(d.Params, d.Bkt, st, mcfg)
	if err != nil {
		return nil, privacy.Budget{}, err
	}
	return &Model{M: m, St: st}, spent, nil
}

// Decode reads a model written by Model.Encode: the learned structure
// followed by the raw count tables, both validated by the bayesnet codecs.
func (Backend) Decode(r *wire.Reader, meta *dataset.Metadata, bkt *dataset.Bucketizer) (backend.Model, error) {
	st, err := bayesnet.DecodeStructure(r, len(meta.Attrs))
	if err != nil {
		return nil, err
	}
	m, err := bayesnet.DecodeModel(r, meta, bkt, st)
	if err != nil {
		return nil, err
	}
	return &Model{M: m, St: st}, nil
}

// Model wraps a learned Bayes net and its structure as a backend.Model.
type Model struct {
	// M is the learned conditional model (eq. 2).
	M *bayesnet.Model
	// St is the learned dependency structure.
	St *bayesnet.Structure
}

// New wraps an already learned Bayes net (e.g. one built by the eval
// pipeline or by direct bayesnet calls) as a backend.Model.
func New(m *bayesnet.Model, st *bayesnet.Structure) *Model {
	return &Model{M: m, St: st}
}

// Backend returns "bayesnet".
func (*Model) Backend() string { return ID }

// Meta returns the schema the model was fitted over.
func (m *Model) Meta() *dataset.Metadata { return m.M.Meta }

// Bucketizer returns the discretizer the model was fitted with.
func (m *Model) Bucketizer() *dataset.Bucketizer { return m.M.Bkt }

// Synthesizer returns the §3.2 seed-based synthesizer for the ω range.
func (m *Model) Synthesizer(omegaLo, omegaHi int) (core.Synthesizer, error) {
	return core.NewSeedSynthesizer(m.M, omegaLo, omegaHi)
}

// Freeze is a no-op: Fit and Decode build every conditional table.
//
// Deprecated: perfbench is the only caller; delete this once it stops calling it.
func (m *Model) Freeze(budget int64) error { return nil }

// Encode appends the learned structure and raw count tables to the writer.
func (m *Model) Encode(w *wire.Writer) {
	bayesnet.EncodeStructure(w, m.St)
	bayesnet.EncodeModel(w, m.M)
}

// Describe summarizes the learned DAG: sampling order, per-attribute
// parents and edge count.
func (m *Model) Describe() *backend.Description {
	meta := m.M.Meta
	d := &backend.Description{
		Backend: ID,
		Order:   make([]string, len(m.St.Order)),
		Parents: make(map[string][]string, len(meta.Attrs)),
		Edges:   m.St.Graph.NumEdges(),
	}
	for i, attr := range m.St.Order {
		d.Order[i] = meta.Attrs[attr].Name
	}
	for attr := range meta.Attrs {
		parents := m.St.Graph.Parents[attr]
		names := make([]string, len(parents))
		for i, p := range parents {
			names[i] = meta.Attrs[p].Name
		}
		d.Parents[meta.Attrs[attr].Name] = names
	}
	return d
}
