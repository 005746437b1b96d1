// Package marginal implements the independent-marginals histogram backend
// ("marginal"): every attribute is modeled by its own one-dimensional
// histogram and synthetic records are sampled attribute-by-attribute with
// no dependencies, ignoring the seed. It is the classic fully-synthetic
// baseline surveyed in Bowen & Liu (arXiv:1602.01063) — the weakest
// utility model the privacy test can wrap, and therefore the simplest
// demonstration that the plausible-deniability mechanism is generic:
// because generation never reads the seed, Pr{y = M(d)} is the same for
// every d, so every input record is an equally plausible seed and the
// privacy test degenerates to a threshold on the dataset size (§8 of the
// source paper).
//
// Differential privacy: with ModelEps = ε > 0 each of the m per-attribute
// histograms is released via the Laplace mechanism at εp = ε/m (one record
// contributes one bin in each histogram, so sequential composition totals
// ε, δ = 0). Noise comes from hash-seeded streams keyed on the fit seed —
// the same deterministic-noise trick the Bayes-net backend uses — so a
// model refit or re-decoded from its raw counts materializes identical
// noisy parameters.
package marginal

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/wire"
)

// ID is the backend's registry key.
const ID = "marginal"

// payloadVersion versions the marginal model's snapshot payload.
const payloadVersion = 1

// maxSnapshotCount bounds a persisted histogram tally (2^50, same poison
// guard as the bayesnet codec): large enough for any real dataset, small
// enough that sums cannot overflow float64 precision.
const maxSnapshotCount = float64(1 << 50)

func init() { backend.Register(Backend{}) }

// Backend is the independent-marginals backend handle.
type Backend struct{}

// ID returns "marginal".
func (Backend) ID() string { return ID }

// Fit tallies one histogram per attribute from the DP split. Structure
// learning has nothing to do for an independence model, so the DT split is
// unused and the whole ModelEps budget goes to parameter noise.
func (Backend) Fit(d backend.FitData) (backend.Model, privacy.Budget, error) {
	meta := d.Params.Meta
	if len(meta.Attrs) == 0 {
		return nil, privacy.Budget{}, fmt.Errorf("marginal: dataset has no attributes")
	}
	cfg := config{Alpha: 1, NoiseKey: fmt.Sprintf("sgf-marginal-%d", d.Seed)}
	var spent privacy.Budget
	if d.ModelEps > 0 {
		cfg.DP = true
		cfg.EpsP = d.ModelEps / float64(len(meta.Attrs))
		spent = privacy.Budget{Epsilon: d.ModelEps}
	}
	counts := make([][]float64, len(meta.Attrs))
	for attr := range meta.Attrs {
		counts[attr] = make([]float64, meta.Attrs[attr].Card())
	}
	for _, rec := range d.Params.Rows() {
		for attr, code := range rec {
			counts[attr][code]++
		}
	}
	m, err := newModel(meta, d.Bkt, cfg, counts)
	if err != nil {
		return nil, privacy.Budget{}, err
	}
	return m, spent, nil
}

// Decode reads a model written by Model.Encode, validating the payload
// version, the smoothing and noise configuration, and every tally (shape,
// finiteness, range) before rematerializing the probability tables.
func (Backend) Decode(r *wire.Reader, meta *dataset.Metadata, bkt *dataset.Bucketizer) (backend.Model, error) {
	if v := r.Uvarint(); v != payloadVersion {
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("marginal: %w", err)
		}
		return nil, fmt.Errorf("marginal: unsupported payload version %d (supported: %d)", v, payloadVersion)
	}
	var cfg config
	cfg.Alpha = r.Float64()
	cfg.DP = r.Bool()
	cfg.EpsP = r.Float64()
	cfg.NoiseKey = r.ReadString()
	counts := make([][]float64, len(meta.Attrs))
	for attr := range meta.Attrs {
		counts[attr] = r.Float64s()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("marginal: %w", err)
	}
	if !(cfg.Alpha > 0) || math.IsInf(cfg.Alpha, 0) {
		return nil, fmt.Errorf("marginal: invalid smoothing alpha %g", cfg.Alpha)
	}
	if cfg.DP && (!(cfg.EpsP > 0) || math.IsInf(cfg.EpsP, 0)) {
		return nil, fmt.Errorf("marginal: DP model with invalid eps_p %g", cfg.EpsP)
	}
	for attr := range meta.Attrs {
		card := meta.Attrs[attr].Card()
		if len(counts[attr]) != card {
			return nil, fmt.Errorf("marginal: attribute %q has %d tallies, want %d",
				meta.Attrs[attr].Name, len(counts[attr]), card)
		}
		for l, n := range counts[attr] {
			if math.IsNaN(n) || n < 0 || n > maxSnapshotCount {
				return nil, fmt.Errorf("marginal: attribute %q level %d tally %g out of range",
					meta.Attrs[attr].Name, l, n)
			}
		}
	}
	return newModel(meta, bkt, cfg, counts)
}

// config holds the marginal model's learning configuration; it is persisted
// beside the raw counts so noise rematerializes identically at decode.
type config struct {
	// Alpha is the Dirichlet smoothing pseudo-count (MAP estimate).
	Alpha float64
	// DP enables Laplace randomization of the tallies.
	DP bool
	// EpsP is the per-histogram privacy parameter εp = ε/m.
	EpsP float64
	// NoiseKey namespaces the hash-derived noise streams.
	NoiseKey string
}

// Model is a fitted independent-marginals model: raw per-attribute tallies
// plus probability tables materialized deterministically from them at
// construction. It is immutable and safe for concurrent use.
type Model struct {
	meta *dataset.Metadata
	bkt  *dataset.Bucketizer
	cfg  config
	// counts[attr][level] is the raw (pre-noise) tally; this is what the
	// codec persists, mirroring the bayesnet convention of snapshotting
	// sufficient statistics and rematerializing noise at decode.
	counts [][]float64
	// probs[attr][level] is the materialized sampling distribution:
	// noisy-clamped counts, Alpha-smoothed and normalized. Strictly
	// positive everywhere (Alpha > 0), so log-probabilities are finite.
	probs [][]float64
}

// newModel materializes the probability tables: per attribute, add Laplace
// noise (when DP) from the attribute's hashed stream, clamp at zero
// (eq. 14 of the source paper, applied to a 1-D histogram), then
// MAP-estimate with Alpha smoothing (eq. 13).
func newModel(meta *dataset.Metadata, bkt *dataset.Bucketizer, cfg config, counts [][]float64) (*Model, error) {
	if cfg.DP && cfg.EpsP <= 0 {
		return nil, fmt.Errorf("marginal: DP learning needs EpsP > 0")
	}
	m := &Model{meta: meta, bkt: bkt, cfg: cfg, counts: counts, probs: make([][]float64, len(counts))}
	for attr := range counts {
		card := len(counts[attr])
		noisy := make([]float64, card)
		copy(noisy, counts[attr])
		if cfg.DP {
			stream := rng.NewHashed(cfg.NoiseKey, "attr", strconv.Itoa(attr))
			for l := range noisy {
				noisy[l] += stream.Laplace(1 / cfg.EpsP)
				if noisy[l] < 0 {
					noisy[l] = 0
				}
			}
		}
		probs := make([]float64, card)
		total := 0.0
		for l := range noisy {
			total += cfg.Alpha + noisy[l]
		}
		for l := range noisy {
			probs[l] = (cfg.Alpha + noisy[l]) / total
		}
		m.probs[attr] = probs
	}
	return m, nil
}

// Backend returns "marginal".
func (*Model) Backend() string { return ID }

// Meta returns the schema the model was fitted over.
func (m *Model) Meta() *dataset.Metadata { return m.meta }

// Bucketizer returns the discretizer the model was fitted with (carried
// for codec symmetry; an independence model never consults it).
func (m *Model) Bucketizer() *dataset.Bucketizer { return m.bkt }

// Synthesizer validates the ω range for interface parity with the seed
// synthesizer and returns the seed-ignoring marginal sampler.
func (m *Model) Synthesizer(omegaLo, omegaHi int) (core.Synthesizer, error) {
	w := len(m.meta.Attrs)
	if omegaLo < 1 || omegaHi > w || omegaLo > omegaHi {
		return nil, fmt.Errorf("marginal: omega range [%d,%d] invalid for %d attributes", omegaLo, omegaHi, w)
	}
	return &Synthesizer{m: m}, nil
}

// Freeze is a no-op: the sampling tables are immutable from construction.
//
// Deprecated: perfbench is the only caller; delete this once it stops calling it.
func (m *Model) Freeze(budget int64) error { return nil }

// Encode appends the payload version, the learning configuration and the
// raw per-attribute tallies to the writer.
func (m *Model) Encode(w *wire.Writer) {
	w.Uvarint(payloadVersion)
	w.Float64(m.cfg.Alpha)
	w.Bool(m.cfg.DP)
	w.Float64(m.cfg.EpsP)
	w.String(m.cfg.NoiseKey)
	for attr := range m.counts {
		w.Float64s(m.counts[attr])
	}
}

// Describe summarizes the (edgeless) model: attributes in sampling order,
// no parents, no edges.
func (m *Model) Describe() *backend.Description {
	d := &backend.Description{
		Backend: ID,
		Order:   make([]string, len(m.meta.Attrs)),
		Parents: make(map[string][]string, len(m.meta.Attrs)),
	}
	for attr := range m.meta.Attrs {
		d.Order[attr] = m.meta.Attrs[attr].Name
		d.Parents[m.meta.Attrs[attr].Name] = []string{}
	}
	return d
}

// Synthesizer samples every attribute independently from its marginal; the
// seed is ignored. Generation draws exactly one Categorical per attribute
// from the per-candidate RNG stream, so output is a deterministic function
// of (model, candidate index, seed) — worker-count independent through
// core.GenerateCtx. Its probe is constant, so the privacy test counts
// plausible seeds in O(1) per candidate.
type Synthesizer struct {
	m *Model
}

// GenerateInto samples a record attribute by attribute into dst; the seed
// is unused.
func (s *Synthesizer) GenerateInto(dst, _ dataset.Record, r *rng.RNG) {
	for attr := range s.m.probs {
		dst[attr] = uint16(r.Categorical(s.m.probs[attr]))
	}
}

// Probe sets the constant Π_i Pr{y_i}: generation ignores the seed, so
// every record is an equally plausible seed.
func (s *Synthesizer) Probe(y dataset.Record, p *core.Probe) {
	prob := 1.0
	for attr := range s.m.probs {
		prob *= s.m.probs[attr][y[attr]]
	}
	p.SetConstant(prob)
}

var _ core.Synthesizer = (*Synthesizer)(nil)
