package bayesnet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// This file is the bayesnet half of the model snapshot codec (see
// sgf.FittedModel.Encode and internal/store). A model's learned state is its
// structure and its raw per-configuration count tables; the materialized
// probability tables are NOT encoded — they are a deterministic function of
// the counts and the hash-seeded noise streams (§5), so decoding rebuilds
// bit-identical tables. That keeps snapshots small.

// maxSnapshotCount bounds each persisted count. 2^50 rows is far beyond any
// dataset this system ingests, while keeping every per-configuration total
// (≤ card · 2^50 with card ≤ 2^16) comfortably finite, so a decoded model
// can never materialize an all-zero or non-finite probability vector from
// overflow alone.
const maxSnapshotCount = 1 << 50

// EncodeStructure appends the dependency structure: parent sets, the
// re-sampling order σ, CFS merit scores, and the (possibly noisy) entropy
// table when present.
func EncodeStructure(w *wire.Writer, st *Structure) {
	m := st.Graph.NumNodes()
	w.Uvarint(uint64(m))
	for i := 0; i < m; i++ {
		w.Ints(st.Graph.Parents[i])
	}
	w.Ints(st.Order)
	w.Float64s(st.Scores)
	if et := st.Entropies; et != nil {
		w.Bool(true)
		w.Float64s(et.Single)
		w.Float64s(et.Bucket)
		for i := range et.Pair {
			w.Float64s(et.Pair[i])
		}
		w.Float64(et.N)
	} else {
		w.Bool(false)
	}
}

// DecodeStructure reads a structure written by EncodeStructure, validating
// the graph (acyclicity, parent ranges) and that the order is a topological
// permutation of the attributes.
func DecodeStructure(r *wire.Reader, numAttrs int) (*Structure, error) {
	m := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m != numAttrs {
		return nil, fmt.Errorf("bayesnet: snapshot structure has %d nodes, schema has %d attributes", m, numAttrs)
	}
	g := NewGraph(m)
	for i := 0; i < m; i++ {
		g.Parents[i] = r.Ints()
	}
	order := r.Ints()
	scores := r.Float64s()
	var et *EntropyTable
	if r.Bool() {
		et = &EntropyTable{
			Single: r.Float64s(),
			Bucket: r.Float64s(),
			Pair:   make([][]float64, m),
		}
		for i := 0; i < m; i++ {
			et.Pair[i] = r.Float64s()
		}
		et.N = r.Float64()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("bayesnet: snapshot graph invalid: %w", err)
	}
	if len(order) != m {
		return nil, fmt.Errorf("bayesnet: snapshot order has %d entries, want %d", len(order), m)
	}
	pos := make([]int, m)
	for i := range pos {
		pos[i] = -1
	}
	for k, attr := range order {
		if attr < 0 || attr >= m || pos[attr] >= 0 {
			return nil, fmt.Errorf("bayesnet: snapshot order is not a permutation")
		}
		pos[attr] = k
	}
	for i := 0; i < m; i++ {
		for _, p := range g.Parents[i] {
			if pos[p] > pos[i] {
				return nil, fmt.Errorf("bayesnet: snapshot order places attribute %d before its parent %d", i, p)
			}
		}
	}
	if len(scores) != m {
		return nil, fmt.Errorf("bayesnet: snapshot scores have %d entries, want %d", len(scores), m)
	}
	if et != nil {
		if len(et.Single) != m || len(et.Bucket) != m {
			return nil, fmt.Errorf("bayesnet: snapshot entropy table has wrong shape")
		}
		for i := range et.Pair {
			if len(et.Pair[i]) != m {
				return nil, fmt.Errorf("bayesnet: snapshot entropy table has wrong shape")
			}
		}
	}
	return &Structure{Graph: g, Order: order, Scores: scores, Entropies: et}, nil
}

// EncodeModel appends the model's learned parameters: the learning config
// and the per-attribute raw count tables, with configurations in ascending
// index order so the encoding is deterministic. The schema, bucketizer and
// structure are encoded separately by the caller.
func EncodeModel(w *wire.Writer, m *Model) {
	w.Float64(m.cfg.Alpha)
	w.Int(int(m.cfg.Mode))
	w.Bool(m.cfg.DP)
	w.Float64(m.cfg.EpsP)
	w.String(m.cfg.NoiseKey)
	// Retired flag for a Gaussian conditional; always false, so snapshots
	// keep their layout.
	w.Bool(false)
	for i := range m.counts {
		configs := make([]uint32, 0, len(m.counts[i]))
		for c := range m.counts[i] {
			configs = append(configs, c)
		}
		sort.Slice(configs, func(a, b int) bool { return configs[a] < configs[b] })
		w.Uvarint(uint64(len(configs)))
		for _, c := range configs {
			w.Uvarint(uint64(c))
			w.Float64s(m.counts[i][c])
		}
	}
}

// DecodeModel reads a model written by EncodeModel over the given schema,
// bucketizer and structure, validating every count vector against the
// attribute cardinalities and configuration counts, and builds its tables
// (refusing tables over MaxTableBytes before reading any count). The
// decoded model has the same probability tables as the encoded one: counts
// are bit-exact and the noise streams are keyed by (NoiseKey, attr, config).
func DecodeModel(r *wire.Reader, meta *dataset.Metadata, bkt *dataset.Bucketizer, st *Structure) (*Model, error) {
	var cfg ModelConfig
	cfg.Alpha = r.Float64()
	cfg.Mode = ParamMode(r.Int())
	cfg.DP = r.Bool()
	cfg.EpsP = r.Float64()
	cfg.NoiseKey = r.ReadString()
	gaussian := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if gaussian {
		return nil, fmt.Errorf("bayesnet: snapshot model uses the retired Gaussian numerical conditional")
	}
	if cfg.Mode != MAPEstimate && cfg.Mode != PosteriorSample {
		return nil, fmt.Errorf("bayesnet: snapshot model has unknown parameter mode %d", cfg.Mode)
	}
	if !(cfg.Alpha > 0) || math.IsInf(cfg.Alpha, 0) {
		return nil, fmt.Errorf("bayesnet: snapshot model has invalid alpha %g", cfg.Alpha)
	}
	// newEmptyModel's `EpsP <= 0` check is NaN-blind; a NaN or Inf scale
	// would poison every materialized count vector at synthesis time.
	if cfg.DP && (!(cfg.EpsP > 0) || math.IsInf(cfg.EpsP, 0)) {
		return nil, fmt.Errorf("bayesnet: snapshot model has invalid EpsP %g", cfg.EpsP)
	}
	model, err := newEmptyModel(meta, bkt, st, cfg)
	if err != nil {
		return nil, err
	}
	for i := range model.counts {
		card := meta.Attrs[i].Card()
		nc := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nc < 0 || uint64(nc) > uint64(model.numConfigs[i]) {
			return nil, fmt.Errorf("bayesnet: snapshot attribute %d has %d configurations, model allows %d",
				i, nc, model.numConfigs[i])
		}
		for k := 0; k < nc; k++ {
			c := r.Uvarint()
			vec := r.Float64s()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if c >= uint64(model.numConfigs[i]) {
				return nil, fmt.Errorf("bayesnet: snapshot attribute %d configuration %d out of range [0,%d)",
					i, c, model.numConfigs[i])
			}
			if _, dup := model.counts[i][uint32(c)]; dup {
				return nil, fmt.Errorf("bayesnet: snapshot attribute %d repeats configuration %d", i, c)
			}
			if len(vec) != card {
				return nil, fmt.Errorf("bayesnet: snapshot attribute %d count vector has %d entries, domain has %d",
					i, len(vec), card)
			}
			for _, v := range vec {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("bayesnet: snapshot attribute %d has invalid count %g", i, v)
				}
				// Counts are row tallies; anything beyond maxSnapshotCount is
				// not data but an attack on the normalizer (finite counts whose
				// sum overflows materialize to all-zero probability vectors,
				// which used to panic Categorical on the serving path).
				if v > maxSnapshotCount {
					return nil, fmt.Errorf("bayesnet: snapshot attribute %d has implausible count %g (max %g)",
						i, v, float64(maxSnapshotCount))
				}
			}
			model.counts[i][uint32(c)] = vec
		}
	}
	if err := model.build(); err != nil {
		return nil, err
	}
	return model, nil
}
