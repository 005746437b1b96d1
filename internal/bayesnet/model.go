package bayesnet

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ParamMode selects how multinomial parameters are derived from the
// Dirichlet posterior of eq. (11).
type ParamMode int

const (
	// MAPEstimate uses the most likely parameters of eq. (13):
	// p = (α + n) / (Σα + Σn).
	MAPEstimate ParamMode = iota
	// PosteriorSample draws the parameters from the Dirichlet posterior of
	// eq. (12) once per configuration, which the paper does "to increase
	// the variety of data samples". The draw is deterministic given the
	// configuration (hash-seeded stream), so parallel workers and repeated
	// probability queries agree (§5).
	PosteriorSample
)

// ModelConfig controls parameter learning (§3.4).
type ModelConfig struct {
	// Alpha is the symmetric Dirichlet prior pseudo-count per value
	// (α in eq. 11). Zero means 1 (uniform prior).
	Alpha float64
	// Mode selects MAP parameters or posterior-sampled parameters.
	Mode ParamMode
	// DP enables differentially private parameter learning: each count is
	// randomized as ñ = max(0, n + Lap(1/εp)) per eq. (14).
	DP bool
	// EpsP is the per-attribute privacy parameter εp (required when DP).
	EpsP float64
	// NoiseKey namespaces the hash-derived noise streams; two models with
	// the same key, data, and structure materialize identical noisy
	// parameters (the paper's deterministic-RNG-seeding trick, §5).
	NoiseKey string
}

// Model is the learned generative model of eq. (2): a structure G̃ plus
// per-attribute conditional probability tables over bucketized parent
// configurations (eq. 7). LearnModel and DecodeModel build every table
// before they return, so a model is immutable and safe for concurrent use.
type Model struct {
	Meta   *dataset.Metadata
	Bkt    *dataset.Bucketizer
	Struct *Structure
	cfg    ModelConfig

	// radix[i] holds the bucket cardinalities of attribute i's parents,
	// used for mixed-radix configuration indexing.
	radix [][]int
	// numConfigs[i] = Π radix[i] (the #c of eq. 12).
	numConfigs []uint32
	// counts[i] maps a configuration index to the raw count vector ~n_i^c
	// over attribute i's values. Configurations absent from the training
	// data are simply missing (all-zero counts).
	counts []map[uint32][]float64
	// tables[i] holds attribute i's conditional tables (see tables.go).
	tables []table
	bytes  int64
}

// newEmptyModel builds a model shell over the given schema, bucketizer and
// structure — config normalized, radix tables and empty count maps in place
// — ready for LearnModel to tally counts into, or for the snapshot codec to
// fill with persisted counts; both then call build. It refuses a structure
// whose tables would exceed MaxTableBytes before anything is allocated.
func newEmptyModel(meta *dataset.Metadata, bkt *dataset.Bucketizer, st *Structure, cfg ModelConfig) (*Model, error) {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1
	}
	if cfg.DP && cfg.EpsP <= 0 {
		return nil, fmt.Errorf("bayesnet: DP parameter learning needs EpsP > 0")
	}
	m := len(meta.Attrs)
	if st.Graph.NumNodes() != m {
		return nil, fmt.Errorf("bayesnet: structure has %d nodes, dataset has %d attributes", st.Graph.NumNodes(), m)
	}
	model := &Model{
		Meta:       meta,
		Bkt:        bkt,
		Struct:     st,
		cfg:        cfg,
		radix:      make([][]int, m),
		numConfigs: make([]uint32, m),
		counts:     make([]map[uint32][]float64, m),
	}
	for i := 0; i < m; i++ {
		ps := st.Graph.Parents[i]
		model.radix[i] = make([]int, len(ps))
		// Clamping the configuration count keeps every product and byte
		// count far below int64 overflow, and refuses a count that would wrap
		// uint32: a clamped count alone needs more than MaxTableBytes.
		nc := int64(1)
		for pi, p := range ps {
			model.radix[i][pi] = bkt.Card(p)
			nc = min(nc*int64(bkt.Card(p)), MaxTableBytes+1)
		}
		if model.bytes += tableBytes(nc, meta.Attrs[i].Card()); model.bytes > MaxTableBytes {
			return nil, fmt.Errorf("bayesnet: conditional tables exceed the %d MiB limit at attribute %q; lower max_cost",
				MaxTableBytes>>20, meta.Attrs[i].Name)
		}
		model.numConfigs[i] = uint32(nc)
		model.counts[i] = make(map[uint32][]float64)
	}
	return model, nil
}

// LearnModel tallies the parameter-learning split DP into per-configuration
// count vectors and builds the model's conditional tables from them.
func LearnModel(dp *dataset.Dataset, bkt *dataset.Bucketizer, st *Structure, cfg ModelConfig) (*Model, error) {
	model, err := newEmptyModel(dp.Meta, bkt, st, cfg)
	if err != nil {
		return nil, err
	}
	m := dp.NumAttrs()
	// One scan over DP tallies every attribute's counts (the ~n_i^c of
	// eq. 11).
	for _, rec := range dp.Rows() {
		for i := 0; i < m; i++ {
			c := model.ConfigIndex(i, rec)
			cv := model.counts[i][c]
			if cv == nil {
				cv = make([]float64, dp.Meta.Attrs[i].Card())
				model.counts[i][c] = cv
			}
			cv[rec[i]]++
		}
	}
	if err := model.build(); err != nil {
		return nil, err
	}
	return model, nil
}

// ConfigIndex returns the mixed-radix index of attribute i's parent
// configuration in the given record (parents are read bucketized, eq. 7).
func (m *Model) ConfigIndex(attr int, rec dataset.Record) uint32 {
	idx := uint32(0)
	ps := m.Struct.Graph.Parents[attr]
	for pi, p := range ps {
		idx = idx*uint32(m.radix[attr][pi]) + uint32(m.Bkt.Bucket(p, rec[p]))
	}
	return idx
}

// NumConfigs returns the number of parent configurations of the attribute
// (#c in eq. 12; bounded by maxcost via eq. 6).
func (m *Model) NumConfigs(attr int) uint32 { return m.numConfigs[attr] }

// materialize writes the probability vector of one configuration into dst
// (length card): raw counts → optional Laplace randomization (eq. 14) → MAP
// estimate (eq. 13) or a posterior Dirichlet sample (eq. 12). All noise and
// sampling come from a stream seeded by a hash of (NoiseKey, attr, config),
// so the result is a deterministic function of the configuration (§5).
func (m *Model) materialize(attr int, c uint32, dst []float64) {
	clear(dst)
	copy(dst, m.counts[attr][c])
	stream := rng.NewHashed(m.cfg.NoiseKey, "attr", itoa(attr), "config", utoa(c))
	if m.cfg.DP {
		for l := range dst {
			dst[l] += stream.Laplace(1 / m.cfg.EpsP)
			if dst[l] < 0 {
				dst[l] = 0
			}
		}
	}
	switch m.cfg.Mode {
	case PosteriorSample:
		for l := range dst {
			dst[l] += m.cfg.Alpha
		}
		copy(dst, stream.Dirichlet(dst))
	default: // MAPEstimate, eq. (13)
		total := 0.0
		for l := range dst {
			total += m.cfg.Alpha + dst[l]
		}
		for l := range dst {
			dst[l] = (m.cfg.Alpha + dst[l]) / total
		}
	}
}

// CondProb returns Pr{x_attr = value | parents(rec)} — the conditional of
// eq. (2) with the approximation of eq. (7).
func (m *Model) CondProb(attr int, value uint16, rec dataset.Record) float64 {
	t := &m.tables[attr]
	return t.probs[int64(m.ConfigIndex(attr, rec))*int64(t.card)+int64(value)]
}

// CondDist returns the full conditional distribution of the attribute given
// the record's parent values. The returned slice is shared; callers must
// not modify it.
func (m *Model) CondDist(attr int, rec dataset.Record) []float64 {
	return m.tables[attr].row(m.ConfigIndex(attr, rec))
}

// SampleAttr samples a value for the attribute conditioned on the record's
// parent values (eq. 3), consuming the RNG state of, and returning the value
// of, r.Categorical over CondDist.
func (m *Model) SampleAttr(attr int, rec dataset.Record, r *rng.RNG) uint16 {
	t := &m.tables[attr]
	c := int64(m.ConfigIndex(attr, rec))
	row := c * int64(t.card)
	cum := t.cum[row : row+int64(t.card)]
	if t.guide != nil {
		goff := c * int64(t.gslots)
		return uint16(r.DrawCumGuided(cum, t.guide[goff:goff+int64(t.gslots)]))
	}
	return uint16(r.DrawCum(cum))
}

// SampleRecord draws a full record by ancestral sampling in σ order.
func (m *Model) SampleRecord(r *rng.RNG) dataset.Record {
	rec := make(dataset.Record, len(m.Meta.Attrs))
	m.SampleChain(rec, m.Struct.Order, 0, r)
	return rec
}

// LogProb returns the log (base e) joint probability of the record under
// the factorization of eq. (2). It returns -Inf only if some conditional is
// exactly zero, which cannot happen with a positive Dirichlet prior.
func (m *Model) LogProb(rec dataset.Record) float64 {
	lp := 0.0
	for attr := range m.Meta.Attrs {
		p := m.CondProb(attr, rec[attr], rec)
		if p <= 0 {
			return math.Inf(-1)
		}
		lp += math.Log(p)
	}
	return lp
}

// MostLikely returns the most probable value of the attribute given all
// other attribute values in the record, by exact Markov-blanket inference:
//
//	P(x_i = v | x_¬i) ∝ P(v | PG(i)) · Π_{c: i ∈ PG(c)} P(x_c | PG(c)[x_i=v])
//
// This implements the model-accuracy probe of §6.2 (Figs. 1–2). The record
// itself is not modified.
func (m *Model) MostLikely(attr int, rec dataset.Record) uint16 {
	card := m.Meta.Attrs[attr].Card()
	children := m.Struct.Graph.Children(attr)
	work := rec.Clone()
	bestV, bestScore := uint16(0), math.Inf(-1)
	for v := 0; v < card; v++ {
		work[attr] = uint16(v)
		score := math.Log(m.CondProb(attr, uint16(v), work))
		for _, c := range children {
			p := m.CondProb(c, rec[c], work)
			if p <= 0 {
				score = math.Inf(-1)
				break
			}
			score += math.Log(p)
		}
		if score > bestScore {
			bestScore, bestV = score, uint16(v)
		}
	}
	return bestV
}

// MarginalDist returns the marginal distribution the model assigns to a
// root attribute (no parents). For attributes with parents it returns the
// conditional under configuration 0; callers wanting true marginals should
// build a model over MarginalStructure.
func (m *Model) MarginalDist(attr int) []float64 { return m.tables[attr].row(0) }

func itoa(v int) string { return utoa(uint32(v)) }

func utoa(v uint32) string {
	// Minimal integer formatting to avoid strconv in a hot path.
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
