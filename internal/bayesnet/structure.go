package bayesnet

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DefaultMaxCost is the eq. (6) cap on an attribute's parent-bucket
// configurations when StructureConfig.MaxCost is zero.
const DefaultMaxCost = 128

// StructureConfig controls CFS structure learning (§3.3).
type StructureConfig struct {
	// MaxCost caps the number of joint parent-bucket configurations per
	// attribute, the constraint of eq. (6). Zero means DefaultMaxCost.
	MaxCost float64
	// MaxParents optionally caps the parent-set size (0 = no cap).
	MaxParents int
	// MinCorr discards candidate parents whose correlation with the target
	// (eq. 5) falls below this threshold. The merit score of eq. (4) always
	// improves when the first parent is added, however weakly correlated,
	// so a small floor (e.g. 0.01) keeps noise-level dependencies out of
	// the graph. Zero disables the floor.
	MinCorr float64
	// DP enables differentially private structure learning: every entropy
	// is perturbed with Laplace noise calibrated to the Lemma 1 sensitivity
	// (eq. 8–9), and the record count used in the sensitivity is itself
	// randomized (eq. 10).
	DP bool
	// EpsH is the per-entropy privacy parameter εH (required when DP).
	EpsH float64
	// EpsN is the privacy parameter for the noisy record count (eq. 10).
	EpsN float64
	// Rng supplies the noise (required when DP).
	Rng *rng.RNG
}

// Structure is the learned dependency structure: the DAG G, the re-sampling
// order σ of §3.2 (a topological order of G), and the per-attribute CFS
// merit scores achieved.
type Structure struct {
	Graph  *Graph
	Order  []int
	Scores []float64
	// Entropies is the (possibly noisy) entropy table the structure was
	// learned from; exported for diagnostics.
	Entropies *EntropyTable
}

// EntropyTable holds the m(m+1) entropy values needed by §3.3.1: H(x_i) and
// H(bkt(x_i)) for every attribute, and H(x_i, bkt(x_j)) for every ordered
// pair i≠j. When DP structure learning is enabled these hold the noisy
// versions H̃.
type EntropyTable struct {
	// Single[i] = H(x_i).
	Single []float64
	// Bucket[i] = H(bkt(x_i)).
	Bucket []float64
	// Pair[i][j] = H(x_i, bkt(x_j)) for i≠j; Pair[i][i] is unused.
	Pair [][]float64
	// N is the (possibly noisy) record count used for the sensitivity.
	N float64
}

// ComputeEntropies builds the entropy table from the structure-learning
// split DT, adding Laplace noise per eq. (8)–(10) when cfg.DP is set.
func ComputeEntropies(dt *dataset.Dataset, bkt *dataset.Bucketizer, cfg StructureConfig) (*EntropyTable, error) {
	m := dt.NumAttrs()
	if dt.Len() == 0 {
		return nil, fmt.Errorf("bayesnet: structure learning on empty dataset")
	}
	if cfg.DP {
		if cfg.EpsH <= 0 || cfg.EpsN <= 0 {
			return nil, fmt.Errorf("bayesnet: DP structure learning needs EpsH > 0 and EpsN > 0")
		}
		if cfg.Rng == nil {
			return nil, fmt.Errorf("bayesnet: DP structure learning needs an RNG")
		}
	}

	et := &EntropyTable{
		Single: make([]float64, m),
		Bucket: make([]float64, m),
		Pair:   make([][]float64, m),
		N:      float64(dt.Len()),
	}

	// Randomize the record count before using it in the sensitivity
	// (eq. 10): ñT = nT + Lap(1/εnT), floored at 1 to keep the bound sane.
	sens := 0.0
	if cfg.DP {
		et.N = privacy.Laplace(cfg.Rng, et.N, 1, cfg.EpsN)
		if et.N < 1 {
			et.N = 1
		}
		sens = privacy.EntropySensitivity(et.N)
	}
	noisy := func(h float64) float64 {
		if !cfg.DP {
			return h
		}
		return privacy.Laplace(cfg.Rng, h, sens, cfg.EpsH)
	}

	cols := make([][]uint16, m)
	bcols := make([][]uint16, m)
	for a := 0; a < m; a++ {
		cols[a] = dt.Column(a)
		bcols[a] = bkt.BucketColumn(a, cols[a])
	}
	for i := 0; i < m; i++ {
		card := dt.Meta.Attrs[i].Card()
		et.Single[i] = noisy(stats.FromColumn(cols[i], card).Entropy())
		et.Bucket[i] = noisy(stats.FromColumn(bcols[i], bkt.Card(i)).Entropy())
		et.Pair[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			joint := stats.FromColumns(cols[i], dt.Meta.Attrs[i].Card(), bcols[j], bkt.Card(j))
			et.Pair[i][j] = noisy(joint.Entropy())
		}
	}
	return et, nil
}

// corrTarget returns corr(x_i, x_j) of eq. (5) for target attribute i and
// candidate parent j, using the bucketized parent per eq. (7).
func (et *EntropyTable) corrTarget(i, j int) float64 {
	return stats.SymmetricalUncertainty(et.Single[i], et.Bucket[j], et.Pair[i][j])
}

// corrParents returns the inner correlation between two (candidate) parent
// attributes. Only H(x_i, bkt(x_j)) entropies are available (the m(m+1)
// noisy values of §3.3.1), so the symmetrized ordered-pair SU is used.
func (et *EntropyTable) corrParents(j, k int) float64 {
	a := stats.SymmetricalUncertainty(et.Single[j], et.Bucket[k], et.Pair[j][k])
	b := stats.SymmetricalUncertainty(et.Single[k], et.Bucket[j], et.Pair[k][j])
	return (a + b) / 2
}

// merit computes the CFS merit score of eq. (4) for parent set ps of target
// attribute i.
func (et *EntropyTable) merit(i int, ps []int) float64 {
	if len(ps) == 0 {
		return 0
	}
	num := 0.0
	for _, j := range ps {
		num += et.corrTarget(i, j)
	}
	inner := 0.0
	for a := 0; a < len(ps); a++ {
		for b := 0; b < len(ps); b++ {
			if a != b {
				inner += et.corrParents(ps[a], ps[b])
			}
		}
	}
	den := math.Sqrt(float64(len(ps)) + inner)
	if den <= 0 {
		return 0
	}
	return num / den
}

// LearnStructure runs greedy CFS (§3.3): for each attribute, repeatedly add
// the parent that maximizes the merit score of eq. (4), subject to the
// acyclicity of G and the complexity constraint of eq. (6). Attributes are
// processed in descending order of their best single-parent correlation, so
// strongly predictable attributes claim their parents first.
func LearnStructure(dt *dataset.Dataset, bkt *dataset.Bucketizer, cfg StructureConfig) (*Structure, error) {
	et, err := ComputeEntropies(dt, bkt, cfg)
	if err != nil {
		return nil, err
	}
	return LearnStructureFromEntropies(dt.Meta, bkt, et, cfg)
}

// LearnStructureFromEntropies runs the greedy CFS search over a
// pre-computed (possibly noisy) entropy table. Splitting this step out lets
// callers reuse one table across repeated searches and makes the search
// itself deterministic given the table.
func LearnStructureFromEntropies(meta *dataset.Metadata, bkt *dataset.Bucketizer, et *EntropyTable, cfg StructureConfig) (*Structure, error) {
	m := len(meta.Attrs)
	maxCost := cfg.MaxCost
	if maxCost <= 0 {
		maxCost = DefaultMaxCost
	}
	maxParents := cfg.MaxParents
	if maxParents <= 0 {
		maxParents = m - 1
	}

	g := NewGraph(m)
	scores := make([]float64, m)

	// Process targets with the strongest available correlation first.
	type targetRank struct {
		attr int
		best float64
	}
	ranks := make([]targetRank, m)
	for i := 0; i < m; i++ {
		best := 0.0
		for j := 0; j < m; j++ {
			if j != i {
				if c := et.corrTarget(i, j); c > best {
					best = c
				}
			}
		}
		ranks[i] = targetRank{attr: i, best: best}
	}
	for a := 0; a < m; a++ { // selection sort: deterministic, m is small
		top := a
		for b := a + 1; b < m; b++ {
			if ranks[b].best > ranks[top].best ||
				(ranks[b].best == ranks[top].best && ranks[b].attr < ranks[top].attr) {
				top = b
			}
		}
		ranks[a], ranks[top] = ranks[top], ranks[a]
	}

	for _, tr := range ranks {
		i := tr.attr
		var ps []int
		cost := 1.0
		score := 0.0
		for len(ps) < maxParents {
			bestJ, bestScore := -1, score
			for j := 0; j < m; j++ {
				if j == i || contains(ps, j) {
					continue
				}
				if et.corrTarget(i, j) < cfg.MinCorr {
					continue
				}
				if cost*float64(bkt.Card(j)) > maxCost {
					continue // eq. (6)
				}
				if g.WouldCycle(j, i) {
					continue
				}
				cand := et.merit(i, append(append([]int(nil), ps...), j))
				if cand > bestScore {
					bestScore, bestJ = cand, j
				}
			}
			if bestJ < 0 {
				break // no candidate improves the merit score
			}
			if err := g.AddEdge(bestJ, i); err != nil {
				return nil, err
			}
			ps = append(ps, bestJ)
			cost *= float64(bkt.Card(bestJ))
			score = bestScore
		}
		scores[i] = score
	}

	// Re-sampling order σ: topological, preferring low-cardinality
	// attributes early (see TopologicalOrderPreferring).
	cards := make([]int, m)
	for i := range meta.Attrs {
		cards[i] = meta.Attrs[i].Card()
	}
	order, err := g.TopologicalOrderPreferring(cards)
	if err != nil {
		return nil, err
	}
	return &Structure{Graph: g, Order: order, Scores: scores, Entropies: et}, nil
}

// MarginalStructure returns the edgeless structure over the schema: every
// attribute is modeled by its marginal distribution. This is the baseline
// synthesizer of §3.2. The order is cardinality-ascending for consistency
// with learned structures (it is irrelevant to marginal sampling).
func MarginalStructure(meta *dataset.Metadata) *Structure {
	m := len(meta.Attrs)
	g := NewGraph(m)
	cards := make([]int, m)
	for i := range meta.Attrs {
		cards[i] = meta.Attrs[i].Card()
	}
	order, err := g.TopologicalOrderPreferring(cards)
	if err != nil {
		// An edgeless graph cannot have a cycle.
		panic(err)
	}
	return &Structure{Graph: g, Order: order, Scores: make([]float64, m)}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
