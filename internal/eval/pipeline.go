// Package eval reproduces the evaluation of §6 of the paper: every figure
// (1–6) and table (2–5) has a driver here that runs the full pipeline —
// simulate ACS-like data, learn a DP generative model, synthesize with the
// plausible deniability mechanism, and measure utility — and renders the
// same rows/series the paper reports. Workload sizes are configurable so
// the same drivers power both the quick benchmarks and full-scale runs of
// cmd/experiments.
package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/acs"
	"repro/internal/backend"
	"repro/internal/backend/bayes"
	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// ProgressFunc receives coarse progress reports from the long-running
// drivers: a human-readable stage name and an overall completion fraction
// in [0, 1]. Fractions are non-decreasing within one run. A nil ProgressFunc
// is always allowed.
type ProgressFunc func(stage string, frac float64)

// report invokes p when non-nil.
func (p ProgressFunc) report(stage string, frac float64) {
	if p != nil {
		p(stage, frac)
	}
}

// checkCtx returns ctx's error if it has been cancelled. The drivers call
// it at loop boundaries so a gone caller (an aborted HTTP request, a SIGINT)
// stops the run at the next cheap opportunity instead of running §6 to
// completion for nobody.
func checkCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// OmegaSpec names one ω setting of §6: fixed (Lo == Hi) or uniform random
// in [Lo, Hi]. The JSON form is the one a SuiteConfig's "omegas" list takes.
type OmegaSpec struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Name renders the spec the way the paper labels its table columns.
func (o OmegaSpec) Name() string {
	if o.Lo == o.Hi {
		return fmt.Sprintf("omega=%d", o.Lo)
	}
	return fmt.Sprintf("omega in [%d-%d]", o.Lo, o.Hi)
}

// DefaultOmegas is the variant list used throughout §6:
// ω = 11, 10, 9, ω ∈R [9–11], ω ∈R [5–11].
func DefaultOmegas() []OmegaSpec {
	return []OmegaSpec{{11, 11}, {10, 10}, {9, 9}, {9, 11}, {5, 11}}
}

// Config scales and parameterizes the evaluation pipeline.
type Config struct {
	// N is the number of clean simulated records (the paper uses ~1.5M;
	// benches use 10–60k). Split 20/20/40/20% into DT/DP/DS/test.
	N int
	// Seed drives all randomness.
	Seed uint64
	// ModelEps is the DP budget of the generative model (paper: ε = 1).
	ModelEps float64
	// ModelDelta is the DP δ of the model (paper: ≤ 2^-30).
	ModelDelta float64
	// K, Gamma, Eps0 are the privacy-test parameters (paper defaults:
	// k = 50, γ = 4, ε0 = 1; §6.1).
	K     int
	Gamma float64
	Eps0  float64
	// Omegas lists the synthesizer variants to produce.
	Omegas []OmegaSpec
	// SynthPerVariant is the number of released records wanted per variant.
	SynthPerVariant int
	// MaxPlausible / MaxCheckPlausible are the §5 early-exit knobs.
	MaxPlausible      int
	MaxCheckPlausible int
	// MaxCost caps parent-set complexity (eq. 6). Zero means
	// bayesnet.DefaultMaxCost, 128. The cap interacts with the DP noise:
	// parameter learning adds Laplace noise of scale 1/εp (≈ 22 at a total
	// model budget of ε = 1 over 11 attributes) to every per-configuration
	// count, so the records-per-configuration ratio |DP|/maxcost must stay
	// well above that scale for the conditionals to carry signal.
	MaxCost float64
	// Workers bounds generation parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the §6.1 parameters at the given scale.
func DefaultConfig(n int, seed uint64) Config {
	return Config{
		N:                 n,
		Seed:              seed,
		ModelEps:          1,
		ModelDelta:        math.Pow(2, -30),
		K:                 50,
		Gamma:             4,
		Eps0:              1,
		Omegas:            DefaultOmegas(),
		SynthPerVariant:   n / 10,
		MaxPlausible:      100,
		MaxCheckPlausible: 50000,
		MaxCost:           128,
	}
}

// Pipeline holds everything the experiment drivers share: the simulated
// input data and its splits, the DP structure and models, and the released
// synthetic datasets per ω variant.
type Pipeline struct {
	Cfg  Config
	Meta *dataset.Metadata
	Bkt  *dataset.Bucketizer

	// DT/DP/DS are the §3 splits (structure, parameters, seeds); Test is
	// held out for evaluation.
	DT, DP, DS, Test *dataset.Dataset

	Budgets   privacy.ModelNoiseBudgets
	Structure *bayesnet.Structure
	Model     *bayesnet.Model
	// Gen wraps Model behind the pluggable backend interface; the ω-variant
	// mechanisms are built through it, so the evaluation exercises the same
	// seam the serving layer does.
	Gen backend.Model
	// MarginalModel is the privacy-preserving marginals baseline.
	MarginalModel *bayesnet.Model

	// Synths maps each ω variant name to its released synthetic dataset.
	Synths map[string]*dataset.Dataset
	// SynthStats maps each variant to its generation statistics.
	SynthStats map[string]core.GenStats
	// Marginals is a dataset sampled from MarginalModel (always passes the
	// privacy test; §8).
	Marginals *dataset.Dataset

	// ModelLearnTime and SynthTime record the Fig. 5 timings.
	ModelLearnTime time.Duration
	SynthTime      time.Duration
}

// BuildPipeline simulates the data, learns the DP model and generates the
// synthetic datasets for every configured ω variant.
func BuildPipeline(cfg Config) (*Pipeline, error) {
	return BuildPipelineCtx(context.Background(), cfg, nil)
}

// BuildPipelineCtx is BuildPipeline with cancellation and progress: ctx is
// honoured between phases and inside the synthesis loops, and progress (may
// be nil) receives the phase name plus a completion fraction in [0, 1].
func BuildPipelineCtx(ctx context.Context, cfg Config, progress ProgressFunc) (*Pipeline, error) {
	if cfg.N < 100 {
		return nil, fmt.Errorf("eval: need at least 100 records, got %d", cfg.N)
	}
	if len(cfg.Omegas) == 0 {
		cfg.Omegas = DefaultOmegas()
	}
	r := rng.New(cfg.Seed)

	progress.report("simulate", 0)
	p := &Pipeline{Cfg: cfg}
	pop := acs.NewPopulation()
	p.Meta = pop.Meta()
	var err error
	if p.Bkt, err = acs.Bucketizer(p.Meta); err != nil {
		return nil, err
	}
	clean := pop.Generate(r.Split(), cfg.N)

	parts, err := clean.SplitFrac(r.Split(), 0.2, 0.2, 0.4, 0.2)
	if err != nil {
		return nil, err
	}
	p.DT, p.DP, p.DS, p.Test = parts[0], parts[1], parts[2], parts[3]

	m := len(p.Meta.Attrs)
	if p.Budgets, err = privacy.CalibrateModel(m, cfg.ModelEps, cfg.ModelDelta); err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	progress.report("learn model", 0.1)
	learnStart := time.Now()
	p.Structure, err = bayesnet.LearnStructure(p.DT, p.Bkt, bayesnet.StructureConfig{
		MaxCost: cfg.MaxCost,
		MinCorr: 0.01,
		DP:      true,
		EpsH:    p.Budgets.EpsH,
		EpsN:    p.Budgets.EpsN,
		Rng:     r.Split(),
	})
	if err != nil {
		return nil, err
	}
	p.Model, err = bayesnet.LearnModel(p.DP, p.Bkt, p.Structure, bayesnet.ModelConfig{
		Alpha:    1,
		Mode:     bayesnet.MAPEstimate,
		DP:       true,
		EpsP:     p.Budgets.EpsP,
		NoiseKey: fmt.Sprintf("model-%d", cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	p.MarginalModel, err = bayesnet.LearnModel(p.DP, p.Bkt, bayesnet.MarginalStructure(p.Meta), bayesnet.ModelConfig{
		Alpha:    1,
		Mode:     bayesnet.MAPEstimate,
		DP:       true,
		EpsP:     p.Budgets.EpsP,
		NoiseKey: fmt.Sprintf("marginal-%d", cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	p.Gen = bayes.New(p.Model, p.Structure)
	p.ModelLearnTime = time.Since(learnStart)
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}

	// Synthesize each ω variant. The fractions allot [0.3, 0.95] to the
	// synthesis loop, split evenly across variants.
	synthStart := time.Now()
	p.Synths = make(map[string]*dataset.Dataset, len(cfg.Omegas))
	p.SynthStats = make(map[string]core.GenStats, len(cfg.Omegas))
	for vi, om := range cfg.Omegas {
		progress.report("synthesize "+om.Name(), 0.3+0.65*float64(vi)/float64(len(cfg.Omegas)))
		ds, stats, err := p.GenerateVariantCtx(ctx, om, cfg.SynthPerVariant)
		if err != nil {
			return nil, fmt.Errorf("eval: variant %s: %w", om.Name(), err)
		}
		p.Synths[om.Name()] = ds
		p.SynthStats[om.Name()] = stats
	}
	p.SynthTime = time.Since(synthStart)

	// Marginals baseline dataset of the same size.
	progress.report("marginals baseline", 0.95)
	mr := rng.New(cfg.Seed + 0x9e37)
	marg := dataset.New(p.Meta)
	for i := 0; i < cfg.SynthPerVariant; i++ {
		if i%4096 == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
		}
		marg.Append(p.MarginalModel.SampleRecord(mr))
	}
	p.Marginals = marg
	progress.report("pipeline ready", 1)
	return p, nil
}

// Mechanism builds the plausible deniability mechanism for one ω variant,
// going through the backend seam (identical synthesis to constructing the
// seed synthesizer directly).
func (p *Pipeline) Mechanism(om OmegaSpec) (*core.Mechanism, error) {
	syn, err := p.Gen.Synthesizer(om.Lo, om.Hi)
	if err != nil {
		return nil, err
	}
	return core.NewMechanism(syn, p.DS, core.TestConfig{
		K:                 p.Cfg.K,
		Gamma:             p.Cfg.Gamma,
		Randomized:        true,
		Eps0:              p.Cfg.Eps0,
		MaxPlausible:      p.Cfg.MaxPlausible,
		MaxCheckPlausible: p.Cfg.MaxCheckPlausible,
	})
}

// GenerateVariant produces `count` released records for one ω variant.
func (p *Pipeline) GenerateVariant(om OmegaSpec, count int) (*dataset.Dataset, core.GenStats, error) {
	return p.GenerateVariantCtx(context.Background(), om, count)
}

// GenerateVariantCtx is GenerateVariant with cancellation: workers stop at
// the next candidate boundary when ctx is cancelled.
func (p *Pipeline) GenerateVariantCtx(ctx context.Context, om OmegaSpec, count int) (*dataset.Dataset, core.GenStats, error) {
	mech, err := p.Mechanism(om)
	if err != nil {
		return nil, core.GenStats{}, err
	}
	seed := p.Cfg.Seed ^ uint64(om.Lo)<<32 ^ uint64(om.Hi)<<40
	return core.GenerateTargetCtx(ctx, mech, count, 200*count, p.Cfg.Workers, seed)
}
