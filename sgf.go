// Package sgf is the public API of the synthetic generation framework: a Go
// implementation of "Plausible Deniability for Privacy-Preserving Data
// Synthesis" (Bindschaedler, Shokri, Gunter — VLDB 2017).
//
// The framework separates privacy-preserving data release into two
// independent modules (§2 of the paper):
//
//  1. a seed-based generative model — a Bayesian-network-style conditional
//     model learned with differential privacy (packages bayesnet, privacy) —
//     that turns a real record into a candidate synthetic record, and
//  2. a privacy test that releases a candidate only if at least k records
//     of the input data could have generated it with probability within a
//     factor γ (plausible deniability, Definition 1). Randomizing the
//     test's threshold makes the whole mechanism (ε, δ)-differentially
//     private (Theorem 1).
//
// Quickstart:
//
//	meta := …                       // schema (see dataset.Metadata)
//	data := …                       // *sgf.Dataset of real records
//	out, report, err := sgf.Synthesize(data, sgf.Options{
//		Records: 10000,
//		K:       50,
//		Gamma:   4,
//		Eps0:    1,
//		OmegaLo: 5, OmegaHi: 11,
//		ModelEps: 1, ModelDelta: 1e-9,
//		Seed: 42,
//	})
//
// The sub-packages remain importable for fine-grained control; this package
// re-exports the main types and provides the one-call pipeline.
package sgf

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/backend"
	"repro/internal/backend/bayes"
	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"

	// Linked for its registration side effect: the independent-marginals
	// backend is selectable by name wherever sgf is imported.
	_ "repro/internal/backend/marginal"
)

// Re-exported data substrate types.
type (
	// Dataset is an in-memory table of coded records.
	Dataset = dataset.Dataset
	// Record is one coded data row.
	Record = dataset.Record
	// Metadata describes a dataset schema.
	Metadata = dataset.Metadata
	// Attribute describes one column.
	Attribute = dataset.Attribute
	// Bucketizer is the bkt() discretizer used during structure learning.
	Bucketizer = dataset.Bucketizer
	// CleanStats summarizes CSV extraction and cleaning.
	CleanStats = dataset.CleanStats
)

// Re-exported model types.
type (
	// Model is the learned generative model (eq. 2).
	Model = bayesnet.Model
	// Structure is the learned dependency structure.
	Structure = bayesnet.Structure
	// StructureConfig controls CFS structure learning.
	StructureConfig = bayesnet.StructureConfig
	// ModelConfig controls parameter learning.
	ModelConfig = bayesnet.ModelConfig
)

// Re-exported core mechanism types.
type (
	// Synthesizer is a generative model M with computable Pr{y = M(d)}.
	Synthesizer = core.Synthesizer
	// SeedSynthesizer is the seed-based synthesis of §3.2.
	SeedSynthesizer = core.SeedSynthesizer
	// Probe is the per-candidate state a Synthesizer fills to price
	// Pr{y = M(d)} over many seeds d.
	Probe = core.Probe
	// TestConfig parameterizes the plausible deniability privacy test.
	TestConfig = core.TestConfig
	// TestResult is one privacy-test outcome.
	TestResult = core.TestResult
	// Mechanism is Mechanism 1 of the paper.
	Mechanism = core.Mechanism
	// GenStats aggregates a generation run.
	GenStats = core.GenStats
	// Budget is an (ε, δ) differential privacy guarantee.
	Budget = privacy.Budget
)

// Re-exported backend-interface types. The backend seam (internal/backend)
// is what makes the privacy test mechanism-agnostic in code, not just in
// the paper: any registered GenerativeModel can sit under Mechanism 1.
type (
	// GenerativeModel is a fitted generative model behind the pluggable
	// backend interface (see internal/backend and docs/BACKENDS.md).
	GenerativeModel = backend.Model
	// ModelDescription is a backend-neutral summary of a fitted model's
	// learned dependency structure.
	ModelDescription = backend.Description
)

// DefaultBackend is the backend used when FitOptions.Backend is empty: the
// paper's seed-based Bayes-net synthesis.
const DefaultBackend = backend.Default

// Backends returns the registered generative-model backend IDs, sorted.
func Backends() []string { return backend.IDs() }

// RNG re-exports the deterministic generator used across the framework.
type RNG = rng.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Options parameterizes the one-call Synthesize pipeline.
type Options struct {
	// Records is the number of synthetic records to release.
	Records int
	// K is the plausible deniability parameter k ≥ 1 of Definition 1.
	K int
	// Gamma is the indistinguishability ratio γ > 1 of Definition 1.
	Gamma float64
	// Eps0 randomizes the test threshold (Privacy Test 2); > 0 makes each
	// release (ε0+ln(1+γ/t), e^(−ε0(k−t)))-DP per Theorem 1. Zero selects
	// the deterministic Privacy Test 1 (plausible deniability only).
	Eps0 float64
	// OmegaLo/OmegaHi give the per-candidate re-sampled attribute count
	// range (§3.2); equal values fix ω.
	OmegaLo, OmegaHi int
	// ModelEps/ModelDelta set the differential privacy budget of the
	// generative model itself (§3.5). ModelEps <= 0 trains without noise
	// (the seeds are still protected by the privacy test).
	ModelEps, ModelDelta float64
	// Bucketizer optionally coarsens parent configurations (bkt(), §3.3);
	// nil means no bucketization.
	Bucketizer *dataset.Bucketizer
	// MaxCost caps parent-set complexity (eq. 6; 0 = 128).
	MaxCost float64
	// Backend selects the generative-model backend ("" = DefaultBackend).
	Backend string
	// MaxPlausible / MaxCheckPlausible are the §5 knobs (0 = unlimited).
	// The privacy test counts plausible seeds exactly, so MaxPlausible buys
	// no speed: it only caps the count. A MaxCheckPlausible below the seed
	// count selects the per-record walk, whose cost is linear in the cap
	// (see core.TestConfig).
	MaxPlausible, MaxCheckPlausible int
	// Workers bounds generation parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

// Report describes what a Synthesize run did.
type Report struct {
	// Gen aggregates candidate/release counts and timing.
	Gen GenStats
	// ModelBudget is the (ε, δ) spent learning the model (zero when the
	// model was trained without noise).
	ModelBudget Budget
	// ReleaseBudget is the per-released-record (ε, δ) of Theorem 1
	// (zero when the deterministic test was used).
	ReleaseBudget Budget
	// Structure is the learned dependency structure (nil for backends
	// without one, e.g. "marginal").
	Structure *Structure
	// Splits records the sizes of the DT/DP/DS partitions used.
	Splits [3]int
}

// FitOptions parameterizes the model-learning half of the pipeline (§3.3 to
// §3.5): everything up to, but not including, Mechanism 1.
type FitOptions struct {
	// ModelEps/ModelDelta set the differential privacy budget of the
	// generative model (§3.5). ModelEps <= 0 trains without noise.
	ModelEps, ModelDelta float64
	// Bucketizer optionally coarsens parent configurations; nil means the
	// metadata's default (no bucketization).
	Bucketizer *dataset.Bucketizer
	// MaxCost caps parent-set complexity (eq. 6; 0 = 128).
	MaxCost float64
	// Backend selects the generative-model backend by registered ID
	// ("" = DefaultBackend, the Bayes net). See Backends for the list.
	Backend string
	// Seed drives the dataset split and any model noise.
	Seed uint64
}

// FittedModel is a learned generative model together with the seed split it
// must be paired with: the reusable half of the pipeline. A serving layer
// fits once and answers many Synthesize calls — with different privacy
// parameters — against the same fitted model. FittedModel is immutable
// after Fit returns and safe for concurrent use.
type FittedModel struct {
	// Backend is the registered ID of the backend that fitted Gen.
	Backend string
	// Gen is the fitted generative model behind the backend interface; all
	// synthesis goes through it.
	Gen GenerativeModel
	// Model is the learned conditional model (eq. 2) when Backend is
	// "bayesnet"; nil for other backends. Kept for compatibility with code
	// written against the Bayes-net-only API.
	Model *Model
	// Structure is the learned dependency structure when Backend is
	// "bayesnet"; nil for other backends.
	Structure *Structure
	// Seeds is the DS split: the only records Mechanism 1 may use as seeds.
	Seeds *Dataset
	// ModelBudget is the (ε, δ) spent learning the model (zero when the
	// model was trained without noise).
	ModelBudget Budget
	// Splits records the sizes of the DT/DP/DS partitions used.
	Splits [3]int

	// scanOnce/scanTab lazily cache the privacy test's sorted seed table.
	// The table depends only on Seeds and the synthesizer's attribute order —
	// both fixed per fitted model — so one build serves every Mechanism the
	// model answers, whatever its privacy parameters.
	scanOnce sync.Once
	scanTab  *core.ScanTable
}

// Meta returns the schema the model was fitted over.
func (fm *FittedModel) Meta() *Metadata { return fm.Gen.Meta() }

// Describe summarizes the fitted model's learned dependency structure in a
// backend-neutral form.
func (fm *FittedModel) Describe() *ModelDescription { return fm.Gen.Describe() }

// Fit runs the learning half of the §3 pipeline: split the dataset into
// structure/parameter/seed partitions and learn the (optionally DP)
// generative model through the selected backend. The result can serve any
// number of Synthesize calls.
func Fit(data *Dataset, opts FitOptions) (*FittedModel, error) {
	if data.Len() < 10 {
		return nil, fmt.Errorf("sgf: dataset too small (%d records)", data.Len())
	}
	id := opts.Backend
	if id == "" {
		id = DefaultBackend
	}
	be, ok := backend.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("sgf: unknown backend %q (registered: %s)", id, strings.Join(backend.IDs(), ", "))
	}
	bkt := opts.Bucketizer
	if bkt == nil {
		bkt = dataset.NewBucketizer(data.Meta)
	}
	r := rng.New(opts.Seed)

	parts, err := data.SplitFrac(r.Split(), 0.25, 0.25, 0.5)
	if err != nil {
		return nil, err
	}
	dt, dp, ds := parts[0], parts[1], parts[2]

	fm := &FittedModel{Backend: id, Seeds: ds, Splits: [3]int{dt.Len(), dp.Len(), ds.Len()}}
	fm.Gen, fm.ModelBudget, err = be.Fit(backend.FitData{
		Structure:  dt,
		Params:     dp,
		Bkt:        bkt,
		ModelEps:   opts.ModelEps,
		ModelDelta: opts.ModelDelta,
		MaxCost:    opts.MaxCost,
		Seed:       opts.Seed,
		RNG:        r,
	})
	if err != nil {
		return nil, err
	}
	if bm, ok := fm.Gen.(*bayes.Model); ok {
		fm.Model, fm.Structure = bm.M, bm.St
	}
	return fm, nil
}

// SynthOptions parameterizes the release half of the pipeline: Mechanism 1
// over an already fitted model.
type SynthOptions struct {
	// Records is the number of synthetic records to release.
	Records int
	// K is the plausible deniability parameter k ≥ 1 of Definition 1.
	K int
	// Gamma is the indistinguishability ratio γ > 1 of Definition 1.
	Gamma float64
	// Eps0 > 0 selects the randomized Privacy Test 2 (Theorem 1).
	Eps0 float64
	// OmegaLo/OmegaHi give the re-sampled attribute count range (§3.2);
	// both zero means [1, m].
	OmegaLo, OmegaHi int
	// MaxCandidates caps the candidates drawn (0 = 100×Records).
	MaxCandidates int
	// MaxPlausible / MaxCheckPlausible are the §5 knobs (0 = unlimited).
	// The privacy test counts plausible seeds exactly, so MaxPlausible buys
	// no speed: it only caps the count. A MaxCheckPlausible below the seed
	// count selects the per-record walk, whose cost is linear in the cap
	// (see core.TestConfig).
	MaxPlausible, MaxCheckPlausible int
	// Workers bounds generation parallelism (0 = GOMAXPROCS). By the
	// core.GenerateCtx determinism contract the output does not depend on
	// it.
	Workers int
	// Seed drives all generation randomness.
	Seed uint64
}

// Mechanism builds the Mechanism 1 instance for these options over the
// fitted model.
func (fm *FittedModel) Mechanism(opts SynthOptions) (*Mechanism, error) {
	lo, hi := opts.OmegaLo, opts.OmegaHi
	if lo == 0 && hi == 0 {
		lo, hi = 1, len(fm.Meta().Attrs)
	}
	syn, err := fm.Gen.Synthesizer(lo, hi)
	if err != nil {
		return nil, err
	}
	tc := TestConfig{
		K:                 opts.K,
		Gamma:             opts.Gamma,
		Randomized:        opts.Eps0 > 0,
		Eps0:              opts.Eps0,
		MaxPlausible:      opts.MaxPlausible,
		MaxCheckPlausible: opts.MaxCheckPlausible,
	}
	mech, err := core.NewMechanism(syn, fm.Seeds, tc)
	if err != nil {
		return nil, err
	}
	// Attach the model-wide sorted seed table so per-request generation
	// skips the O(n·m) rebuild. The table keys on the synthesizer's order,
	// which is fixed per fitted model; the build is racy-safe behind
	// scanOnce, and a synthesizer with no fixed order needs no table (nil).
	fm.scanOnce.Do(func() { fm.scanTab = core.ScanTableFor(syn, fm.Seeds) })
	mech.Scan = fm.scanTab
	return mech, nil
}

// Synthesize releases opts.Records synthetic records from the fitted model
// through Mechanism 1, honouring ctx cancellation.
func (fm *FittedModel) Synthesize(ctx context.Context, opts SynthOptions) (*Dataset, GenStats, error) {
	mech, err := fm.Mechanism(opts)
	if err != nil {
		return nil, GenStats{}, err
	}
	return core.GenerateTargetCtx(ctx, mech, opts.Records, opts.MaxCandidates, opts.Workers, opts.Seed)
}

// SynthesizeStream is Synthesize with incremental delivery: released
// batches are handed to sink as soon as they are available, in
// deterministic order.
func (fm *FittedModel) SynthesizeStream(ctx context.Context, opts SynthOptions, sink func(batch []Record) error) (GenStats, error) {
	mech, err := fm.Mechanism(opts)
	if err != nil {
		return GenStats{}, err
	}
	return core.GenerateTargetStream(ctx, mech, opts.Records, opts.MaxCandidates, opts.Workers, opts.Seed, sink)
}

// Synthesize runs the full §3 pipeline on a dataset: split into
// structure/parameter/seed partitions, learn the (optionally DP) generative
// model, and release Records synthetics through Mechanism 1 with the
// (randomized) privacy test.
func Synthesize(data *Dataset, opts Options) (*Dataset, *Report, error) {
	return SynthesizeCtx(context.Background(), data, opts)
}

// SynthesizeCtx is Synthesize with cancellation: fitting runs to completion
// (it is not interruptible), generation stops at the next candidate
// boundary once ctx is cancelled.
func SynthesizeCtx(ctx context.Context, data *Dataset, opts Options) (*Dataset, *Report, error) {
	if opts.Records <= 0 {
		return nil, nil, fmt.Errorf("sgf: Records must be positive")
	}
	fm, err := Fit(data, FitOptions{
		ModelEps:   opts.ModelEps,
		ModelDelta: opts.ModelDelta,
		Bucketizer: opts.Bucketizer,
		MaxCost:    opts.MaxCost,
		Backend:    opts.Backend,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	report := &Report{
		ModelBudget: fm.ModelBudget,
		Structure:   fm.Structure,
		Splits:      fm.Splits,
	}
	sopts := SynthOptions{
		Records:           opts.Records,
		K:                 opts.K,
		Gamma:             opts.Gamma,
		Eps0:              opts.Eps0,
		OmegaLo:           opts.OmegaLo,
		OmegaHi:           opts.OmegaHi,
		MaxPlausible:      opts.MaxPlausible,
		MaxCheckPlausible: opts.MaxCheckPlausible,
		Workers:           opts.Workers,
		Seed:              opts.Seed + 1,
	}
	mech, err := fm.Mechanism(sopts)
	if err != nil {
		return nil, nil, err
	}
	if mech.Test.Randomized {
		if b, ok := mech.ReleaseBudget(1e-6); ok {
			report.ReleaseBudget = b
		}
	}
	out, stats, err := core.GenerateTargetCtx(ctx, mech, sopts.Records, sopts.MaxCandidates, sopts.Workers, sopts.Seed)
	report.Gen = stats
	return out, report, err
}

// LearnStructure re-exports CFS structure learning (§3.3).
func LearnStructure(dt *Dataset, bkt *Bucketizer, cfg StructureConfig) (*Structure, error) {
	return bayesnet.LearnStructure(dt, bkt, cfg)
}

// LearnModel re-exports parameter learning (§3.4).
func LearnModel(dp *Dataset, bkt *Bucketizer, st *Structure, cfg ModelConfig) (*Model, error) {
	return bayesnet.LearnModel(dp, bkt, st, cfg)
}

// NewSeedSynthesizer re-exports the §3.2 synthesizer constructor.
func NewSeedSynthesizer(model *Model, omegaLo, omegaHi int) (*SeedSynthesizer, error) {
	return core.NewSeedSynthesizer(model, omegaLo, omegaHi)
}

// NewMechanism re-exports the Mechanism 1 constructor.
func NewMechanism(syn Synthesizer, seeds *Dataset, test TestConfig) (*Mechanism, error) {
	return core.NewMechanism(syn, seeds, test)
}

// Generate re-exports the parallel generation pipeline.
func Generate(mech *Mechanism, candidates, workers int, seed uint64) (*Dataset, GenStats, error) {
	return core.Generate(mech, core.GenConfig{Candidates: candidates, Workers: workers, Seed: seed})
}

// GenerateTargetStream re-exports cancellable, incrementally delivered
// target-count generation (see core.GenerateTargetStream).
func GenerateTargetStream(ctx context.Context, mech *Mechanism, target, maxCandidates, workers int, seed uint64, sink func(batch []Record) error) (GenStats, error) {
	return core.GenerateTargetStream(ctx, mech, target, maxCandidates, workers, seed, sink)
}

// ReleaseBudget re-exports the Theorem 1 budget computation: the (ε, δ) of
// one released record for parameters (k, γ, ε0) at trade-off t.
func ReleaseBudget(k int, gamma, eps0 float64, t int) Budget {
	return privacy.ReleaseBudget(k, gamma, eps0, t)
}
