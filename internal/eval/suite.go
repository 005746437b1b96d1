package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
)

// This file is the single entry point for a full §6 evaluation run: one
// config, one result, one renderer. cmd/experiments and the scenario
// runner's eval step both call RunSuite, so the CLI report and the
// scenario goldens can never drift apart.

// SuiteSections lists the report sections RunSuite knows, in execution
// order. "pipeline" (build the §3 pipeline) always runs and may be named
// explicitly to request a pipeline-only run.
var SuiteSections = []string{
	"pipeline", "table2", "fig12", "fig34", "fig5", "fig6",
	"table3", "table4", "table5", "attack", "sigma", "maxcost", "parammode",
}

// SuiteConfig parameterizes one evaluation-suite run. The JSON form is a
// scenario manifest's eval.config; zero values select the §6.1 defaults at
// the given scale (see DefaultSuiteConfig).
type SuiteConfig struct {
	// N is the number of simulated clean records (paper: ~1.5M).
	N int `json:"n"`
	// Seed drives all randomness; together with the remaining parameters it
	// fully determines every non-timing number in the result.
	Seed uint64 `json:"seed"`
	// ModelEps / ModelDelta are the DP budget of the generative model.
	ModelEps   float64 `json:"model_eps,omitempty"`
	ModelDelta float64 `json:"model_delta,omitempty"`
	// K, Gamma, Eps0 are the privacy-test parameters (§6.1).
	K     int     `json:"k,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	Eps0  float64 `json:"eps0,omitempty"`
	// Omegas lists the synthesizer variants (empty = DefaultOmegas).
	Omegas []OmegaSpec `json:"omegas,omitempty"`
	// SynthPerVariant is the number of released records per ω variant.
	SynthPerVariant int `json:"synth_per_variant,omitempty"`
	// MaxPlausible / MaxCheckPlausible are the §5 early-exit knobs.
	MaxPlausible      int `json:"max_plausible,omitempty"`
	MaxCheckPlausible int `json:"max_check_plausible,omitempty"`
	// MaxCost caps parent-set complexity (eq. 6).
	MaxCost float64 `json:"max_cost,omitempty"`
	// Workers bounds generation parallelism (0 = GOMAXPROCS). Results never
	// depend on it (the core determinism contract), only wall-clock does.
	Workers int `json:"workers,omitempty"`

	// Sections selects which report sections to run (empty = all).
	Sections []string `json:"sections,omitempty"`
	// Reps is the noise-repetition count for Fig. 1 and Table 3 runs.
	Reps int `json:"reps,omitempty"`
	// Fig12Probes is the number of test records probed per attribute.
	Fig12Probes int `json:"fig12_probes,omitempty"`
	// Fig5Counts lists the candidate counts timed for Fig. 5.
	Fig5Counts []int `json:"fig5_counts,omitempty"`
	// Fig6Ks / Fig6Candidates parameterize the Fig. 6 k sweep.
	Fig6Ks         []int `json:"fig6_ks,omitempty"`
	Fig6Candidates int   `json:"fig6_candidates,omitempty"`
	// Table5Train / Table5Test size the distinguishing game.
	Table5Train int `json:"table5_train,omitempty"`
	Table5Test  int `json:"table5_test,omitempty"`
	// AttackCandidates sizes the seed-inference attack.
	AttackCandidates int `json:"attack_candidates,omitempty"`
	// AblationCandidates / AblationSamples size the ablation drivers.
	AblationCandidates int `json:"ablation_candidates,omitempty"`
	AblationSamples    int `json:"ablation_samples,omitempty"`
}

// DefaultSuiteConfig returns the cmd/experiments defaults at the given
// scale: every section, with the per-section workloads the full report
// uses.
func DefaultSuiteConfig(n int, seed uint64) SuiteConfig {
	base := DefaultConfig(n, seed)
	return SuiteConfig{
		N:                  n,
		Seed:               seed,
		ModelEps:           base.ModelEps,
		ModelDelta:         base.ModelDelta,
		K:                  base.K,
		Gamma:              base.Gamma,
		Eps0:               base.Eps0,
		SynthPerVariant:    base.SynthPerVariant,
		MaxPlausible:       base.MaxPlausible,
		MaxCheckPlausible:  base.MaxCheckPlausible,
		MaxCost:            base.MaxCost,
		Reps:               3,
		Fig12Probes:        5000,
		Fig5Counts:         []int{2500, 5000, 10000, 20000},
		Fig6Candidates:     400,
		Table5Train:        5000,
		Table5Test:         2500,
		AttackCandidates:   500,
		AblationCandidates: 500,
		AblationSamples:    5000,
	}
}

// WithDefaults fills every zero-valued per-section workload knob from
// DefaultSuiteConfig, so a sparse config (a minimal scenario eval.config)
// runs the exact full-report workloads cmd/experiments runs. RunSuite
// applies it, which is what makes CLI and scenario results comparable knob
// for knob.
func (c SuiteConfig) WithDefaults() SuiteConfig {
	def := DefaultSuiteConfig(c.N, c.Seed)
	if c.Reps == 0 {
		c.Reps = def.Reps
	}
	if c.Fig12Probes == 0 {
		c.Fig12Probes = def.Fig12Probes
	}
	if len(c.Fig5Counts) == 0 {
		c.Fig5Counts = def.Fig5Counts
	}
	if c.Fig6Candidates == 0 {
		c.Fig6Candidates = def.Fig6Candidates
	}
	if c.Table5Train == 0 {
		c.Table5Train = def.Table5Train
	}
	if c.Table5Test == 0 {
		c.Table5Test = def.Table5Test
	}
	if c.AttackCandidates == 0 {
		c.AttackCandidates = def.AttackCandidates
	}
	if c.AblationCandidates == 0 {
		c.AblationCandidates = def.AblationCandidates
	}
	if c.AblationSamples == 0 {
		c.AblationSamples = def.AblationSamples
	}
	return c
}

// PipelineConfig lowers the suite config to the pipeline Config, filling
// §6.1 defaults for zero-valued privacy knobs.
func (c SuiteConfig) PipelineConfig() Config {
	cfg := DefaultConfig(c.N, c.Seed)
	cfg.Workers = c.Workers
	if c.ModelEps != 0 {
		cfg.ModelEps = c.ModelEps
	}
	if c.ModelDelta != 0 {
		cfg.ModelDelta = c.ModelDelta
	}
	if c.K != 0 {
		cfg.K = c.K
	}
	if c.Gamma != 0 {
		cfg.Gamma = c.Gamma
	}
	if c.Eps0 != 0 {
		cfg.Eps0 = c.Eps0
	}
	if len(c.Omegas) > 0 {
		cfg.Omegas = c.Omegas
	}
	if c.SynthPerVariant != 0 {
		cfg.SynthPerVariant = c.SynthPerVariant
	}
	if c.MaxPlausible != 0 {
		cfg.MaxPlausible = c.MaxPlausible
	}
	if c.MaxCheckPlausible != 0 {
		cfg.MaxCheckPlausible = c.MaxCheckPlausible
	}
	if c.MaxCost != 0 {
		cfg.MaxCost = c.MaxCost
	}
	return cfg
}

// Validate rejects malformed suite configs (unknown sections, bad scale)
// before any work is spent on them.
func (c SuiteConfig) Validate() error {
	if c.N < 100 {
		return fmt.Errorf("eval: need at least 100 records, got %d", c.N)
	}
	known := make(map[string]bool, len(SuiteSections))
	for _, s := range SuiteSections {
		known[s] = true
	}
	for _, s := range c.Sections {
		if !known[s] {
			return fmt.Errorf("eval: unknown section %q (known: %s)", s, strings.Join(SuiteSections, ", "))
		}
	}
	if c.Reps < 0 {
		return fmt.Errorf("eval: negative reps %d", c.Reps)
	}
	return nil
}

// wants reports whether the named section is selected.
func (c SuiteConfig) wants(section string) bool {
	if len(c.Sections) == 0 {
		return true
	}
	for _, s := range c.Sections {
		if s == section {
			return true
		}
	}
	return false
}

// VariantSummary reports one ω variant's generation statistics.
type VariantSummary struct {
	Omega      OmegaSpec `json:"omega"`
	Candidates int       `json:"candidates"`
	Released   int       `json:"released"`
	PassRate   float64   `json:"pass_rate"`
}

// PipelineSummary is the header block of the report: split sizes, budgets,
// structure shape, per-variant generation stats and the Fig. 5 wall-clock
// components. The *MS fields are timings and therefore not reproducible
// run-to-run; everything else is seed-determined.
type PipelineSummary struct {
	SplitDT      int              `json:"split_dt"`
	SplitDP      int              `json:"split_dp"`
	SplitDS      int              `json:"split_ds"`
	SplitTest    int              `json:"split_test"`
	BudgetEps    float64          `json:"budget_eps"`
	BudgetDelta  float64          `json:"budget_delta"`
	Edges        int              `json:"edges"`
	Order        []string         `json:"order"`
	Variants     []VariantSummary `json:"variants"`
	ModelLearnMS int64            `json:"model_learn_ms"`
	SynthMS      int64            `json:"synth_ms"`
}

// SuiteResult is the full §6 report: the same tables and figure series
// cmd/experiments prints, as data. Sections that were not selected are nil
// and omitted from the JSON.
type SuiteResult struct {
	Config    Config              `json:"config"`
	Pipeline  PipelineSummary     `json:"pipeline"`
	Table2    *dataset.CleanStats `json:"table2,omitempty"`
	Fig12     *Fig12Result        `json:"fig12,omitempty"`
	Fig34     *DistanceResult     `json:"fig34,omitempty"`
	Fig5      *PerfResult         `json:"fig5,omitempty"`
	Fig6      *PassRateResult     `json:"fig6,omitempty"`
	Table3    *Table3Result       `json:"table3,omitempty"`
	Table4    *Table4Result       `json:"table4,omitempty"`
	Table5    *Table5Result       `json:"table5,omitempty"`
	Attack    *AttackResult       `json:"attack,omitempty"`
	Sigma     *SigmaOrderAblation `json:"sigma,omitempty"`
	MaxCost   *MaxCostAblation    `json:"maxcost,omitempty"`
	ParamMode *ParamModeAblation  `json:"parammode,omitempty"`
	ElapsedMS int64               `json:"elapsed_ms"`
}

// RunSuite executes the selected sections of the §6 evaluation. ctx aborts
// the run at the next section/loop boundary; progress (may be nil) receives
// monotonically non-decreasing completion fractions, with the pipeline
// build weighted as four sections.
func RunSuite(ctx context.Context, cfg SuiteConfig, progress ProgressFunc) (*SuiteResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()

	// Stage bookkeeping: the pipeline build counts for pipelineWeight units,
	// every other selected section for one.
	const pipelineWeight = 4
	sections := make([]string, 0, len(SuiteSections))
	for _, s := range SuiteSections[1:] { // skip "pipeline"
		if cfg.wants(s) {
			sections = append(sections, s)
		}
	}
	totalUnits := float64(pipelineWeight + len(sections))
	unitsDone := 0.0
	stageStart := func(name string) {
		progress.report(name, unitsDone/totalUnits)
	}

	start := time.Now()
	stageStart("pipeline")
	p, err := BuildPipelineCtx(ctx, cfg.PipelineConfig(), func(stage string, frac float64) {
		progress.report("pipeline: "+stage, frac*pipelineWeight/totalUnits)
	})
	if err != nil {
		return nil, fmt.Errorf("eval: pipeline: %w", err)
	}
	unitsDone = pipelineWeight

	res := &SuiteResult{Config: p.Cfg}
	res.Pipeline = summarizePipeline(p)

	for _, section := range sections {
		stageStart(section)
		if err := runSection(ctx, section, cfg, p, res); err != nil {
			return nil, fmt.Errorf("eval: %s: %w", section, err)
		}
		unitsDone++
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	progress.report("done", 1)
	return res, nil
}

// runSection dispatches one named section against the shared pipeline.
func runSection(ctx context.Context, section string, cfg SuiteConfig, p *Pipeline, res *SuiteResult) error {
	var err error
	switch section {
	case "table2":
		var st dataset.CleanStats
		if st, err = RunTable2(ctx, cfg.N, cfg.Seed); err == nil {
			res.Table2 = &st
		}
	case "fig12":
		res.Fig12, err = RunFig12(ctx, p, cfg.Reps, cfg.Fig12Probes)
	case "fig34":
		res.Fig34, err = RunFig34(ctx, p)
	case "fig5":
		res.Fig5, err = RunFig5(ctx, p, cfg.Fig5Counts)
	case "fig6":
		res.Fig6, err = RunFig6(ctx, p, cfg.Fig6Ks, nil, cfg.Fig6Candidates)
	case "table3":
		res.Table3, err = RunTable3(ctx, p, cfg.Reps)
	case "table4":
		res.Table4, err = RunTable4(ctx, p, nil)
	case "table5":
		res.Table5, err = RunTable5(ctx, p, cfg.Table5Train, cfg.Table5Test)
	case "attack":
		res.Attack, err = RunSeedInference(ctx, p, OmegaSpec{Lo: 9, Hi: 9}, cfg.AttackCandidates)
	case "sigma":
		res.Sigma, err = RunSigmaOrderAblation(ctx, p, OmegaSpec{Lo: 9, Hi: 9}, p.Cfg.K, cfg.AblationCandidates)
	case "maxcost":
		res.MaxCost, err = RunMaxCostAblation(ctx, p, nil, cfg.AblationSamples)
	case "parammode":
		res.ParamMode, err = RunParamModeAblation(ctx, p, cfg.AblationSamples)
	default:
		err = fmt.Errorf("unknown section")
	}
	return err
}

// summarizePipeline extracts the report header from a built pipeline.
func summarizePipeline(p *Pipeline) PipelineSummary {
	sum := PipelineSummary{
		SplitDT:      p.DT.Len(),
		SplitDP:      p.DP.Len(),
		SplitDS:      p.DS.Len(),
		SplitTest:    p.Test.Len(),
		BudgetEps:    p.Budgets.Model.Epsilon,
		BudgetDelta:  p.Budgets.Model.Delta,
		Edges:        p.Structure.Graph.NumEdges(),
		ModelLearnMS: p.ModelLearnTime.Milliseconds(),
		SynthMS:      p.SynthTime.Milliseconds(),
	}
	for _, attr := range p.Structure.Order {
		sum.Order = append(sum.Order, p.Meta.Attrs[attr].Name)
	}
	for _, om := range p.Cfg.Omegas {
		st := p.SynthStats[om.Name()]
		sum.Variants = append(sum.Variants, VariantSummary{
			Omega:      om,
			Candidates: st.Candidates,
			Released:   st.Released,
			PassRate:   st.PassRate(),
		})
	}
	return sum
}

// Render produces the plain-text report, section for section the same
// output cmd/experiments has always printed.
func (r *SuiteResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Plausible Deniability for Privacy-Preserving Data Synthesis — evaluation\n")
	fmt.Fprintf(&sb, "n=%d synth-per-variant=%d seed=%d\n\n",
		r.Config.N, r.Config.SynthPerVariant, r.Config.Seed)
	fmt.Fprintf(&sb, "pipeline: DT=%d DP=%d DS=%d test=%d; model learning %dms; synthesis %dms\n",
		r.Pipeline.SplitDT, r.Pipeline.SplitDP, r.Pipeline.SplitDS, r.Pipeline.SplitTest,
		r.Pipeline.ModelLearnMS, r.Pipeline.SynthMS)
	fmt.Fprintf(&sb, "model budget: (%g, %g)\n", r.Pipeline.BudgetEps, r.Pipeline.BudgetDelta)
	fmt.Fprintf(&sb, "structure: %d edges; order %v\n\n", r.Pipeline.Edges, r.Pipeline.Order)
	for _, v := range r.Pipeline.Variants {
		fmt.Fprintf(&sb, "variant %-18s %d candidates -> %d released (%.1f%%)\n",
			v.Omega.Name(), v.Candidates, v.Released, 100*v.PassRate)
	}
	sb.WriteByte('\n')

	if r.Table2 != nil {
		fmt.Fprintf(&sb, "Table 2: %s\n\n", r.Table2)
	}
	if r.Fig12 != nil {
		sb.WriteString(r.Fig12.RenderFig1() + "\n" + r.Fig12.RenderFig2() + "\n")
	}
	if r.Fig34 != nil {
		sb.WriteString(r.Fig34.Render() + "\n")
	}
	if r.Fig5 != nil {
		sb.WriteString(r.Fig5.Render() + "\n")
	}
	if r.Fig6 != nil {
		sb.WriteString(r.Fig6.Render() + "\n")
	}
	if r.Table3 != nil {
		sb.WriteString(r.Table3.Render() + "\n")
	}
	if r.Table4 != nil {
		sb.WriteString(r.Table4.Render() + "\n")
	}
	if r.Table5 != nil {
		sb.WriteString(r.Table5.Render() + "\n")
	}
	if r.Attack != nil {
		sb.WriteString(r.Attack.Render() + "\n")
	}
	if r.Sigma != nil {
		sb.WriteString(r.Sigma.Render() + "\n")
	}
	if r.MaxCost != nil {
		sb.WriteString(r.MaxCost.Render() + "\n")
	}
	if r.ParamMode != nil {
		sb.WriteString(r.ParamMode.Render() + "\n")
	}
	fmt.Fprintf(&sb, "total runtime: %dms\n", r.ElapsedMS)
	return sb.String()
}
