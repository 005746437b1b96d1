// Package scenario implements the declarative scenario-package subsystem:
// a directory-per-workload contribution model for correctness and speed
// coverage of the synthesis service.
//
// A scenario package is a directory under scenarios/ holding one
// manifest.json (what to fit, what to synthesize, what to evaluate, what
// to benchmark) plus checked-in golden expected outputs. The Runner
// executes every package's fit and synthesize steps against a live sgfd
// over HTTP — spawning an in-process one when no external address is
// given — runs its §6 evaluation in its own process, and diffs the
// streamed NDJSON and evaluation results against the goldens. Adding a
// workload to the regression net is adding a directory; see
// docs/SCENARIOS.md for the authoring HOWTO.
//
// The package splits into four pieces: the manifest loader/validator
// (this file), the golden differ (diff.go), the runner (runner.go,
// spawn.go) and the per-scenario benchmark harness (bench.go) whose JSON
// output feeds the existing cmd/benchjson compare/ratio machinery.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	sgf "repro"
	"repro/internal/eval"
)

// nameRE constrains scenario and step names: they appear in file paths,
// benchmark names and CI output, so they stay lowercase-kebab.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// ManifestFile is the file name every scenario package must contain.
const ManifestFile = "manifest.json"

// Manifest is the parsed manifest.json of one scenario package: one fit,
// an optional dedicated-server requirement, and the synthesize / eval /
// bench steps to run against the fitted model.
type Manifest struct {
	// Name must match the scenario's directory name.
	Name string `json:"name"`
	// Description says what workload the scenario pins, for `scenarios list`.
	Description string `json:"description,omitempty"`
	// Fit describes the model every step runs against.
	Fit FitSpec `json:"fit"`
	// Server, when set, makes the runner spawn a dedicated in-process sgfd
	// with this configuration for the scenario (budget-enforcement scenarios
	// cannot share a server with everyone else). Nil scenarios share one.
	Server *ServerSpec `json:"server,omitempty"`
	// Synthesize lists the synthesize steps, run in order.
	Synthesize []SynthStep `json:"synthesize,omitempty"`
	// Eval, when set, runs a §6 evaluation suite and diffs its (normalized)
	// result against a golden.
	Eval *EvalSpec `json:"eval,omitempty"`
	// Bench, when set, defines the scenario's benchmark for `scenarios bench`.
	Bench *BenchSpec `json:"bench,omitempty"`

	// Dir is the scenario package directory; set by Load, not serialized.
	Dir string `json:"-"`
}

// FitSpec is the model-fit half of a manifest: either a built-in dataset
// reference or a CSV file checked into the scenario directory, plus the
// fit parameters. It maps onto the POST /v1/models request body.
type FitSpec struct {
	// Dataset references a built-in dataset ("acs"); mutually exclusive
	// with CSVFile/MetadataFile.
	Dataset string `json:"dataset,omitempty"`
	// Rows sizes a built-in dataset (default 2000).
	Rows int `json:"rows,omitempty"`
	// DatasetSeed seeds built-in dataset generation.
	DatasetSeed uint64 `json:"dataset_seed,omitempty"`
	// CSVFile names a CSV file in the scenario directory to upload.
	CSVFile string `json:"csv_file,omitempty"`
	// MetadataFile names the dataset.ReadJSON schema file for CSVFile.
	MetadataFile string `json:"metadata_file,omitempty"`
	// Backend selects the generative-model backend ("" = the default).
	Backend string `json:"backend,omitempty"`
	// ModelEps sets the DP epsilon budget of the generative model.
	ModelEps float64 `json:"model_eps,omitempty"`
	// ModelDelta sets the DP delta of the generative model.
	ModelDelta float64 `json:"model_delta,omitempty"`
	// MaxCost caps parent-set complexity (eq. 6).
	MaxCost float64 `json:"max_cost,omitempty"`
	// Seed drives fit randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// ServerSpec configures the dedicated in-process sgfd a scenario needs
// when the shared server's defaults won't do (lifetime privacy budgets,
// constrained pools).
type ServerSpec struct {
	// TenantBudgetEps sets the lifetime privacy epsilon budget — the knob
	// the budget-denial scenarios exist to exercise.
	TenantBudgetEps float64 `json:"tenant_budget_eps,omitempty"`
	// TenantBudgetDelta is the delta half of the lifetime budget.
	TenantBudgetDelta float64 `json:"tenant_budget_delta,omitempty"`
	// Workers bounds the spawned server's synthesis pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// SynthStep is one POST /v1/models/{id}/synthesize call and what to expect
// from it: a golden NDJSON stream for the happy path, or an HTTP error for
// denial scenarios.
type SynthStep struct {
	// Name labels the step in output and diff messages.
	Name string `json:"name"`
	// Records is the requested release count.
	Records int `json:"records"`
	// K is the plausible-deniability parameter (0 = server default, 10).
	K int `json:"k,omitempty"`
	// Gamma is the indistinguishability parameter (0 = server default, 4).
	Gamma float64 `json:"gamma,omitempty"`
	// Eps0 randomizes the privacy-test threshold (0 = deterministic test).
	Eps0 float64 `json:"eps0,omitempty"`
	// OmegaLo is the minimum resampled-attribute count.
	OmegaLo int `json:"omega_lo,omitempty"`
	// OmegaHi is the maximum resampled-attribute count.
	OmegaHi int `json:"omega_hi,omitempty"`
	// MaxCandidates bounds generation work (0 = server default).
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Releases asks for m multiply-synthetic datasets in one stream (0 = 1).
	Releases int `json:"releases,omitempty"`
	// Seed drives generation; the golden is a function of it.
	Seed uint64 `json:"seed,omitempty"`
	// Golden is the expected NDJSON stream, relative to the scenario
	// directory. Required when ExpectStatus is 200 (the default).
	Golden string `json:"golden,omitempty"`
	// ExpectStatus is the expected HTTP status (0 = 200). Non-200 steps
	// check the error body instead of a golden.
	ExpectStatus int `json:"expect_status,omitempty"`
	// ExpectErrorContains must appear in the error body of a non-200 step.
	ExpectErrorContains string `json:"expect_error_contains,omitempty"`
}

// EvalSpec runs one §6 evaluation suite (eval.RunSuite, in the runner's
// process) and diffs its result against a golden after stripping timing
// fields (every key ending in "_ms" — timings are the only
// non-seed-determined numbers in a suite result).
type EvalSpec struct {
	// Config is the suite configuration. The manifest's strict decoder
	// covers it, so a misspelled knob fails Load instead of running the
	// suite at a default.
	Config eval.SuiteConfig `json:"config"`
	// Golden is the expected normalized result JSON, relative to the
	// scenario directory.
	Golden string `json:"golden"`
}

// BenchSpec defines the scenario's benchmark: a synthesize request timed
// end to end (HTTP request to last streamed byte), repeated `scenarios
// bench -count` times with the minimum kept, and emitted in the
// cmd/benchjson artifact shape so the compare gate applies unchanged.
type BenchSpec struct {
	// Records is the release count per benchmark iteration.
	Records int `json:"records"`
	// K is the plausible-deniability parameter (0 = server default).
	K int `json:"k,omitempty"`
	// Gamma is the indistinguishability parameter (0 = server default).
	Gamma float64 `json:"gamma,omitempty"`
	// Eps0 randomizes the privacy-test threshold (0 = deterministic test).
	Eps0 float64 `json:"eps0,omitempty"`
	// OmegaLo is the minimum resampled-attribute count.
	OmegaLo int `json:"omega_lo,omitempty"`
	// OmegaHi is the maximum resampled-attribute count.
	OmegaHi int `json:"omega_hi,omitempty"`
	// MaxCandidates bounds generation work (0 = server default).
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Seed drives generation.
	Seed uint64 `json:"seed,omitempty"`
}

// Load reads and validates one scenario package directory.
func Load(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", dir, err)
	}
	var m Manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	// A silently ignored typo ("expect_stauts") would turn a denial check
	// into a scenario that passes vacuously.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("scenario %s: parsing %s: %w", dir, ManifestFile, err)
	}
	m.Dir = dir
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", dir, err)
	}
	return &m, nil
}

// LoadAll loads every scenario package under root (each direct
// subdirectory containing a manifest.json), sorted by name. Directories
// without a manifest are ignored; a directory whose manifest fails to
// load is an error — a broken package must not silently drop out of CI.
func LoadAll(root string) ([]*Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("scenarios root %s: %w", root, err)
	}
	var out []*Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
			continue
		}
		m, err := Load(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Validate checks the manifest's internal consistency; Load calls it, and
// the tests feed it hand-built manifests. Dir may be empty (then the
// name-matches-directory rule is skipped).
func (m *Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("manifest has no name")
	}
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("name %q must be lowercase-kebab ([a-z0-9-])", m.Name)
	}
	if m.Dir != "" && filepath.Base(m.Dir) != m.Name {
		return fmt.Errorf("name %q does not match directory %q", m.Name, filepath.Base(m.Dir))
	}
	if err := m.Fit.validate(); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	if m.Server != nil {
		if m.Server.TenantBudgetEps < 0 {
			return fmt.Errorf("server: negative tenant_budget_eps")
		}
		if m.Server.TenantBudgetDelta < 0 || m.Server.TenantBudgetDelta >= 1 {
			return fmt.Errorf("server: tenant_budget_delta must be in [0, 1)")
		}
		if m.Server.Workers < 0 {
			return fmt.Errorf("server: negative workers")
		}
	}
	if len(m.Synthesize) == 0 && m.Eval == nil && m.Bench == nil {
		return fmt.Errorf("scenario has no synthesize, eval or bench step — nothing to run")
	}
	seen := map[string]bool{}
	for i := range m.Synthesize {
		st := &m.Synthesize[i]
		if err := st.validate(); err != nil {
			return fmt.Errorf("synthesize[%d]: %w", i, err)
		}
		if seen[st.Name] {
			return fmt.Errorf("synthesize[%d]: duplicate step name %q", i, st.Name)
		}
		seen[st.Name] = true
	}
	if m.Eval != nil {
		if err := m.Eval.Config.Validate(); err != nil {
			return fmt.Errorf("eval: config: %w", err)
		}
		if err := validGoldenPath(m.Eval.Golden); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
	}
	if m.Bench != nil && m.Bench.Records <= 0 {
		return fmt.Errorf("bench: records must be positive, got %d", m.Bench.Records)
	}
	return nil
}

// validate checks one fit spec.
func (f *FitSpec) validate() error {
	builtin := f.Dataset != ""
	upload := f.CSVFile != "" || f.MetadataFile != ""
	switch {
	case builtin && upload:
		return fmt.Errorf("dataset %q cannot be combined with csv_file/metadata_file", f.Dataset)
	case !builtin && !upload:
		return fmt.Errorf("need a dataset reference or csv_file + metadata_file")
	case upload && (f.CSVFile == "" || f.MetadataFile == ""):
		return fmt.Errorf("csv_file and metadata_file are required together")
	}
	for _, p := range []string{f.CSVFile, f.MetadataFile} {
		if p == "" {
			continue
		}
		if err := validRelPath(p); err != nil {
			return err
		}
	}
	if f.Backend != "" && !slices.Contains(sgf.Backends(), f.Backend) {
		return fmt.Errorf("unknown backend %q (registered: %s)", f.Backend, strings.Join(sgf.Backends(), ", "))
	}
	return nil
}

// validate checks one synthesize step.
func (st *SynthStep) validate() error {
	if st.Name == "" || !nameRE.MatchString(st.Name) {
		return fmt.Errorf("step name %q must be lowercase-kebab ([a-z0-9-])", st.Name)
	}
	if st.Records <= 0 {
		return fmt.Errorf("step %q: records must be positive, got %d", st.Name, st.Records)
	}
	status := st.ExpectStatus
	if status == 0 {
		status = 200
	}
	if status == 200 {
		if st.ExpectErrorContains != "" {
			return fmt.Errorf("step %q: expect_error_contains requires a non-200 expect_status", st.Name)
		}
		if st.Golden == "" {
			return fmt.Errorf("step %q: a 200 step needs a golden (the expected NDJSON stream)", st.Name)
		}
		return validGoldenPathNamed(st.Name, st.Golden)
	}
	if status < 400 || status > 599 {
		return fmt.Errorf("step %q: expect_status must be 200 or a 4xx/5xx error, got %d", st.Name, status)
	}
	if st.Golden != "" {
		return fmt.Errorf("step %q: a non-200 step cannot have a golden (no stream to compare)", st.Name)
	}
	return nil
}

// validGoldenPath rejects empty or escaping golden paths.
func validGoldenPath(p string) error {
	if p == "" {
		return fmt.Errorf("golden path is required")
	}
	return validRelPath(p)
}

// validGoldenPathNamed is validGoldenPath with the step name in the error.
func validGoldenPathNamed(step, p string) error {
	if err := validGoldenPath(p); err != nil {
		return fmt.Errorf("step %q: %w", step, err)
	}
	return nil
}

// validRelPath keeps manifest-referenced files inside the scenario
// directory: relative, no parent traversal, no absolute roots.
func validRelPath(p string) error {
	if filepath.IsAbs(p) {
		return fmt.Errorf("path %q must be relative to the scenario directory", p)
	}
	clean := filepath.ToSlash(filepath.Clean(p))
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return fmt.Errorf("path %q escapes the scenario directory", p)
	}
	return nil
}

// path resolves a manifest-relative path against the scenario directory.
func (m *Manifest) path(rel string) string {
	return filepath.Join(m.Dir, filepath.FromSlash(rel))
}
