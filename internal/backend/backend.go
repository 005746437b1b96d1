// Package backend defines the pluggable generative-model seam of the
// framework.
//
// The paper's central claim is that plausible deniability is
// *mechanism-agnostic*: the privacy test (Definition 1, internal/core)
// wraps any generative model that can (a) transform a seed record into a
// synthetic record and (b) compute the exact generation probability
// Pr{y = M(d)}. This package turns that claim into an enforced interface:
// a Backend fits a Model from the bucketized training splits, and the
// Model hands the privacy mechanism a core.Synthesizer. Everything above
// this seam — sgf.Fit, the snapshot store, the HTTP serving layer, the
// evaluation pipeline — is backend-generic and selects an implementation
// by its registered ID.
//
// Two backends ship in-tree: "bayesnet" (internal/backend/bayes), the
// paper's §3 seed-based Bayesian-network synthesis, and "marginal"
// (internal/backend/marginal), the independent-marginals histogram
// baseline surveyed in Bowen & Liu (arXiv:1602.01063). New backends
// register themselves in an init function and must pass the shared
// conformance suite (internal/backend/conformance); docs/BACKENDS.md is
// the authoring guide.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Default is the backend ID selected when a fit request names none: the
// paper's seed-based Bayes-net synthesis.
const Default = "bayesnet"

// FitData carries everything a backend may consult while learning a model.
// The dataset has already been partitioned by the caller (sgf.Fit): the
// seed split DS is withheld — seeds are protected by the privacy test, not
// by the model — and the backend sees only the structure and parameter
// splits.
type FitData struct {
	// Structure is the DT split, reserved for dependency-structure learning.
	// Backends without a structure-learning phase may fold it into nothing;
	// they must not use it as seed material.
	Structure *dataset.Dataset
	// Params is the DP split, reserved for parameter learning.
	Params *dataset.Dataset
	// Bkt is the bkt() discretizer coarsening parent configurations (§3.3).
	Bkt *dataset.Bucketizer
	// ModelEps and ModelDelta set the differential privacy budget of model
	// learning itself (§3.5). ModelEps <= 0 means learn without noise; the
	// seeds are still protected by the privacy test.
	ModelEps, ModelDelta float64
	// MaxCost caps parent-set complexity (eq. 6; 0 = backend default).
	MaxCost float64
	// Seed namespaces the backend's deterministic noise streams. Two fits
	// of the same data with the same Seed must produce byte-identical
	// models.
	Seed uint64
	// RNG is the fit-scoped deterministic generator, positioned exactly
	// where sgf.Fit left it after the dataset split. Backends that need
	// randomness must draw only from it (or from hash-seeded streams keyed
	// on Seed), never from global state.
	RNG *rng.RNG
}

// Model is a fitted generative model: the unit the registry caches, the
// store snapshots, and the synthesize path serves from. Implementations
// must be immutable after Fit/Decode return and safe for concurrent use.
type Model interface {
	// Backend returns the ID of the backend that fitted this model.
	Backend() string
	// Meta returns the schema the model was fitted over.
	Meta() *dataset.Metadata
	// Bucketizer returns the discretizer the model was fitted with; the
	// codec persists it beside the schema so Decode can rebuild the model.
	Bucketizer() *dataset.Bucketizer
	// Synthesizer returns the core.Synthesizer for one ω range (§3.2):
	// a candidate keeps the seed's first m−ω attributes and re-samples the
	// rest. Backends whose generation ignores the seed (e.g. marginal
	// synthesis) validate the range and then ignore it. The returned
	// synthesizer must be deterministic: identical (seed record, RNG
	// stream) pairs produce identical candidates, which is what makes
	// generation worker-count independent (core.GenerateCtx).
	Synthesizer(omegaLo, omegaHi int) (core.Synthesizer, error)
	// Freeze does nothing: Fit and Decode return a model whose tables are
	// complete. Implementations return nil.
	//
	// Deprecated: perfbench is the only caller; delete this once it stops calling it.
	Freeze(budget int64) error
	// Encode appends the model's learned state to the writer. The encoding
	// must be deterministic (same model, same bytes — regardless of what
	// the model has served) and must round-trip through the backend's
	// Decode to a model that synthesizes byte-identical output.
	Encode(w *wire.Writer)
	// Describe summarizes the learned model for status listings.
	Describe() *Description
}

// Description is a backend-neutral summary of a fitted model's learned
// dependency structure, rendered by GET /v1/models/{id}.
type Description struct {
	// Backend is the fitting backend's ID.
	Backend string
	// Order lists attribute names in the model's sampling order σ.
	Order []string
	// Parents maps each attribute name to the names of its parents
	// (empty slices for independence-style models).
	Parents map[string][]string
	// Edges is the total number of dependency edges.
	Edges int
}

// Backend is one generative-model implementation. Implementations are
// stateless handles (all learned state lives in the Model); they register
// themselves with Register in an init function and are selected by ID in
// fit requests and snapshot payloads.
type Backend interface {
	// ID returns the backend's registry key. IDs are lowercase, stable
	// across releases (they are persisted inside snapshots), and unique.
	ID() string
	// Fit learns a model from the training splits and reports the
	// (ε, δ) differential-privacy budget spent doing so (zero when
	// d.ModelEps <= 0). Fit must be deterministic given FitData.
	Fit(d FitData) (Model, privacy.Budget, error)
	// Decode reads a model previously written by Model.Encode over the
	// given schema and bucketizer. It must validate every field — a
	// corrupt or hostile payload fails here, not on a serving goroutine —
	// and must consume exactly the bytes Encode wrote.
	Decode(r *wire.Reader, meta *dataset.Metadata, bkt *dataset.Bucketizer) (Model, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend to the process-wide registry. It is called from
// backend packages' init functions (importing a backend package is what
// links it into the binary) and panics on an empty or duplicate ID —
// either is a programming error worth failing fast on.
func Register(b Backend) {
	id := b.ID()
	if id == "" {
		panic("backend: Register with empty ID")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("backend: Register called twice for %q", id))
	}
	registry[id] = b
}

// Lookup returns the backend registered under the ID.
func Lookup(id string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[id]
	return b, ok
}

// IDs returns the registered backend IDs, sorted.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
