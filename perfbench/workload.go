package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/acs"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// workload is one traffic mix the benchmark drives against sgfd. Every fit
// and request parameter is spelled out, so a later change to a server
// default cannot change what is measured. Every workload fits the bayesnet
// backend; README.md says why the marginal one is not among them.
type workload struct {
	Name string
	// Rows is the size of the ACS-shaped upload.
	Rows int
	// Backend, ModelEps, ModelDelta and MaxCost are the fit parameters.
	Backend              string
	ModelEps, ModelDelta float64
	MaxCost              float64
	// Fits is the number of models fitted per run, with fit seeds 1..Fits.
	// Requests cycle through them in whole rounds, so every run serves the
	// same mix of models.
	Fits int
	// Clients is the number of closed-loop callers, one connection each.
	Clients int
	// Records and the privacy-test parameters make up every request.
	Records          int
	K                int
	Gamma, Eps0      float64
	OmegaLo, OmegaHi int
	// Replay is how many of the timed requests the traced run replays
	// through the stream and handler layers.
	Replay int
	// Cands is the candidate count per model of the traced loop replay.
	Cands int
}

var workloads = []workload{
	{
		Name: "paper-bayesnet", Rows: 20000, Backend: "bayesnet",
		ModelEps: 1, ModelDelta: 1e-9, MaxCost: 128, Fits: 8, Clients: 1,
		Records: 16000, K: 50, Gamma: 4, Eps0: 1, OmegaLo: 5, OmegaHi: 11,
		Replay: 2, Cands: 2000,
	},
	{
		Name: "small-requests", Rows: 400, Backend: "bayesnet",
		ModelEps: 0, ModelDelta: 0, MaxCost: 128, Fits: 8, Clients: 2,
		Records: 10, K: 3, Gamma: 8, Eps0: 0, OmegaLo: 1, OmegaHi: 11,
		Replay: 400, Cands: 4000,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tag renders the workload's parameters in the form BENCHMARK.json records
// them at the end of the workload's "why" line.
func (w workload) tag() string {
	return fmt.Sprintf("[rows=%d %s eps=%g delta=%g max_cost=%g fits=%d clients=%d records=%d k=%d gamma=%g eps0=%g omega=%d-%d]",
		w.Rows, w.Backend, w.ModelEps, w.ModelDelta, w.MaxCost, w.Fits, w.Clients,
		w.Records, w.K, w.Gamma, w.Eps0, w.OmegaLo, w.OmegaHi)
}

// smoke shrinks the workload to a size that runs in about a second.
func (w workload) smoke() workload {
	if w.Rows > 4000 {
		w.Rows = 4000
	}
	if w.Records > 200 {
		w.Records = 200
	}
	w.Fits = 2
	if w.Replay > 20 {
		w.Replay = 20
	}
	w.Cands = 200
	return w
}

// inputs is everything a run sends, generated from the workload seed: one
// upload of ACS rows per panel model (as the CSV and metadata sgfd
// receives) and the request seeds.
type inputs struct {
	w        workload
	seed     uint64
	csv      []string // per panel model
	metaJSON json.RawMessage
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	pop := acs.NewPopulation()
	for j := 0; j < w.Fits; j++ {
		data := pop.Generate(rng.NewHashed("perfbench-upload", strconv.FormatUint(seed, 10), strconv.Itoa(j)), w.Rows)
		var csv, meta bytes.Buffer
		if err := dataset.WriteCSV(&csv, data); err != nil {
			return nil, fmt.Errorf("writing upload csv: %w", err)
		}
		if err := data.Meta.WriteJSON(&meta); err != nil {
			return nil, fmt.Errorf("writing upload metadata: %w", err)
		}
		in.csv = append(in.csv, csv.String())
		in.metaJSON = meta.Bytes()
	}
	return in, nil
}

// fitSeed is the fit seed of panel model j. The panel is the same in every
// run: under model noise the fit seed decides the learned structure, which
// moves a model's generation cost by up to five times (see README.md).
func fitSeed(j int) uint64 { return uint64(j + 1) }

// requestSeed is the synthesize seed of the run's n-th timed request.
func (in *inputs) requestSeed(n int) uint64 {
	return rng.NewHashed("perfbench-request", strconv.FormatUint(in.seed, 10), strconv.Itoa(n)).Uint64()
}

// warmupSeed is the synthesize seed of the run's untimed request.
func (in *inputs) warmupSeed() uint64 {
	return rng.NewHashed("perfbench-warmup", strconv.FormatUint(in.seed, 10)).Uint64()
}

// fitBody is POST /v1/models for panel model j.
type fitBody struct {
	Metadata   json.RawMessage `json:"metadata"`
	CSV        string          `json:"csv"`
	ModelEps   float64         `json:"model_eps"`
	ModelDelta float64         `json:"model_delta"`
	MaxCost    float64         `json:"max_cost"`
	Backend    string          `json:"backend"`
	Seed       uint64          `json:"seed"`
}

func (in *inputs) fitBody(j int) ([]byte, error) {
	w := in.w
	return json.Marshal(fitBody{
		Metadata: in.metaJSON, CSV: in.csv[j],
		ModelEps: w.ModelEps, ModelDelta: w.ModelDelta, MaxCost: w.MaxCost,
		Backend: w.Backend, Seed: fitSeed(j),
	})
}

// synthBody is POST /v1/models/{id}/synthesize. It sends no workers field:
// the server sizes each request's grant.
type synthBody struct {
	Records           int     `json:"records"`
	K                 int     `json:"k"`
	Gamma             float64 `json:"gamma"`
	Eps0              float64 `json:"eps0"`
	OmegaLo           int     `json:"omega_lo"`
	OmegaHi           int     `json:"omega_hi"`
	MaxCandidates     int     `json:"max_candidates"`
	MaxPlausible      int     `json:"max_plausible"`
	MaxCheckPlausible int     `json:"max_check_plausible"`
	Releases          int     `json:"releases"`
	Seed              uint64  `json:"seed"`
}

func (w workload) synthBody(records int, seed uint64) synthBody {
	return synthBody{
		Records: records, K: w.K, Gamma: w.Gamma, Eps0: w.Eps0,
		OmegaLo: w.OmegaLo, OmegaHi: w.OmegaHi,
		MaxCandidates: 100 * records, Releases: 1, Seed: seed,
	}
}
