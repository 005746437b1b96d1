package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/eval"
)

// Runner executes scenario packages: the fit and synthesize steps against
// a live sgfd over HTTP, the eval step in its own process (sgfd does not
// serve the §6 evaluation). It diffs synthesize streams and evaluation
// results against the scenario's checked-in goldens; with Update set it
// regenerates the goldens from the live results instead.
//
// Scenarios without a `server` section run against BaseURL when set, or
// against one shared in-process server spawned on first use. A scenario
// with a `server` section always gets its own spawned server — an
// external server cannot be reconfigured per scenario — so those
// scenarios behave identically whether or not BaseURL is set.
type Runner struct {
	// BaseURL is an external sgfd ("http://host:port"); empty spawns an
	// in-process one on demand.
	BaseURL string
	// APIKey, when set, is sent as a Bearer token with every request (for
	// external servers running with -keys-file).
	APIKey string
	// Update regenerates golden files from live responses instead of
	// diffing against them.
	Update bool
	// Timeout bounds one scenario end to end (0 = 2m).
	Timeout time.Duration
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client

	shared *Spawned
}

// StepResult reports one step (fit, one synthesize, eval) of a scenario run.
type StepResult struct {
	// Name labels the step: "fit", "synthesize:<step>", "eval".
	Name string
	// OK is false when the step mismatched its golden or expectation.
	OK bool
	// Detail is the human-readable outcome: a summary when OK, the diff or
	// error otherwise.
	Detail string
	// Updated is true when -update rewrote this step's golden file.
	Updated bool
}

// Result is one scenario's outcome.
type Result struct {
	// Scenario is the manifest name.
	Scenario string
	// Steps holds per-step outcomes in execution order.
	Steps []StepResult
}

// OK reports whether every step passed.
func (r *Result) OK() bool {
	for _, s := range r.Steps {
		if !s.OK {
			return false
		}
	}
	return true
}

// Close shuts down the shared in-process server, if one was spawned.
func (r *Runner) Close() {
	if r.shared != nil {
		r.shared.Close()
		r.shared = nil
	}
}

// client returns the configured HTTP client.
func (r *Runner) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

// base resolves the server a scenario runs against, spawning when needed.
// The returned cleanup is non-nil only for dedicated spawns.
func (r *Runner) base(m *Manifest) (string, func(), error) {
	if m.Server != nil {
		sp, err := Spawn(m.Server)
		if err != nil {
			return "", nil, err
		}
		return sp.URL, sp.Close, nil
	}
	if r.BaseURL != "" {
		return strings.TrimSuffix(r.BaseURL, "/"), nil, nil
	}
	if r.shared == nil {
		sp, err := Spawn(nil)
		if err != nil {
			return "", nil, err
		}
		r.shared = sp
	}
	return r.shared.URL, nil, nil
}

// Run executes one scenario. Mismatches and server-side refusals land as
// failed steps in the Result; the error return is reserved for
// infrastructure problems (unreadable scenario files, spawn failures,
// unreachable server) where no meaningful Result exists.
func (r *Runner) Run(ctx context.Context, m *Manifest) (*Result, error) {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	base, cleanup, err := r.base(m)
	if err != nil {
		return nil, err
	}
	if cleanup != nil {
		defer cleanup()
	}

	res := &Result{Scenario: m.Name}
	modelID, err := r.fit(ctx, base, m)
	if err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, StepResult{Name: "fit", OK: true, Detail: "model " + modelID})

	for i := range m.Synthesize {
		step, err := r.runSynth(ctx, base, m, modelID, &m.Synthesize[i])
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, step)
	}
	if m.Eval != nil {
		step, err := r.runEval(ctx, m)
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, step)
	}
	return res, nil
}

// fitBody builds the POST /v1/models request body for a manifest,
// reading any referenced CSV/metadata files from the scenario directory.
func fitBody(m *Manifest) (map[string]any, error) {
	f := m.Fit
	body := map[string]any{}
	if f.Dataset != "" {
		body["dataset"] = f.Dataset
		if f.Rows != 0 {
			body["rows"] = f.Rows
		}
		if f.DatasetSeed != 0 {
			body["dataset_seed"] = f.DatasetSeed
		}
	} else {
		csv, err := os.ReadFile(m.path(f.CSVFile))
		if err != nil {
			return nil, err
		}
		meta, err := os.ReadFile(m.path(f.MetadataFile))
		if err != nil {
			return nil, err
		}
		body["csv"] = string(csv)
		body["metadata"] = json.RawMessage(meta)
	}
	if f.Backend != "" {
		body["backend"] = f.Backend
	}
	if f.ModelEps != 0 {
		body["model_eps"] = f.ModelEps
	}
	if f.ModelDelta != 0 {
		body["model_delta"] = f.ModelDelta
	}
	if f.MaxCost != 0 {
		body["max_cost"] = f.MaxCost
	}
	if f.Seed != 0 {
		body["seed"] = f.Seed
	}
	return body, nil
}

// fit registers the scenario's model and waits for the background fit to
// finish, so later steps fail with the fit's own error rather than a
// confusing synthesize-time 409.
func (r *Runner) fit(ctx context.Context, base string, m *Manifest) (string, error) {
	body, err := fitBody(m)
	if err != nil {
		return "", fmt.Errorf("scenario %s: %w", m.Name, err)
	}
	var fitResp struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	status, raw, err := r.do(ctx, http.MethodPost, base+"/v1/models", body)
	if err != nil {
		return "", fmt.Errorf("scenario %s: fit: %w", m.Name, err)
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return "", fmt.Errorf("scenario %s: fit: status %d: %s", m.Name, status, errorBody(raw))
	}
	if err := json.Unmarshal(raw, &fitResp); err != nil {
		return "", fmt.Errorf("scenario %s: fit: decoding response: %w", m.Name, err)
	}

	// Poll until the fit settles; the model endpoints are cheap reads.
	var lastErr string
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		status, raw, err := r.do(ctx, http.MethodGet, base+"/v1/models/"+fitResp.ID, nil)
		if err != nil {
			return "", fmt.Errorf("scenario %s: fit status: %w", m.Name, err)
		}
		if status != http.StatusOK {
			return "", fmt.Errorf("scenario %s: fit status: %d: %s", m.Name, status, errorBody(raw))
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return "", fmt.Errorf("scenario %s: fit status: %w", m.Name, err)
		}
		switch st.State {
		case "ready":
			return fitResp.ID, nil
		case "failed":
			lastErr = st.Error
			return "", fmt.Errorf("scenario %s: fit failed: %s", m.Name, lastErr)
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("scenario %s: fit did not finish: %w", m.Name, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// runSynth executes one synthesize step and checks its golden or expected
// error.
func (r *Runner) runSynth(ctx context.Context, base string, m *Manifest, modelID string, st *SynthStep) (StepResult, error) {
	name := "synthesize:" + st.Name
	body := map[string]any{"records": st.Records, "seed": st.Seed}
	if st.K != 0 {
		body["k"] = st.K
	}
	if st.Gamma != 0 {
		body["gamma"] = st.Gamma
	}
	if st.Eps0 != 0 {
		body["eps0"] = st.Eps0
	}
	if st.OmegaLo != 0 {
		body["omega_lo"] = st.OmegaLo
	}
	if st.OmegaHi != 0 {
		body["omega_hi"] = st.OmegaHi
	}
	if st.MaxCandidates != 0 {
		body["max_candidates"] = st.MaxCandidates
	}
	if st.Releases != 0 {
		body["releases"] = st.Releases
	}
	status, raw, err := r.do(ctx, http.MethodPost, base+"/v1/models/"+modelID+"/synthesize", body)
	if err != nil {
		return StepResult{}, fmt.Errorf("scenario %s: %s: %w", m.Name, name, err)
	}

	want := st.ExpectStatus
	if want == 0 {
		want = http.StatusOK
	}
	if status != want {
		return StepResult{Name: name, Detail: fmt.Sprintf(
			"expected HTTP %d, got %d: %s", want, status, truncate(errorBody(raw)))}, nil
	}
	if want != http.StatusOK {
		msg := errorBody(raw)
		if st.ExpectErrorContains != "" && !strings.Contains(msg, st.ExpectErrorContains) {
			return StepResult{Name: name, Detail: fmt.Sprintf(
				"error body %q does not contain %q", truncate(msg), st.ExpectErrorContains)}, nil
		}
		return StepResult{Name: name, OK: true, Detail: fmt.Sprintf("refused with %d as expected", status)}, nil
	}
	// A mid-stream failure arrives as a final {"error": ...} line in an
	// otherwise-200 stream; surface it rather than diffing it into a golden.
	if lines := splitLines(string(raw)); len(lines) > 0 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(lines[len(lines)-1]), &e) == nil && e.Error != "" {
			return StepResult{Name: name, Detail: "stream failed mid-flight: " + e.Error}, nil
		}
	}
	return r.checkGolden(m, name, st.Golden, raw,
		fmt.Sprintf("%d lines match golden", len(splitLines(string(raw)))))
}

// runEval runs the scenario's evaluation suite in this process — the same
// eval.RunSuite cmd/experiments runs — and diffs the normalized result
// against the golden. It does not depend on the server the other steps
// talk to.
func (r *Runner) runEval(ctx context.Context, m *Manifest) (StepResult, error) {
	res, err := eval.RunSuite(ctx, m.Eval.Config, nil)
	if err != nil {
		return StepResult{Name: "eval", Detail: "suite failed: " + err.Error()}, nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return StepResult{}, fmt.Errorf("scenario %s: eval result: %w", m.Name, err)
	}
	normalized, err := NormalizeResultJSON(raw)
	if err != nil {
		return StepResult{}, fmt.Errorf("scenario %s: eval result: %w", m.Name, err)
	}
	return r.checkGolden(m, "eval", m.Eval.Golden, normalized, "normalized result matches golden")
}

// checkGolden diffs got against the golden file (or rewrites it under
// -update). The okDetail is what a passing step reports.
func (r *Runner) checkGolden(m *Manifest, step, golden string, got []byte, okDetail string) (StepResult, error) {
	path := m.path(golden)
	if r.Update {
		prev, err := os.ReadFile(path)
		if err == nil && bytes.Equal(prev, got) {
			return StepResult{Name: step, OK: true, Detail: "golden unchanged"}, nil
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return StepResult{}, fmt.Errorf("scenario %s: %s: %w", m.Name, step, err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			return StepResult{}, fmt.Errorf("scenario %s: %s: %w", m.Name, step, err)
		}
		return StepResult{Name: step, OK: true, Updated: true, Detail: "golden updated: " + golden}, nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return StepResult{Name: step, Detail: fmt.Sprintf(
			"golden %s unreadable (%v); run `sgf scenarios run -update %s` to create it", golden, err, m.Name)}, nil
	}
	if diff := DiffLines(string(got), string(want)); diff != "" {
		return StepResult{Name: step, Detail: fmt.Sprintf(
			"golden %s mismatch — %s\nrerun with -update if the change is intended", golden, diff)}, nil
	}
	return StepResult{Name: step, OK: true, Detail: okDetail}, nil
}

// do performs one JSON request and returns the status and raw body. body
// may be nil or any marshalable value.
func (r *Runner) do(ctx context.Context, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+r.APIKey)
	}
	resp, err := r.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// errorBody extracts the {"error": ...} message from an error response,
// falling back to the raw body.
func errorBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
