package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	sgf "repro"
	"repro/internal/acs"
	"repro/internal/bayesnet"
	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/tenant"
)

// stageClock times the synthesize pipeline's stages: each stage gets a span
// on the request trace and a "name=ms" part in the X-Sgf-Stage-Ms response
// trailer, so one request's time budget is readable from the client side
// (trailer) and the server side (GET /v1/debug/traces) alike. Nil traces
// (direct handler tests) degrade to trailer-only.
type stageClock struct {
	tr    *obs.Trace
	parts []string
}

// start opens a stage; the returned func closes it.
func (c *stageClock) start(name string) func() {
	sp := c.tr.StartSpan(name, nil)
	t0 := time.Now()
	return func() {
		sp.End()
		c.parts = append(c.parts, fmt.Sprintf("%s=%d", name, time.Since(t0).Milliseconds()))
	}
}

// add records a stage timed elsewhere (e.g. sink-flush time accumulated
// inside the generation loop).
func (c *stageClock) add(name string, start time.Time, dur time.Duration) {
	c.tr.AddSpan(name, nil, start, dur)
	c.parts = append(c.parts, fmt.Sprintf("%s=%d", name, dur.Milliseconds()))
}

// trailer renders the accumulated stage timings.
func (c *stageClock) trailer() string { return strings.Join(c.parts, ";") }

// fitRequest is the body of POST /v1/models: either an inline CSV upload
// with its metadata, or a reference to a built-in dataset.
type fitRequest struct {
	// Metadata is the schema in dataset.ReadJSON format (required with CSV).
	Metadata json.RawMessage `json:"metadata,omitempty"`
	// CSV is the inline CSV payload (header row + data rows).
	CSV string `json:"csv,omitempty"`
	// Dataset references a built-in dataset instead of an upload; the only
	// built-in is "acs", the §4 ACS simulation.
	Dataset string `json:"dataset,omitempty"`
	// Rows sizes a built-in dataset (default 2000).
	Rows int `json:"rows,omitempty"`
	// DatasetSeed seeds built-in dataset generation.
	DatasetSeed uint64 `json:"dataset_seed,omitempty"`

	ModelEps   float64 `json:"model_eps,omitempty"`
	ModelDelta float64 `json:"model_delta,omitempty"`
	MaxCost    float64 `json:"max_cost,omitempty"`
	// Backend selects the generative-model backend by registered ID
	// ("bayesnet" | "marginal"; empty = "bayesnet").
	Backend string `json:"backend,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// fitResponse answers POST /v1/models.
type fitResponse struct {
	ID      string             `json:"id"`
	State   ModelState         `json:"state"`
	Cached  bool               `json:"cached"`
	Backend string             `json:"backend"`
	Rows    int                `json:"rows"`
	Clean   dataset.CleanStats `json:"clean"`
}

// budgetJSON serializes an (ε, δ) pair.
type budgetJSON struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// structureJSON summarizes a fitted model's learned dependency structure
// for GET /v1/models/{id}; the shape is backend-neutral (an independence
// model reports empty parent lists and zero edges).
type structureJSON struct {
	Order   []string            `json:"order"`
	Parents map[string][]string `json:"parents"`
	Edges   int                 `json:"edges"`
}

// statusResponse answers GET /v1/models/{id}.
type statusResponse struct {
	ID          string             `json:"id"`
	State       ModelState         `json:"state"`
	Error       string             `json:"error,omitempty"`
	Created     time.Time          `json:"created"`
	FitMS       int64              `json:"fit_ms"`
	Backend     string             `json:"backend,omitempty"`
	Rows        int                `json:"rows"`
	Clean       dataset.CleanStats `json:"clean"`
	Splits      *[3]int            `json:"splits,omitempty"`
	ModelBudget *budgetJSON        `json:"model_budget,omitempty"`
	Structure   *structureJSON     `json:"structure,omitempty"`
}

// synthRequest is the body of POST /v1/models/{id}/synthesize. Zero values
// select the documented defaults.
type synthRequest struct {
	Records           int     `json:"records"`
	K                 int     `json:"k"`
	Gamma             float64 `json:"gamma"`
	Eps0              float64 `json:"eps0"`
	OmegaLo           int     `json:"omega_lo"`
	OmegaHi           int     `json:"omega_hi"`
	MaxCandidates     int     `json:"max_candidates"`
	MaxPlausible      int     `json:"max_plausible"`
	MaxCheckPlausible int     `json:"max_check_plausible"`
	// Workers caps the generation workers the request runs at once: the
	// one it holds plus those it borrows (0 = the pool size; 1 borrows
	// none).
	Workers int `json:"workers"`
	// Releases asks for m multiply-synthetic datasets in one stream
	// (0 = 1). Release j is generated with seed Seed+j, each passing the
	// privacy test independently; with releases > 1 every dataset is
	// preceded by a {"release": j} separator line. The ledger accounts all
	// records × releases.
	Releases int    `json:"releases,omitempty"`
	Seed     uint64 `json:"seed"`
}

// Per-request generation ceilings: one request may not commit the server
// to unbounded work or allocation (the fit path is bounded the same way by
// MaxUploadBytes and the built-in rows cap).
const (
	maxRecordsPerRequest    = 1_000_000
	maxCandidatesPerRequest = 100_000_000
	maxReleasesPerRequest   = 32
)

// batchWriteTimeout is the rolling deadline for writing one NDJSON batch; a
// reader stalled longer than this aborts the stream and frees its workers.
const batchWriteTimeout = 30 * time.Second

// errorJSON is the uniform error body (and mid-stream error line).
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleFit implements POST /v1/models: decode the dataset, register it
// under its cache key, and kick off a background fit. Identical uploads
// (same dataset bytes and fit config) return the already-registered model;
// the requesting tenant is recorded as an owner either way.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request, tn *tenant.Identity) {
	var req fitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	// A silently ignored typo ("model_epsilon") would fit a model with a
	// far weaker privacy configuration than the client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}

	// Normalize and validate the backend up front: the fit runs in the
	// background, so an unknown backend must be a 400 here rather than an
	// asynchronous fit failure discovered on the first status poll.
	backendID := req.Backend
	if backendID == "" {
		backendID = sgf.DefaultBackend
	}
	if !slices.Contains(sgf.Backends(), backendID) {
		writeError(w, http.StatusBadRequest, "unknown backend %q (registered: %s)",
			req.Backend, strings.Join(sgf.Backends(), ", "))
		return
	}

	// Derive the cache key from the raw request first — streamed into the
	// hasher, never concatenated — so repeat uploads are answered without
	// re-parsing (or regenerating, or copying) the dataset.
	hash := sha256.New()
	rows := req.Rows
	switch {
	case req.Dataset != "":
		// A request naming both a built-in dataset and an upload is
		// ambiguous; silently ignoring the CSV would fit a different dataset
		// than the client believes it sent.
		if req.CSV != "" || len(req.Metadata) > 0 {
			writeError(w, http.StatusBadRequest,
				"dataset %q cannot be combined with csv/metadata; send an upload or a dataset reference, not both", req.Dataset)
			return
		}
		if req.Dataset != "acs" {
			writeError(w, http.StatusBadRequest, "unknown built-in dataset %q (only \"acs\")", req.Dataset)
			return
		}
		if rows == 0 {
			rows = 2000
		}
		if rows < 10 || rows > 1_000_000 {
			writeError(w, http.StatusBadRequest, "rows must be in [10, 1000000], got %d", rows)
			return
		}
		fmt.Fprintf(hash, "builtin:acs:%d:%d", rows, req.DatasetSeed)
	case req.CSV != "":
		if len(req.Metadata) == 0 {
			writeError(w, http.StatusBadRequest, "csv upload requires metadata")
			return
		}
		// The built-in-only knobs are excluded from the upload cache key;
		// accepting them here would silently fit an unconstrained model.
		if req.Rows != 0 || req.DatasetSeed != 0 {
			writeError(w, http.StatusBadRequest, "rows/dataset_seed apply to built-in datasets, not csv uploads")
			return
		}
		// Compacted metadata bytes, so whitespace differences in the
		// uploaded JSON do not split the cache.
		var compact bytes.Buffer
		if err := json.Compact(&compact, req.Metadata); err != nil {
			writeError(w, http.StatusBadRequest, "parsing metadata: %v", err)
			return
		}
		io.WriteString(hash, "upload:")
		hash.Write(compact.Bytes())
		io.WriteString(hash, "\x00")
		io.WriteString(hash, req.CSV)
	default:
		writeError(w, http.StatusBadRequest, "request must carry csv+metadata or reference a dataset")
		return
	}
	opts := sgf.FitOptions{
		ModelEps:   req.ModelEps,
		ModelDelta: req.ModelDelta,
		MaxCost:    req.MaxCost,
		Backend:    backendID,
		Seed:       req.Seed,
	}
	// Key on the effective cap: omitting max_cost and sending the default
	// then share one model, and a snapshot stored when an omitted cap meant
	// something else is never served for a new request.
	if opts.MaxCost <= 0 {
		opts.MaxCost = bayesnet.DefaultMaxCost
	}
	fmt.Fprintf(hash, "|eps=%g|delta=%g|maxcost=%g|seed=%d",
		opts.ModelEps, opts.ModelDelta, opts.MaxCost, opts.Seed)
	// The default backend is deliberately NOT part of the key, so cache
	// keys (and the content-addressed model IDs derived from them) of
	// models fitted before backends were selectable stay stable.
	if backendID != sgf.DefaultBackend {
		fmt.Fprintf(hash, "|backend=%s", backendID)
	}
	key := hex.EncodeToString(hash.Sum(nil))

	if entry, ok := s.reg.Lookup(key); ok {
		s.reg.AddOwner(entry, ownerOf(tn))
		state, _ := entry.State()
		writeJSON(w, http.StatusOK, fitResponse{
			ID: entry.ID, State: state, Cached: true, Backend: entry.Opts.Backend, Rows: entry.Rows, Clean: entry.Clean,
		})
		return
	}
	// Refuse over-backlog uploads before the expensive parse; Open below
	// re-checks authoritatively.
	if s.reg.PendingFull() {
		writeError(w, http.StatusTooManyRequests, "%v", ErrTooManyFits)
		return
	}

	// Cache miss: build the dataset for real.
	var (
		data  *dataset.Dataset
		clean dataset.CleanStats
	)
	if req.Dataset != "" {
		data = acs.NewPopulation().Generate(rng.New(req.DatasetSeed), rows)
		clean = dataset.CleanStats{Total: rows, Clean: rows, Unique: data.UniqueCount(), PossibleRecords: data.PossibleRecords()}
	} else {
		meta, err := dataset.ReadJSON(bytes.NewReader(req.Metadata))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing metadata: %v", err)
			return
		}
		data, clean, err = dataset.ReadCSV(strings.NewReader(req.CSV), meta)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing csv: %v", err)
			return
		}
	}
	if data.Len() < 10 {
		writeError(w, http.StatusBadRequest, "dataset too small after cleaning (%d records)", data.Len())
		return
	}

	entry, cached, err := s.reg.Open(key, data, opts, clean)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	s.reg.AddOwner(entry, ownerOf(tn))
	state, _ := entry.State()
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, fitResponse{
		ID:      entry.ID,
		State:   state,
		Cached:  cached,
		Backend: entry.Opts.Backend,
		Rows:    entry.Rows,
		Clean:   entry.Clean,
	})
}

// handleStatus implements GET /v1/models/{id}. Another tenant's model reads
// as 404, indistinguishable from a model that does not exist.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, id string, tn *tenant.Identity) {
	entry, ok := s.getModelFor(id, tn)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", id)
		return
	}
	state, ferr := entry.State()
	resp := statusResponse{
		ID:      entry.ID,
		State:   state,
		Created: entry.Created,
		FitMS:   entry.FitDuration().Milliseconds(),
		Rows:    entry.Rows,
		Clean:   entry.Clean,
	}
	if ferr != nil {
		resp.Error = ferr.Error()
	}
	resp.Backend = entry.Opts.Backend
	if state == StateReady {
		fm, err := entry.Wait(nil)
		if err == nil {
			resp.Backend = fm.Backend
			resp.Splits = &fm.Splits
			resp.ModelBudget = &budgetJSON{Epsilon: fm.ModelBudget.Epsilon, Delta: fm.ModelBudget.Delta}
			resp.Structure = summarizeStructure(fm)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// summarizeStructure renders the backend-neutral model description.
func summarizeStructure(fm *sgf.FittedModel) *structureJSON {
	d := fm.Describe()
	return &structureJSON{Order: d.Order, Parents: d.Parents, Edges: d.Edges}
}

// handleSynthesize implements POST /v1/models/{id}/synthesize: run
// Mechanism 1 against the fitted model and stream released records back as
// NDJSON, one JSON object per record, attributes in schema order. Identical
// requests (same model, seed and parameters) stream identical bytes
// whatever the server's concurrency — see core.GenerateCtx.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request, id string, tn *tenant.Identity) {
	ro := obsFrom(r.Context())
	sc := &stageClock{tr: traceFrom(r.Context())}

	// load_model covers the registry lookup including a lazy store load of a
	// non-resident snapshot.
	endStage := sc.start("load_model")
	entry, ok := s.getModelFor(id, tn)
	endStage()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", id)
		return
	}
	var req synthRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// A silently ignored typo ("epsilon0") would run a weaker privacy test
	// than the client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Records <= 0 || req.Records > maxRecordsPerRequest {
		writeError(w, http.StatusBadRequest, "records must be in [1, %d]", maxRecordsPerRequest)
		return
	}
	if req.MaxCandidates < 0 || req.MaxCandidates > maxCandidatesPerRequest {
		writeError(w, http.StatusBadRequest, "max_candidates must be in [0, %d]", maxCandidatesPerRequest)
		return
	}
	releases := req.Releases
	if releases == 0 {
		releases = 1
	}
	if releases < 1 || releases > maxReleasesPerRequest {
		writeError(w, http.StatusBadRequest, "releases must be in [1, %d]", maxReleasesPerRequest)
		return
	}
	if req.Records > maxRecordsPerRequest/releases {
		writeError(w, http.StatusBadRequest, "records × releases must not exceed %d", maxRecordsPerRequest)
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.Gamma == 0 {
		req.Gamma = 4
	}

	// Lifetime privacy-budget admission. Every release is accounted in the
	// per-tenant ledger; with a budget configured, a request that would push
	// the tenant's composed lifetime (ε, δ) past it is refused here — before
	// the model wait, the worker grant, or any generation work is committed.
	// The reservation covers the requested count so concurrent streams
	// cannot both squeeze through the same remaining budget; settle moves
	// what was actually delivered into durable spend.
	endStage = sc.start("admit")
	budgetEps, budgetDelta := s.effectiveBudget(tn)
	settle, aerr := s.ledger.admit(ownerOf(tn), req.K, req.Gamma, req.Eps0, req.Records*releases, budgetEps, budgetDelta)
	endStage()
	if aerr != nil {
		s.metrics.BudgetDenied()
		writeError(w, http.StatusForbidden, "%v", aerr)
		return
	}
	released := 0
	defer func() { settle(released) }()

	ctx := r.Context()
	s.metrics.SynthesizeStart()
	defer s.metrics.SynthesizeDone()

	// Wait for the background fit; aborted clients stop waiting.
	endStage = sc.start("wait_model")
	fm, err := entry.Wait(ctx.Done())
	endStage()
	if err != nil {
		if ctx.Err() != nil {
			return // client went away
		}
		writeError(w, http.StatusConflict, "model %s not usable: %v", id, err)
		return
	}

	opts := sgf.SynthOptions{
		Records:           req.Records,
		K:                 req.K,
		Gamma:             req.Gamma,
		Eps0:              req.Eps0,
		OmegaLo:           req.OmegaLo,
		OmegaHi:           req.OmegaHi,
		MaxCandidates:     req.MaxCandidates,
		MaxPlausible:      req.MaxPlausible,
		MaxCheckPlausible: req.MaxCheckPlausible,
		Seed:              req.Seed,
	}
	// Validate the mechanism before committing to a 200 + stream.
	mech, err := fm.Mechanism(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Hold one worker of the shared pool for the stream — behind the
	// tenant's worker-grant quota, so one tenant cannot drain the shared
	// pool however many requests it opens — and borrow idle ones for each
	// chunk, up to the request's workers. How many workers run affects
	// latency only, never the streamed bytes.
	endStage = sc.start("acquire_workers")
	release, err := s.acquireWorkers(ctx, tn)
	endStage()
	if err != nil {
		if errors.Is(err, errWorkerQuota) {
			tn.CountThrottle()
			setRetryAfter(w, time.Second)
			writeError(w, http.StatusTooManyRequests, "tenant %s worker quota (%d) fully in use; retry later", tn.Name, tn.MaxWorkers())
		}
		return // otherwise the client went away while queued
	}
	defer release()
	lend := &requestLender{WorkerPool: s.pool}
	mech.Lend = lend
	workers := req.Workers
	if workers <= 0 {
		workers = s.pool.Size()
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Sgf-Model", entry.ID)
	h.Set("Trailer", "X-Sgf-Candidates, X-Sgf-Released, X-Sgf-Releases, X-Sgf-Pass-Rate, X-Sgf-Elapsed-Ms, X-Sgf-Stage-Ms")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := newRecordEncoder(fm.Meta())
	rc := http.NewResponseController(w)
	// One reused batch buffer for the whole stream: records append straight
	// into it (see encoder.go), so steady-state encoding allocates nothing.
	var buf []byte
	var streamBytes int64
	var firstRecord time.Time // when the first sink call began
	sink := func(batch []dataset.Record) error {
		if firstRecord.IsZero() {
			firstRecord = time.Now()
		}
		if need := len(batch) * enc.recSize; cap(buf) < need {
			buf = make([]byte, 0, need)
		}
		buf = buf[:0]
		for _, rec := range batch {
			buf = enc.appendRecord(buf, rec)
		}
		// Rolling per-batch write deadline: a client that stops reading
		// cannot pin this handler's pool grant forever (the server sets no
		// global WriteTimeout, which would kill long legitimate streams).
		_ = rc.SetWriteDeadline(time.Now().Add(batchWriteTimeout))
		if _, werr := w.Write(buf); werr != nil {
			return werr
		}
		streamBytes += int64(len(buf))
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	genSpan := sc.tr.StartSpan("generate", nil)
	genStart := time.Now()
	// Multiply-synthetic releases: release j is an independent generation
	// run with seed Seed+j, so a single-release stream is byte-identical to
	// what the pre-release-option server produced, and each release can be
	// reproduced individually. The separator line is only emitted when the
	// client asked for more than one dataset.
	var stats sgf.GenStats
	err = nil
	for j := 0; j < releases; j++ {
		if releases > 1 {
			buf = appendReleaseLine(buf[:0], j)
			_ = rc.SetWriteDeadline(time.Now().Add(batchWriteTimeout))
			if _, werr := w.Write(buf); werr != nil {
				err = werr
				break
			}
			streamBytes += int64(len(buf))
			if flusher != nil {
				flusher.Flush()
			}
		}
		var rs sgf.GenStats
		rs, err = sgf.GenerateTargetStream(ctx, mech, opts.Records, opts.MaxCandidates, workers, opts.Seed+uint64(j), sink)
		stats.Candidates += rs.Candidates
		stats.Released += rs.Released
		stats.SeedRejected += rs.SeedRejected
		stats.CheckedTotal += rs.CheckedTotal
		stats.Elapsed += rs.Elapsed
		stats.SinkElapsed += rs.SinkElapsed
		if err != nil {
			break
		}
	}
	genSpan.SetAttr("records", fmt.Sprint(stats.Released))
	genSpan.SetAttr("candidates", fmt.Sprint(stats.Candidates))
	genSpan.SetAttr("releases", fmt.Sprint(releases))
	genSpan.SetAttr("workers", fmt.Sprint(1+lend.most))
	genSpan.End()
	sc.parts = append(sc.parts, fmt.Sprintf("generate=%d", time.Since(genStart).Milliseconds()))
	// The flush stage sums the time spent inside the NDJSON sink (encode +
	// write + flush), measured by the generator around each call. Sink calls
	// run on the request's own worker between its batches, so they are a
	// slice of generate that overlaps only the borrowed workers' batches.
	sc.add("stream_flush", genStart, stats.SinkElapsed)
	// Time to first record: from the start of generate to the first sink
	// call, absent when no record was delivered.
	if !firstRecord.IsZero() {
		sc.add("first_record", genStart, firstRecord.Sub(genStart))
	}
	// GenStats.Released counts exactly the records the sink accepted — the
	// stream caps it at the target and excludes failed deliveries — so the
	// metrics, the X-Sgf-Released trailer and the ledger settle all read the
	// one number the client actually observed.
	released = stats.Released
	if ro != nil {
		ro.records = released
	}
	s.metrics.Generated(stats.Released, stats.Candidates, stats.CheckedTotal)
	s.metrics.ObserveStream(stats.Released, streamBytes)
	if err != nil && ctx.Err() == nil {
		// The status line is gone; surface the failure as a final NDJSON
		// error line so clients can distinguish truncation from success.
		buf = appendErrorLine(buf[:0], err.Error())
		w.Write(buf)
	}
	h.Set("X-Sgf-Candidates", fmt.Sprint(stats.Candidates))
	h.Set("X-Sgf-Released", fmt.Sprint(stats.Released))
	h.Set("X-Sgf-Releases", fmt.Sprint(releases))
	h.Set("X-Sgf-Pass-Rate", fmt.Sprintf("%.6f", stats.PassRate()))
	h.Set("X-Sgf-Elapsed-Ms", fmt.Sprint(stats.Elapsed.Milliseconds()))
	h.Set("X-Sgf-Stage-Ms", sc.trailer())
}

// handleHealthz implements GET /healthz. The store section reports the
// loaded-model count, the snapshot footprint on disk, and the most recent
// load/flush errors; the version ties the process to the commit that built
// it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	auth := map[string]any{"enabled": s.cfg.Auth != nil}
	if s.cfg.Auth != nil {
		auth["tenants"] = s.cfg.Auth.Len()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"version":          buildinfo.Version,
		"models":           s.reg.Len(),
		"workers":          s.pool.Size(),
		"workers_in_use":   s.pool.InUse(),
		"records_released": s.metrics.RecordsReleased(),
		"store":            s.storeStatus(),
		"auth":             auth,
		"privacy_ledger": map[string]any{
			// enforced reports the server-wide default only; per-tenant
			// key-file overrides can enable enforcement for individual
			// tenants even when this is false.
			"enforced":       s.cfg.TenantBudgetEps > 0,
			"budget_eps":     s.cfg.TenantBudgetEps,
			"budget_delta":   s.cfg.TenantBudgetDelta,
			"records_total":  s.ledger.recordsTotal(),
			"durable":        s.store != nil,
			"format_version": store.Version,
		},
	})
}

// handleMetrics implements GET /metrics (Prometheus text format).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
	s.pool.writeMetrics(w)
	if s.cfg.Auth != nil {
		writeTenantMetrics(w, s.cfg.Auth.Snapshot())
	}
	writeLedgerMetrics(w, s.ledger.stats())
	if s.store != nil {
		s.store.WriteMetrics(w)
	}
}
