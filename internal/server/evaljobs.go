package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// This file implements the async evaluation-job endpoints:
//
//	POST   /v1/eval             launch a §6 pipeline run (body: eval.SuiteConfig)
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        status + progress
//	GET    /v1/jobs/{id}/result tables and figure series as JSON
//	DELETE /v1/jobs/{id}        cancel a running job / evict a finished one
//
// A job runs eval.RunSuite — the exact code path cmd/experiments uses — on
// worker-pool tokens shared with the synthesize handlers, so evaluation
// load and serving load are bounded together. Results are retained under
// the jobs LRU until polled or evicted.

// Per-request evaluation ceilings, mirroring the synthesize ceilings: one
// job may not commit the server to an unbounded pipeline build.
const (
	defaultEvalMaxN     = 200_000
	maxEvalReps         = 20
	maxEvalSynthPer     = 100_000
	maxEvalSectionUnits = 1_000_000 // per-section workload knobs (probes, candidates, samples)
)

// jobRecord renders a finished job as its persistent form. It returns false
// when the job is gone (deleted or evicted), unfinished, failed, or holds
// something other than a suite result; in every such case there is nothing
// worth persisting.
func (s *Server) jobRecord(id string) (*store.JobRecord, bool) {
	j, ok := s.jobs.Get(id)
	if !ok {
		return nil, false
	}
	res, err := j.Result()
	if err != nil {
		return nil, false
	}
	suite, ok := res.(*eval.SuiteResult)
	if !ok {
		return nil, false
	}
	raw, err := json.Marshal(suite)
	if err != nil {
		return nil, false
	}
	started, finished := j.Timeline()
	return &store.JobRecord{
		ID:       j.ID,
		Label:    j.Label,
		Owner:    j.Owner,
		Created:  j.Created,
		Started:  started,
		Finished: finished,
		Result:   raw,
	}, true
}

// putJob writes a finished job's record: the OnFinish hook, and Close for a
// retained job whose record is missing. It holds jobMu, as deleteJob does,
// and writes only while the manager still holds the job, so a DELETE that
// races the finish either removes the written record or leaves nothing to
// write: no deleted job revives at the next boot. A failed write is logged
// (and counted in the store's stats); Close retries it.
func (s *Server) putJob(id string) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	rec, ok := s.jobRecord(id)
	if !ok || s.jobsClosed {
		return
	}
	if err := s.store.PutJob(rec); err != nil {
		s.logStoreError("job record write", "job", id, err)
	}
}

// deleteJob removes the record of a job that left the manager: the OnEvict
// hook (retention, DELETE, or a restore displaced at boot).
func (s *Server) deleteJob(id string) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.jobsClosed {
		return
	}
	if err := s.store.DeleteJob(id); err != nil && !errors.Is(err, store.ErrNotFound) {
		s.logStoreError("job record delete", "job", id, err)
	}
}

// restoreJobs revives persisted finished-job results into the job manager
// at boot, oldest first so retention evicts the right end if more records
// survive on disk than the retention bound admits. A record whose result
// no longer unmarshals (a schema change across versions) is deleted rather
// than served wrong or crashed on.
func (s *Server) restoreJobs() int {
	restored := 0
	for _, id := range s.store.JobIDs() {
		rec, err := s.store.GetJob(id)
		if err != nil || rec.Label != "eval" {
			continue
		}
		var suite eval.SuiteResult
		if err := json.Unmarshal(rec.Result, &suite); err != nil {
			_ = s.store.DeleteJob(id)
			continue
		}
		if _, ok := s.jobs.Restore(rec.ID, rec.Label, rec.Owner, rec.Created, rec.Started, rec.Finished, &suite); ok {
			restored++
		}
	}
	return restored
}

// evalAccepted answers POST /v1/eval and DELETE of an active job.
type evalAccepted struct {
	Job     jobs.Info `json:"job"`
	Version string    `json:"version"`
}

// jobsListResponse answers GET /v1/jobs.
type jobsListResponse struct {
	Version string      `json:"version"`
	Jobs    []jobs.Info `json:"jobs"`
	Stats   jobs.Stats  `json:"stats"`
}

// jobResultResponse answers GET /v1/jobs/{id}/result. Version ties the
// exported numbers to the build (and with it the commit) that produced
// them.
type jobResultResponse struct {
	Job     jobs.Info         `json:"job"`
	Version string            `json:"version"`
	Result  *eval.SuiteResult `json:"result"`
}

// handleEvalLaunch implements POST /v1/eval: validate the suite config and
// admit it as a background job owned by the launching tenant, subject to
// the tenant's concurrent-job quota.
func (s *Server) handleEvalLaunch(w http.ResponseWriter, r *http.Request, tn *tenant.Identity) {
	var cfg eval.SuiteConfig
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// A silently ignored typo ("model_epsilon") would evaluate a different
	// privacy configuration than the client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	maxN := s.cfg.EvalMaxN
	if maxN <= 0 {
		maxN = defaultEvalMaxN
	}
	if cfg.N > maxN {
		writeError(w, http.StatusBadRequest, "n must be at most %d, got %d", maxN, cfg.N)
		return
	}
	if cfg.Reps > maxEvalReps {
		writeError(w, http.StatusBadRequest, "reps must be at most %d, got %d", maxEvalReps, cfg.Reps)
		return
	}
	if cfg.SynthPerVariant < 0 || cfg.SynthPerVariant > maxEvalSynthPer {
		writeError(w, http.StatusBadRequest, "synth_per_variant must be in [0, %d], got %d", maxEvalSynthPer, cfg.SynthPerVariant)
		return
	}
	for name, v := range map[string]int{
		"fig12_probes":        cfg.Fig12Probes,
		"fig6_candidates":     cfg.Fig6Candidates,
		"table5_train":        cfg.Table5Train,
		"table5_test":         cfg.Table5Test,
		"attack_candidates":   cfg.AttackCandidates,
		"ablation_candidates": cfg.AblationCandidates,
		"ablation_samples":    cfg.AblationSamples,
	} {
		if v < 0 || v > maxEvalSectionUnits {
			writeError(w, http.StatusBadRequest, "%s must be in [0, %d], got %d", name, maxEvalSectionUnits, v)
			return
		}
	}
	for name, list := range map[string][]int{"fig5_counts": cfg.Fig5Counts, "fig6_ks": cfg.Fig6Ks} {
		for _, v := range list {
			if v < 1 || v > maxEvalSectionUnits {
				writeError(w, http.StatusBadRequest, "%s entries must be in [1, %d], got %d", name, maxEvalSectionUnits, v)
				return
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The tenant's concurrent-job quota is checked ahead of the shared
	// admission bound, so one tenant filling its own budget never eats the
	// pending slots every tenant shares. (Check-then-launch can admit one
	// job too many under a racing burst; the shared pending bound still
	// caps the damage, and the quota reasserts on the next launch.)
	if tn != nil && tn.MaxJobs() > 0 && s.jobs.UnfinishedFor(tn.Name) >= tn.MaxJobs() {
		tn.CountThrottle() // the quota lives with the job manager, so count the 429 here
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, "tenant %s already has %d unfinished evaluation job(s); retry later", tn.Name, tn.MaxJobs())
		return
	}

	// Pin the tenant for the job's lifetime: a queued job's future worker
	// grants must stay attributed in /metrics (and its quota must not be
	// re-mintable) even if a key-file reload removes the tenant while the
	// job waits.
	if tn != nil {
		tn.Pin()
	}
	want := cfg.Workers
	job, err := s.jobs.LaunchOwned("eval", jobOwner(tn), func(ctx context.Context, progress jobs.ProgressFunc) (any, error) {
		// Evaluation shares the synthesize worker pool: the job blocks here
		// (cancellably) until its tenant's worker quota and then pool
		// tokens are free, then sizes its generation parallelism to the
		// grant. The grant affects wall-clock only, never the result —
		// core generation is worker-count independent.
		progress("waiting for workers", 0)
		granted, release, err := s.acquireWorkersBlocking(ctx, tn, want)
		if err != nil {
			return nil, err
		}
		defer release()
		run := cfg
		run.Workers = granted
		return eval.RunSuite(ctx, run, eval.ProgressFunc(progress))
	})
	if err != nil {
		if tn != nil {
			tn.Unpin() // the job never existed
		}
		if errors.Is(err, jobs.ErrTooManyJobs) {
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "launching job: %v", err)
		return
	}
	if tn != nil {
		// Release the pin when the job reaches a terminal state — whatever
		// path it takes there (done, failed, cancelled while queued).
		go func(t *tenant.Identity, j *jobs.Job) {
			<-j.Done()
			t.Unpin()
		}(tn, job)
	}
	writeJSON(w, http.StatusAccepted, evalAccepted{Job: job.Info(), Version: buildinfo.Version})
}

// handleListJobs implements GET /v1/jobs. With authentication enabled,
// non-admin tenants see only their own jobs (the stats section stays
// global — it carries no per-job information).
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request, tn *tenant.Identity) {
	list := s.jobs.List()
	resp := jobsListResponse{
		Version: buildinfo.Version,
		Jobs:    make([]jobs.Info, 0, len(list)),
		Stats:   s.jobs.Stats(),
	}
	for _, j := range list {
		if !canSeeJob(tn, j.Owner) {
			continue
		}
		resp.Jobs = append(resp.Jobs, j.Info())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobStatus implements GET /v1/jobs/{id}. Another tenant's job reads
// as 404, indistinguishable from a job that does not exist.
func (s *Server) handleJobStatus(w http.ResponseWriter, _ *http.Request, id string, tn *tenant.Identity) {
	job, ok := s.jobs.Get(id)
	if !ok || !canSeeJob(tn, job.Owner) {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobResult implements GET /v1/jobs/{id}/result: the full §6 report
// as JSON once the job is done; 409 while it is still queued/running or
// after it failed (the failure is in the status, not the result); 404 for
// another tenant's job.
func (s *Server) handleJobResult(w http.ResponseWriter, _ *http.Request, id string, tn *tenant.Identity) {
	job, ok := s.jobs.Get(id)
	if !ok || !canSeeJob(tn, job.Owner) {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	res, err := job.Result()
	if errors.Is(err, jobs.ErrNotFinished) {
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s", id, job.Info().State, id)
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, "job %s failed: %v", id, err)
		return
	}
	suite, ok := res.(*eval.SuiteResult)
	if !ok {
		writeError(w, http.StatusInternalServerError, "job %s holds an unexpected result type", id)
		return
	}
	writeJSON(w, http.StatusOK, jobResultResponse{Job: job.Info(), Version: buildinfo.Version, Result: suite})
}

// handleJobDelete implements DELETE /v1/jobs/{id}: cancellation for active
// jobs (202 — the job transitions to failed and stays pollable), eviction
// for finished ones (200, with the job's final state so the caller sees
// what it deleted). The manager decides atomically, so a job that finishes
// concurrently with the DELETE is still evicted — deleting a finished job
// always deletes it, never answers with a stale "cancelling".
//
// Writers may delete their own jobs; admins any job. Another tenant's job
// reads as 404, indistinguishable from a job that does not exist — the
// ownership probe is side-effect free (Get), so a denied DELETE can never
// cancel or evict anything. Owner is immutable, so the job resolved by the
// probe is the job Delete acts on (IDs are crypto-random, never reused).
func (s *Server) handleJobDelete(w http.ResponseWriter, _ *http.Request, id string, tn *tenant.Identity) {
	if j, ok := s.jobs.Get(id); !ok || !canSeeJob(tn, j.Owner) {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	job, cancelled, err := s.jobs.Delete(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "deleting job %s: %v", id, err)
	case cancelled:
		writeJSON(w, http.StatusAccepted, evalAccepted{Job: job.Info(), Version: buildinfo.Version})
	default:
		writeJSON(w, http.StatusOK, evalAccepted{Job: job.Info(), Version: buildinfo.Version})
	}
}
