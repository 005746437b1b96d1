package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	sgf "repro"
	"repro/internal/backend"
	"repro/internal/backend/bayes"
	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run replays a workload in-process on the same upload, fit
// seeds and request seeds, timing the public call into each layer from
// outside. Layer numbers are span self times and the counts the calls
// return; see README.md for which end-to-end metric each should move.

// Span names: the public call each span times, plus the replay's roots.
const (
	spanFitPath    = "replay.fit_path"
	spanFitLayers  = "replay.fit_layers"
	spanBayesnet   = "replay.bayesnet"
	spanSnapshot   = "replay.snapshot"
	spanGenerate   = "replay.generate"
	spanRequests   = "replay.requests"
	spanLedger     = "replay.ledger"
	spanReadCSV    = "dataset.ReadCSV"
	spanSplit      = "dataset.Dataset.SplitFrac"
	spanSgfFit     = "sgf.Fit"
	spanBackendFit = "backend.Backend.Fit"
	spanFreeze     = "backend.Model.Freeze"
	spanStructure  = "bayesnet.LearnStructure"
	spanParams     = "bayesnet.LearnModel"
	spanScanIndex  = "core.ScanTableFor"
	spanEncode     = "sgf.FittedModel.Encode"
	spanDecode     = "sgf.DecodeFittedModel"
	spanPut        = "store.Store.Put"
	spanPutLedger  = "store.Store.PutLedger"
	spanMechanism  = "sgf.FittedModel.Mechanism"
	spanLoop       = "core.GenerateCtx"
	spanLoopNoWalk = "core.GenerateCtx/max_check_plausible=1"
	spanStream     = "core.GenerateTargetStream"
	spanHandler    = "server.Server.ServeHTTP"
)

// mechanismCalls is how many warm FittedModel.Mechanism calls one span
// times; ledgerPuts is how many PutLedger calls the replay makes.
const (
	mechanismCalls = 200
	ledgerPuts     = 9
)

// replayRun is a finished replay: its spans and what the layers measured.
type replayRun struct {
	tr          *tracer
	frozenBytes []float64
	snapBytes   []float64
	untraced    time.Duration // the stream replays again, without spans
	streamRecs  float64
}

// replay runs the traced replay of one workload whose HTTP phase sent
// timed requests. dir holds its scratch stores.
func replay(in *inputs, timed int, dir string) (*replayRun, error) {
	w := in.w
	rr := &replayRun{tr: newTracer(traceID(in))}
	tr := rr.tr
	st, err := store.Open(filepath.Join(dir, "stores", "replay"), 0)
	if err != nil {
		return nil, err
	}
	meta, err := dataset.ReadJSON(bytes.NewReader(in.metaJSON))
	if err != nil {
		return nil, err
	}

	// Fit path, once per panel model, in the order sgfd runs it.
	fms := make([]*sgf.FittedModel, w.Fits)
	for j := range fms {
		var data *dataset.Dataset
		var ferr error
		tr.do(spanFitPath, func() {
			tr.do(spanReadCSV, func() { data, _, ferr = dataset.ReadCSV(strings.NewReader(in.csv[j]), meta) })
			if ferr != nil {
				return
			}
			tr.do(spanSgfFit, func() { fms[j], ferr = sgf.Fit(data, in.fitOptions(j)) })
			if ferr != nil {
				return
			}
			tr.do(spanScanIndex, func() {
				syn, serr := fms[j].Gen.Synthesizer(w.OmegaLo, w.OmegaHi)
				if serr != nil {
					ferr = serr
					return
				}
				core.ScanTableFor(syn, fms[j].Seeds)
			})
			if ferr != nil {
				return
			}
			tr.do(spanPut, func() {
				ferr = st.Put(&store.Snapshot{
					ID: fmt.Sprintf("m-%016x", j), Key: fmt.Sprintf("%064x", j),
					Created: time.Now(), Rows: data.Len(), ModelEps: w.ModelEps,
					ModelDelta: w.ModelDelta, MaxCost: w.MaxCost, Seed: fitSeed(j),
					Model: fms[j],
				})
			})
		})
		if ferr != nil {
			return nil, fmt.Errorf("replaying the fit path of model %d: %w", j, ferr)
		}
		if err := rr.snapshot(fms[j]); err != nil {
			return nil, err
		}
		if err := rr.fitLayers(in, data, j); err != nil {
			return nil, err
		}
	}

	for j, fm := range fms {
		if err := rr.generate(in, fm, j); err != nil {
			return nil, err
		}
	}
	if err := rr.requests(in, fms, timed, dir); err != nil {
		return nil, err
	}

	var perr error
	tr.do(spanLedger, func() {
		led := &store.Ledger{Entries: []store.LedgerEntry{{K: w.K, Gamma: w.Gamma, Eps0: w.Eps0, Records: int64(rr.streamRecs)}}}
		for i := 0; i < ledgerPuts && perr == nil; i++ {
			tr.do(spanPutLedger, func() { perr = st.PutLedger(led) })
		}
	})
	if perr != nil {
		return nil, fmt.Errorf("replaying PutLedger: %w", perr)
	}
	return rr, nil
}

func traceID(in *inputs) string {
	r := rng.NewHashed("perfbench", in.w.Name, strconv.FormatUint(in.seed, 10))
	return fmt.Sprintf("%016x%016x", r.Uint64(), r.Uint64())
}

// snapshot times the snapshot codec on a fitted model.
func (rr *replayRun) snapshot(fm *sgf.FittedModel) error {
	tr := rr.tr
	var buf bytes.Buffer
	var err error
	tr.do(spanSnapshot, func() {
		tr.do(spanEncode, func() { err = fm.Encode(&buf) })
		if err == nil {
			tr.do(spanDecode, func() { _, err = sgf.DecodeFittedModel(bytes.NewReader(buf.Bytes())) })
		}
	})
	rr.snapBytes = append(rr.snapBytes, float64(buf.Len()))
	if err != nil {
		return fmt.Errorf("replaying the snapshot codec: %w", err)
	}
	return nil
}

// fitLayers replays sgf.Fit step by step (split, backend fit, freeze), and
// the bayes backend's two learning calls with that backend's configuration.
func (rr *replayRun) fitLayers(in *inputs, data *dataset.Dataset, j int) error {
	tr, w := rr.tr, in.w
	be, ok := backend.Lookup(w.Backend)
	if !ok {
		return fmt.Errorf("unknown backend %q", w.Backend)
	}
	var err error
	tr.do(spanFitLayers, func() {
		r := rng.New(fitSeed(j))
		var parts []*dataset.Dataset
		tr.do(spanSplit, func() { parts, err = data.SplitFrac(r.Split(), 0.25, 0.25, 0.5) })
		if err != nil {
			return
		}
		var m backend.Model
		tr.do(spanBackendFit, func() {
			m, _, err = be.Fit(backend.FitData{
				Structure: parts[0], Params: parts[1], Bkt: dataset.NewBucketizer(data.Meta),
				ModelEps: w.ModelEps, ModelDelta: w.ModelDelta, MaxCost: w.MaxCost,
				Seed: fitSeed(j), RNG: r,
			})
		})
		if err != nil {
			return
		}
		tr.do(spanFreeze, func() { err = m.Freeze(0) })
	})
	if err != nil {
		return fmt.Errorf("replaying sgf.Fit step by step: %w", err)
	}

	tr.do(spanBayesnet, func() {
		r := rng.New(fitSeed(j))
		var parts []*dataset.Dataset
		if parts, err = data.SplitFrac(r.Split(), 0.25, 0.25, 0.5); err != nil {
			return
		}
		bkt := dataset.NewBucketizer(data.Meta)
		scfg := bayesnet.StructureConfig{MaxCost: w.MaxCost, MinCorr: 0.01}
		mcfg := bayesnet.ModelConfig{Alpha: 1, NoiseKey: fmt.Sprintf("sgf-%d", fitSeed(j))}
		if w.ModelEps > 0 {
			delta := w.ModelDelta
			if delta <= 0 {
				delta = 1e-9
			}
			var b privacy.ModelNoiseBudgets
			if b, err = privacy.CalibrateModel(len(data.Meta.Attrs), w.ModelEps, delta); err != nil {
				return
			}
			scfg.DP, scfg.EpsH, scfg.EpsN, scfg.Rng = true, b.EpsH, b.EpsN, r.Split()
			mcfg.DP, mcfg.EpsP = true, b.EpsP
		}
		var s *bayesnet.Structure
		tr.do(spanStructure, func() { s, err = bayesnet.LearnStructure(parts[0], bkt, scfg) })
		if err != nil {
			return
		}
		var m *bayesnet.Model
		tr.do(spanParams, func() { m, err = bayesnet.LearnModel(parts[1], bkt, s, mcfg) })
		if err != nil {
			return
		}
		if err = m.Freeze(0); err == nil {
			rr.frozenBytes = append(rr.frozenBytes, float64(m.Frozen().Bytes()))
		}
	})
	if err != nil {
		return fmt.Errorf("replaying the bayesnet learning calls: %w", err)
	}
	return nil
}

// generate replays the candidate loop on one panel model: the loop itself
// with one worker, the loop with the walk cut to one seed, and the
// backend's sample and prober calls on the same number of candidates.
func (rr *replayRun) generate(in *inputs, fm *sgf.FittedModel, j int) error {
	tr, w := rr.tr, in.w
	ctx := context.Background()
	seed := in.requestSeed(j)
	opts := synthOptions(w.synthBody(w.Records, seed), 1)
	var err error
	tr.do(spanGenerate, func() {
		var mech, noWalk *core.Mechanism
		// The first call builds the model's scan table; the span times warm
		// calls, as sgfd makes them.
		if mech, err = fm.Mechanism(opts); err != nil {
			return
		}
		id := tr.do(spanMechanism, func() {
			for i := 0; i < mechanismCalls && err == nil; i++ {
				_, err = fm.Mechanism(opts)
			}
		})
		tr.count(id, "calls", mechanismCalls)
		if err != nil {
			return
		}

		var before, after runtime.MemStats
		var gs core.GenStats
		runtime.ReadMemStats(&before)
		id = tr.do(spanLoop, func() {
			_, gs, err = core.GenerateCtx(ctx, mech, core.GenConfig{Candidates: w.Cands, Workers: 1, Seed: seed})
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		tr.count(id, "candidates", float64(gs.Candidates))
		tr.count(id, "released", float64(gs.Released))
		tr.count(id, "checked", float64(gs.CheckedTotal))
		tr.count(id, "mallocs", float64(after.Mallocs-before.Mallocs))

		cut := opts
		cut.MaxCheckPlausible = 1
		if noWalk, err = fm.Mechanism(cut); err != nil {
			return
		}
		id = tr.do(spanLoopNoWalk, func() {
			_, gs, err = core.GenerateCtx(ctx, noWalk, core.GenConfig{Candidates: w.Cands, Workers: 1, Seed: seed})
		})
		tr.count(id, "candidates", float64(gs.Candidates))
		if err != nil {
			return
		}
		err = rr.sampleAndProbe(fm, w, seed)
	})
	if err != nil {
		return fmt.Errorf("replaying generation on model %d: %w", j, err)
	}
	return nil
}

// sampleAndProbe times the Bayes net's candidate sampling and prober set-up:
// bayesnet.Frozen.SampleChain and TailProducts.
func (rr *replayRun) sampleAndProbe(fm *sgf.FittedModel, w workload, seed uint64) error {
	tr := rr.tr
	bm, ok := fm.Gen.(*bayes.Model)
	if !ok || bm.M.Frozen() == nil {
		return fmt.Errorf("the replay samples frozen bayesnet models only, not %s", fm.Gen.Backend())
	}
	r := rng.New(seed)
	n, m := fm.Seeds.Len(), len(fm.Meta().Attrs)
	cands := make([]dataset.Record, w.Cands)
	seeds := make([]dataset.Record, w.Cands)
	flat := make([]uint16, w.Cands*m)
	for i := range cands {
		cands[i] = flat[i*m : (i+1)*m : (i+1)*m]
		seeds[i] = fm.Seeds.Row(r.Intn(n))
	}
	frozen, order := bm.M.Frozen(), bm.St.Order
	sampleID := tr.do("bayesnet.Frozen.SampleChain", func() {
		for i, dst := range cands {
			copy(dst, seeds[i])
			omega := w.OmegaLo + r.Intn(w.OmegaHi-w.OmegaLo+1)
			frozen.SampleChain(dst, order, m-omega, r)
		}
	})
	tail := make([]float64, m+1)
	proberID := tr.do("bayesnet.Frozen.TailProducts", func() {
		for _, y := range cands {
			frozen.TailProducts(y, order, tail)
		}
	})
	tr.count(sampleID, "calls", float64(w.Cands))
	tr.count(proberID, "calls", float64(w.Cands))
	return nil
}

// requests replays the last timed requests of the HTTP phase, past its
// warm-up: through core's stream with a sink that does nothing, once traced
// and once untraced for the overhead figure, and through the HTTP handler
// into an in-memory writer. The three replays of a request run in a
// rotating order, so none of them always runs on warm caches.
func (rr *replayRun) requests(in *inputs, fms []*sgf.FittedModel, timed int, dir string) error {
	tr, w := rr.tr, in.w
	srv, err := server.New(server.Config{
		CacheCap: 8, MaxUploadBytes: 32 << 20, StoreDir: filepath.Join(dir, "stores", "handler"),
		EvalMaxRunning: 1, EvalMaxPending: 8, EvalRetain: 16, EvalMaxN: 200_000,
		TenantBudgetDelta: 1e-6, Logger: obs.NewLogger(io.Discard, false, slog.LevelInfo), AccessLog: true,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ids := make([]string, w.Fits)
	for j := range ids {
		if ids[j], err = fitOnHandler(srv, in, j); err != nil {
			return err
		}
	}

	ctx := context.Background()
	first := max(timed-w.Replay, 0)
	// One untimed request through the handler brings the heap to its
	// working size.
	if err := synthesizeOnHandler(srv, ids[first%w.Fits], w.synthBody(w.Records, in.requestSeed(first))); err != nil {
		return fmt.Errorf("warming the handler: %w", err)
	}
	tr.do(spanRequests, func() {
		for n := first; n < timed && err == nil; n++ {
			model := n % w.Fits
			body := w.synthBody(w.Records, in.requestSeed(n))
			var mech *core.Mechanism
			if mech, err = fms[model].Mechanism(synthOptions(body, 1)); err != nil {
				return
			}
			stream := func() (core.GenStats, time.Duration, error) {
				var first time.Duration
				start := time.Now()
				gs, err := core.GenerateTargetStream(ctx, mech, body.Records, body.MaxCandidates, 1, body.Seed,
					func(batch []dataset.Record) error {
						if first == 0 {
							first = time.Since(start)
						}
						return nil
					})
				return gs, first, err
			}
			traced := func() error {
				var gs core.GenStats
				var first time.Duration
				var err error
				id := tr.do(spanStream, func() { gs, first, err = stream() })
				if err == nil && gs.Released != body.Records {
					err = fmt.Errorf("replayed stream released %d of %d records", gs.Released, body.Records)
				}
				tr.count(id, "records", float64(gs.Released))
				tr.count(id, "first_batch_ns", float64(first))
				rr.streamRecs += float64(gs.Released)
				return err
			}
			untraced := func() error {
				start := time.Now()
				_, _, err := stream()
				rr.untraced += time.Since(start)
				return err
			}
			handler := func() error {
				var err error
				id := tr.do(spanHandler, func() { err = synthesizeOnHandler(srv, ids[model], body) })
				tr.count(id, "records", float64(body.Records))
				return err
			}
			steps := [3]func() error{traced, untraced, handler}
			for k := 0; k < 3 && err == nil; k++ {
				err = steps[(n+k)%3]()
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replaying requests: %w", err)
	}
	return nil
}

// memWriter is the in-memory http.ResponseWriter of the handler replay: it
// keeps the headers (trailers land there too) and checks the stream
// without storing it.
type memWriter struct {
	header http.Header
	status int
	sc     streamCheck
}

func (m *memWriter) Header() http.Header { return m.header }

func (m *memWriter) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}

func (m *memWriter) Write(p []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	m.sc.write(p)
	return len(p), nil
}

func (m *memWriter) Flush() {}

func serve(srv *server.Server, path string, body any) (*memWriter, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	mw := &memWriter{header: http.Header{}}
	srv.ServeHTTP(mw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return mw, nil
}

// fitOnHandler fits panel model j on the in-process server and waits for
// the fit with a one-record request.
func fitOnHandler(srv *server.Server, in *inputs, j int) (string, error) {
	raw, err := in.fitBody(j)
	if err != nil {
		return "", err
	}
	mw, err := serve(srv, "/v1/models", json.RawMessage(raw))
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if mw.status != http.StatusAccepted || json.Unmarshal(mw.sc.tail, &out) != nil || out.ID == "" {
		return "", fmt.Errorf("in-process fit: status %d: %s", mw.status, mw.sc.tail)
	}
	return out.ID, synthesizeOnHandler(srv, out.ID, in.w.synthBody(1, 0))
}

func synthesizeOnHandler(srv *server.Server, id string, body synthBody) error {
	mw, err := serve(srv, "/v1/models/"+id+"/synthesize", body)
	if err != nil {
		return err
	}
	if mw.status != http.StatusOK {
		return fmt.Errorf("in-process synthesize: status %d: %s", mw.status, mw.sc.tail)
	}
	released, _ := strconv.Atoi(mw.header.Get("X-Sgf-Released"))
	return mw.sc.check(body.Records, released)
}
