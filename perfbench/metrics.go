package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef is a metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are measured over HTTP with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"records_per_s", "records/s", "higher"},
	{"ttfr_p50_ms", "ms", "lower"},
	{"requests_per_s", "requests/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_krecord", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayerMetrics come from the traced replay, plus the three sgfd figures
// only the HTTP phase can see and the load generator's own CPU share.
var perLayerMetrics = []metricDef{
	{"dataset.read_csv_ms", "ms", "lower"},
	{"bayesnet.structure_ms", "ms", "lower"},
	{"bayesnet.params_ms", "ms", "lower"},
	{"backend.fit_ms", "ms", "lower"},
	{"backend.freeze_ms", "ms", "lower"},
	{"bayesnet.frozen_mib", "MiB", "lower"},
	{"sgf.fit_ms", "ms", "lower"},
	{"core.scan_index_ms", "ms", "lower"},
	{"sgf.snapshot_encode_ms", "ms", "lower"},
	{"sgf.snapshot_mib", "MiB", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"sgf.snapshot_decode_ms", "ms", "lower"},
	{"backend.sample_ns_per_cand", "ns", "lower"},
	{"backend.prober_ns_per_cand", "ns", "lower"},
	{"core.loop_ns_per_cand", "ns", "lower"},
	{"core.walk_ns_per_cand", "ns", "lower"},
	{"core.checked_per_cand", "count", "lower"},
	{"core.pass_rate", "ratio", "higher"},
	{"core.allocs_per_cand", "count", "lower"},
	{"core.first_batch_ms", "ms", "lower"},
	{"core.stream_ns_per_record", "ns", "lower"},
	{"sgf.mechanism_us", "us", "lower"},
	{"server.handler_us_per_request", "us", "lower"},
	{"server.sink_ns_per_record", "ns", "lower"},
	{"http.us_per_request", "us", "lower"},
	{"store.ledger_saves_per_request", "count", "lower"},
	{"store.put_ledger_ms", "ms", "lower"},
	{"sgf.fit_unexplained_pct", "%", "lower"},
	{"core.loop_unexplained_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.client_cpu_pct", "%", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile, p in (0, 1].
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

func medianMs(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return median(v)
}

// perLayer computes the per-layer metrics from the replay's spans and the
// HTTP phase that preceded it.
func perLayer(rr *replayRun, run *httpRun) map[string]float64 {
	L := rr.tr.layers()
	get := func(name string) *layer {
		if l := L[name]; l != nil {
			return l
		}
		return &layer{counts: map[string]float64{}}
	}
	per := func(name, count string) float64 {
		l := get(name)
		return float64(l.self) / l.counts[count]
	}
	sample, prober := get("bayesnet.Frozen.SampleChain"), get("bayesnet.Frozen.TailProducts")
	loop, stream, handler := get(spanLoop), get(spanStream), get(spanHandler)
	cands := loop.counts["candidates"]
	loopNs := float64(loop.self) / cands
	walkNs := loopNs - per(spanLoopNoWalk, "candidates")
	sampleNs := float64(sample.self) / sample.counts["calls"]
	proberNs := float64(prober.self) / prober.counts["calls"]
	records := stream.counts["records"]

	m := map[string]float64{
		"dataset.read_csv_ms":           medianMs(get(spanReadCSV).selves),
		"bayesnet.structure_ms":         medianMs(get(spanStructure).selves),
		"bayesnet.params_ms":            medianMs(get(spanParams).selves),
		"backend.fit_ms":                medianMs(get(spanBackendFit).selves),
		"backend.freeze_ms":             medianMs(get(spanFreeze).selves),
		"bayesnet.frozen_mib":           median(rr.frozenBytes) / (1 << 20),
		"sgf.fit_ms":                    medianMs(get(spanSgfFit).selves),
		"core.scan_index_ms":            medianMs(get(spanScanIndex).selves),
		"sgf.snapshot_encode_ms":        medianMs(get(spanEncode).selves),
		"sgf.snapshot_mib":              median(rr.snapBytes) / (1 << 20),
		"store.put_ms":                  medianMs(get(spanPut).selves),
		"sgf.snapshot_decode_ms":        medianMs(get(spanDecode).selves),
		"backend.sample_ns_per_cand":    sampleNs,
		"backend.prober_ns_per_cand":    proberNs,
		"core.loop_ns_per_cand":         loopNs,
		"core.walk_ns_per_cand":         walkNs,
		"core.checked_per_cand":         loop.counts["checked"] / cands,
		"core.pass_rate":                loop.counts["released"] / cands,
		"core.allocs_per_cand":          loop.counts["mallocs"] / cands,
		"core.first_batch_ms":           stream.counts["first_batch_ns"] / float64(stream.spans) / 1e6,
		"core.stream_ns_per_record":     float64(stream.self) / records,
		"sgf.mechanism_us":              per(spanMechanism, "calls") / 1e3,
		"server.handler_us_per_request": float64(handler.self) / float64(handler.spans) / 1e3,
		"server.sink_ns_per_record":     float64(handler.self-stream.self) / records,
		"store.put_ledger_ms":           medianMs(get(spanPutLedger).selves),
		"core.loop_unexplained_pct":     100 * (loopNs - sampleNs - proberNs - walkNs) / loopNs,
		"bench.trace_overhead_pct":      100 * (float64(stream.self) - float64(rr.untraced)) / float64(rr.untraced),
		"bench.client_cpu_pct":          100 * float64(run.clientCPU) / float64(run.wall),
	}
	m["sgf.fit_unexplained_pct"] = 100 * (1 - fitPathMs(m)/(1000*median(secondsOf(run.setups))))

	// http: the client's mean synthesize latency minus sgfd's own mean for
	// the same requests, from /metrics deltas over the timed phase.
	var clientSum float64
	for _, r := range run.results {
		clientSum += float64(r.latency)
	}
	n := float64(len(run.results))
	serverMean := (run.after.synthSeconds - run.before.synthSeconds) / (run.after.synthCount - run.before.synthCount)
	m["http.us_per_request"] = (clientSum/n/1e9 - serverMean) * 1e6
	m["store.ledger_saves_per_request"] = (run.after.ledgerSaves - run.before.ledgerSaves) / n
	return m
}

// fitPathMs sums the layers sgfd runs between receiving an upload and
// serving its first record.
func fitPathMs(m map[string]float64) float64 {
	return m["dataset.read_csv_ms"] + m["sgf.fit_ms"] + m["core.scan_index_ms"] + m["store.put_ms"]
}

func secondsOf(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

// findingPct is the unexplained share above which the reconciliation
// reports a finding.
const findingPct = 10

// reconcile prints each layer's self time beside the end-to-end figure it
// should explain, with the unexplained share.
func reconcile(out io.Writer, in *inputs, rr *replayRun, run *httpRun, m map[string]float64) {
	w := in.w
	fmt.Fprintf(out, "== reconciliation: %s, seed %d, trace %s ==\n", w.Name, in.seed, rr.tr.TraceID)
	setupMs := 1000 * median(secondsOf(run.setups))
	row := func(indent int, name string, v, whole float64, unit, note string) {
		share := ""
		if whole > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*v/whole)
		}
		fmt.Fprintf(out, "  %*s%-*s %12.3f %-3s %7s  %s\n", indent, "", 34-indent, name, v, unit, share, note)
	}
	finding := func(pct float64, what string) string {
		if pct > findingPct {
			return fmt.Sprintf("FINDING: %.0f%% of %s is outside the layers", pct, what)
		}
		return ""
	}

	fmt.Fprintf(out, "fit path: setup_s median %.1f ms over HTTP (%d fits)\n", setupMs, len(run.setups))
	row(0, "dataset.ReadCSV", m["dataset.read_csv_ms"], setupMs, "ms", "")
	row(0, "sgf.Fit", m["sgf.fit_ms"], setupMs, "ms", "")
	row(2, "dataset.Dataset.SplitFrac", medianMs(rr.tr.layers()[spanSplit].selves), 0, "ms", "step of sgf.Fit")
	row(2, "backend.Backend.Fit", m["backend.fit_ms"], 0, "ms", "step of sgf.Fit")
	row(4, "bayesnet.LearnStructure", m["bayesnet.structure_ms"], 0, "ms", "inside backend.Backend.Fit")
	row(4, "bayesnet.LearnModel", m["bayesnet.params_ms"], 0, "ms", "inside backend.Backend.Fit")
	row(2, "backend.Model.Freeze", m["backend.freeze_ms"], 0, "ms", "step of sgf.Fit")
	row(0, "core.ScanTableFor", m["core.scan_index_ms"], setupMs, "ms", "")
	row(0, "store.Store.Put", m["store.put_ms"], setupMs, "ms", "")
	row(2, "sgf.FittedModel.Encode", m["sgf.snapshot_encode_ms"], 0, "ms", "inside store.Store.Put")
	row(0, "unexplained", setupMs-fitPathMs(m), setupMs, "ms", finding(m["sgf.fit_unexplained_pct"], "the fit path"))
	row(0, "sgf.DecodeFittedModel", m["sgf.snapshot_decode_ms"], 0, "ms", "warm-start path, not on this one")

	loop := m["core.loop_ns_per_cand"]
	fmt.Fprintf(out, "candidate loop: core.loop_ns_per_cand %.0f ns, one worker, %d candidates on each of %d models\n", loop, w.Cands, w.Fits)
	row(0, "backend.sample_ns_per_cand", m["backend.sample_ns_per_cand"], loop, "ns", "")
	row(0, "backend.prober_ns_per_cand", m["backend.prober_ns_per_cand"], loop, "ns", "")
	row(0, "core.walk_ns_per_cand", m["core.walk_ns_per_cand"], loop, "ns", fmt.Sprintf("%.0f seeds checked per candidate", m["core.checked_per_cand"]))
	row(0, "unexplained", loop*m["core.loop_unexplained_pct"]/100, loop, "ns", finding(m["core.loop_unexplained_pct"], "the loop"))

	var httpMean float64
	var k int
	for _, r := range run.results {
		if r.n >= len(run.results)-w.Replay && r.err == nil {
			httpMean += ms(r.latency)
			k++
		}
	}
	httpMean /= float64(k)
	handlerMs := m["server.handler_us_per_request"] / 1e3
	streamMs := m["core.stream_ns_per_record"] * float64(w.Records) / 1e6
	fmt.Fprintf(out, "requests: %d replayed; the same requests took %.3f ms each over HTTP\n", k, httpMean)
	row(0, "core.GenerateTargetStream", streamMs, httpMean, "ms", fmt.Sprintf("first batch after %.3f ms", m["core.first_batch_ms"]))
	row(0, "server sink and handler", handlerMs-streamMs, httpMean, "ms", "server.Server.ServeHTTP minus the stream")
	row(0, "http and client", httpMean-handlerMs, httpMean, "ms", fmt.Sprintf("http.us_per_request %.1f us over the whole phase", m["http.us_per_request"]))
	fmt.Fprintf(out, "tracing overhead %.2f%%; load generator CPU %.1f%% of one core; %.2f ledger saves per request\n",
		m["bench.trace_overhead_pct"], m["bench.client_cpu_pct"], m["store.ledger_saves_per_request"])
}
