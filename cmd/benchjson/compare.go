package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// This file implements `benchjson compare`: the CI regression gate that
// diffs a fresh benchmark run against the checked-in bench/baseline.json
// and fails when any benchmark slowed past the threshold.
//
//	benchjson compare [-threshold 15] [-min-ms 10] [-alloc-threshold 25] baseline.json latest.json
//
// Matching is GOMAXPROCS-suffix-insensitive ("BenchmarkX-8" and
// "BenchmarkX-4" are the same benchmark), so a baseline recorded on one
// runner shape still gates runs on another. Benchmarks below the -min-ms
// noise floor in both runs are reported but never gate on time — timings
// of trivially short work are coin flips, and a gate that cries wolf gets
// deleted. Several baseline benchmarks sit under the default 10 ms floor
// (the core generation benchmarks among them), so their time is not gated
// while both runs stay under it; a benchmark gates as soon as either side
// reaches the floor, so one that slows back past it still fails. To
// refresh the baseline after an intentional change, copy a trusted run's
// BENCH_*.json over bench/baseline.json (see .github/workflows/ci.yml).
//
// Because the baseline and the fresh run rarely execute on identical
// hardware, the gate is self-calibrating by default: every benchmark's
// new/old ratio is divided by the run's median ratio before thresholding.
// A runner that is uniformly 30% slower than the baseline machine shifts
// every ratio equally and cancels out; one benchmark that regressed stands
// out against the rest. The cost is that a change slowing *every*
// benchmark by the same factor is invisible to the normalized gate —
// -normalize=false restores absolute comparison for same-machine runs.
//
// Runs recorded with -benchmem additionally gate on allocs/op. Allocation
// counts are machine-independent (the same binary allocates the same way
// everywhere), so the alloc gate never normalizes and tolerates a laxer
// threshold only because goroutine scheduling can shift a handful of
// allocations between ops; benchmarks under minGatingAllocs on both sides
// never alloc-gate for the same reason the time floor exists.

// Delta is one benchmark's baseline/latest comparison.
type Delta struct {
	// Name is the suffix-stripped benchmark name.
	Name string
	// OldNs/NewNs are ns/op in the baseline and the fresh run.
	OldNs, NewNs float64
	// Pct is the raw relative change in percent (positive = slower).
	Pct float64
	// GatePct is the change the gate thresholds on: Pct normalized by the
	// run's median ratio (equal to Pct when normalization is off or the
	// run has too few benchmarks to estimate a median).
	GatePct float64
	// Gating is false for benchmarks under the noise floor in both runs.
	Gating bool
	// OldAllocs/NewAllocs are allocs/op in the baseline and the fresh run
	// (zero when either run lacked -benchmem).
	OldAllocs, NewAllocs int64
	// AllocPct is the relative allocs/op change in percent. Allocation
	// counts are machine-independent, so there is no normalized variant.
	AllocPct float64
	// AllocGating is false when either side lacks allocation data or both
	// sides sit under the minGatingAllocs floor.
	AllocGating bool
}

// Comparison is the full outcome of diffing two reports.
type Comparison struct {
	Deltas []Delta
	// MedianRatio is the median new/old ratio across gating benchmarks —
	// the machine-speed calibration factor (1 when normalization is off).
	MedianRatio float64
	// MissingInLatest lists baseline benchmarks the fresh run lacks —
	// loudly, so a silently vanished benchmark cannot fake a green gate.
	MissingInLatest []string
	// NewInLatest lists fresh benchmarks the baseline lacks (informational;
	// they start gating once the baseline is refreshed).
	NewInLatest []string
}

// Regressions returns the gating deltas slower than thresholdPct.
func (c *Comparison) Regressions(thresholdPct float64) []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Gating && d.GatePct > thresholdPct {
			out = append(out, d)
		}
	}
	return out
}

// AllocRegressions returns the alloc-gating deltas whose allocs/op grew
// past thresholdPct.
func (c *Comparison) AllocRegressions(thresholdPct float64) []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.AllocGating && d.AllocPct > thresholdPct {
			out = append(out, d)
		}
	}
	return out
}

// procSuffix matches the "-<GOMAXPROCS>" tail go test appends to benchmark
// names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// normalizeName strips the GOMAXPROCS suffix so baselines transfer across
// runner shapes.
func normalizeName(name string) string {
	return procSuffix.ReplaceAllString(name, "")
}

// minNormalized is the smallest gating-benchmark count worth estimating a
// median machine-speed factor from; below it the raw ratios gate directly.
const minNormalized = 3

// minGatingAllocs is the allocation noise floor: a benchmark alloc-gates
// only if at least one side allocates this often per op. Below it, a couple
// of allocations shifted by goroutine scheduling would swing the percentage
// wildly.
const minGatingAllocs = 100

// minByName collapses repeated benchmark entries (a -count=N run emits N
// lines per benchmark) to the per-name minimum ns/op — the standard robust
// timing estimator: contention can only slow an iteration down, so the
// minimum is the run least disturbed by noisy neighbours. Allocs/op is
// min-collapsed independently: a background timer firing mid-op can only
// add allocations, never remove them.
func minByName(results []Result) map[string]Result {
	m := make(map[string]Result, len(results))
	for _, r := range results {
		name := normalizeName(r.Name)
		prev, ok := m[name]
		if !ok {
			m[name] = r
			continue
		}
		allocs := min(prev.AllocsPerOp, r.AllocsPerOp)
		if r.NsPerOp < prev.NsPerOp {
			prev = r
		}
		prev.AllocsPerOp = allocs
		m[name] = prev
	}
	return m
}

// minByNameOrdered is minByName keeping the first-appearance order, so the
// comparison output follows the run's own benchmark order before sorting.
func minByNameOrdered(results []Result) []Result {
	mins := minByName(results)
	seen := make(map[string]bool, len(mins))
	out := make([]Result, 0, len(mins))
	for _, r := range results {
		name := normalizeName(r.Name)
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, mins[name])
	}
	return out
}

// Compare diffs latest against baseline, each collapsed to per-benchmark
// minimum ns/op first (run both sides with -count=N to make the gate
// robust to load spikes). minNs is the noise floor: a benchmark gates only
// if at least one side spent minNs or more per op. With normalize set (and
// at least minNormalized gating benchmarks) the thresholded change is
// measured against the run's median ratio, not against 1 — see the file
// comment.
func Compare(baseline, latest []Result, minNs float64, normalize bool) *Comparison {
	base := minByName(baseline)
	seen := make(map[string]bool, len(latest))
	c := &Comparison{MedianRatio: 1}
	for _, r := range minByNameOrdered(latest) {
		// One entry per normalized name here (minByNameOrdered collapsed
		// duplicates); seen feeds the MissingInLatest sweep below.
		name := normalizeName(r.Name)
		seen[name] = true
		old, ok := base[name]
		if !ok {
			c.NewInLatest = append(c.NewInLatest, name)
			continue
		}
		d := Delta{
			Name:      name,
			OldNs:     old.NsPerOp,
			NewNs:     r.NsPerOp,
			Gating:    (old.NsPerOp >= minNs || r.NsPerOp >= minNs) && old.NsPerOp > 0,
			OldAllocs: old.AllocsPerOp,
			NewAllocs: r.AllocsPerOp,
		}
		if old.NsPerOp > 0 {
			d.Pct = (r.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		}
		d.GatePct = d.Pct
		if old.AllocsPerOp > 0 && r.AllocsPerOp > 0 {
			d.AllocPct = float64(r.AllocsPerOp-old.AllocsPerOp) / float64(old.AllocsPerOp) * 100
			d.AllocGating = old.AllocsPerOp >= minGatingAllocs || r.AllocsPerOp >= minGatingAllocs
		}
		c.Deltas = append(c.Deltas, d)
	}
	for name := range base {
		if !seen[name] {
			c.MissingInLatest = append(c.MissingInLatest, name)
		}
	}

	var ratios []float64
	for _, d := range c.Deltas {
		if d.Gating {
			ratios = append(ratios, d.NewNs/d.OldNs)
		}
	}
	if normalize && len(ratios) >= minNormalized {
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		if median > 0 {
			c.MedianRatio = median
			for i := range c.Deltas {
				d := &c.Deltas[i]
				if d.OldNs > 0 {
					d.GatePct = (d.NewNs/d.OldNs/median - 1) * 100
				}
			}
		}
	}

	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].GatePct > c.Deltas[j].GatePct })
	sort.Strings(c.MissingInLatest)
	sort.Strings(c.NewInLatest)
	return c
}

// readReport loads a benchjson artifact (or baseline) from disk.
func readReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s contains no benchmarks", path)
	}
	return rep, nil
}

// runCompare is the `compare` subcommand entry point. It returns the
// process exit code.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 15, "fail when any benchmark is this many percent slower than the baseline")
	minMs := fs.Float64("min-ms", 10, "noise floor: benchmarks under this many ms/op in both runs never gate")
	normalize := fs.Bool("normalize", true, "divide every ratio by the run's median ratio first, cancelling uniform machine-speed differences")
	allocThreshold := fs.Float64("alloc-threshold", 25, "fail when any benchmark allocates this many percent more per op than the baseline")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchjson compare [-threshold pct] [-min-ms ms] [-alloc-threshold pct] [-normalize=false] baseline.json latest.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	baseline, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson compare:", err)
		return 2
	}
	latest, err := readReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson compare:", err)
		return 2
	}

	c := Compare(baseline.Benchmarks, latest.Benchmarks, *minMs*1e6, *normalize)
	if c.MedianRatio != 1 {
		fmt.Fprintf(stdout, "median new/old ratio %.3f (machine-speed factor; gating on deviation from it)\n", c.MedianRatio)
	}
	for _, d := range c.Deltas {
		tag := ""
		if !d.Gating {
			tag = "  (below noise floor, not gating)"
		}
		allocs := ""
		if d.OldAllocs > 0 && d.NewAllocs > 0 {
			allocs = fmt.Sprintf("  %8d -> %8d allocs/op (%+.1f%%)", d.OldAllocs, d.NewAllocs, d.AllocPct)
		}
		fmt.Fprintf(stdout, "%-48s %14.0f ns/op -> %14.0f ns/op  raw %+7.1f%%  gate %+7.1f%%%s%s\n",
			d.Name, d.OldNs, d.NewNs, d.Pct, d.GatePct, allocs, tag)
	}
	for _, name := range c.NewInLatest {
		fmt.Fprintf(stdout, "%-48s new — not in baseline, not gating (refresh bench/baseline.json to gate it)\n", name)
	}

	failed := false
	if regs := c.Regressions(*threshold); len(regs) > 0 {
		failed = true
		fmt.Fprintf(stderr, "benchjson compare: %d benchmark(s) regressed more than %.0f%% vs %s:\n",
			len(regs), *threshold, fs.Arg(0))
		for _, d := range regs {
			fmt.Fprintf(stderr, "  %s: %.0f ns/op -> %.0f ns/op (raw %+.1f%%, gate %+.1f%%)\n",
				d.Name, d.OldNs, d.NewNs, d.Pct, d.GatePct)
		}
	}
	if regs := c.AllocRegressions(*allocThreshold); len(regs) > 0 {
		failed = true
		fmt.Fprintf(stderr, "benchjson compare: %d benchmark(s) allocate more than %.0f%% more per op vs %s:\n",
			len(regs), *allocThreshold, fs.Arg(0))
		for _, d := range regs {
			fmt.Fprintf(stderr, "  %s: %d allocs/op -> %d allocs/op (%+.1f%%)\n",
				d.Name, d.OldAllocs, d.NewAllocs, d.AllocPct)
		}
	}
	if len(c.MissingInLatest) > 0 {
		failed = true
		fmt.Fprintf(stderr, "benchjson compare: %d baseline benchmark(s) missing from the fresh run: %v\n",
			len(c.MissingInLatest), c.MissingInLatest)
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "benchjson compare: %d benchmark(s) within %.0f%% of baseline\n", len(c.Deltas), *threshold)
	return 0
}
