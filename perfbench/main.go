// Command perfbench is the repository's benchmark. It builds sgfd from the
// tree under test, starts it, drives one seeded workload against it over
// loopback HTTP, checks every response, and prints the end-to-end metrics
// as the last line of its output. With -trace 1 it also replays the
// workload in-process, times the public call into each layer, prints a
// reconciliation of the layers against the end-to-end figures, and reports
// the per-layer metrics instead.
//
// Run it from the root of the repository through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-bayesnet --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --smoke
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the root of
// the checkout.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-bayesnet or small-requests")
		seed    = flag.Uint64("seed", 1, "workload seed: the upload rows and every request seed derive from it")
		seconds = flag.Int("seconds", 45, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 replays the workload in-process with spans and reports the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload at tiny sizes, traced, and check the harness against BENCHMARK.json")
	)
	flag.Parse()
	stopOnSignal()
	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: smoke passed")
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	out, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := out.json(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// outcome is one run's result.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	perLayer  map[string]float64 // traced runs only
}

// json renders the result line with every end-to-end metric, or with
// perLayer set every per-layer one, each with its unit.
func (o *outcome) json(perLayer bool) (string, error) {
	defs, values := endToEndMetrics, o.endToEnd
	if perLayer {
		defs, values = perLayerMetrics, o.perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 0) {
			// Only failed requests make a latency infinite; the run is
			// already marked incorrect.
			v = math.Copysign(math.MaxFloat64, v)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, out})
	return string(raw), err
}

// measure runs one workload: a fresh sgfd and store, the HTTP phase, the
// output check, and with traced set the in-process replay.
func measure(w workload, seed uint64, seconds time.Duration, traced bool) (*outcome, error) {
	runDir, err := filepath.Abs(filepath.Join(buildDir, "runs", fmt.Sprintf("%s-seed%d-trace%v", w.Name, seed, traced)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildSgfd(buildDir)
	if err != nil {
		return nil, err
	}
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}

	client := newClient()
	defer client.CloseIdleConnections()
	s, err := startSgfd(client, bin, runDir)
	if err != nil {
		return nil, err
	}
	setCurrent(s)
	run, err := runHTTP(client, s, in, seconds)
	s.stop()
	setCurrent(nil)
	if err != nil {
		return nil, err
	}

	// The untimed request counts among those attempted, and fails if its
	// bytes differ from the in-process reference.
	o := &outcome{attempted: 1 + len(run.results), failed: run.failed}
	if err := checkOutput(in, run.warmup); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check on the untimed request:", err)
		o.failed++
	}
	for _, r := range run.results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %v\n", r.n, r.err)
		}
	}
	o.correct = o.failed == 0
	o.endToEnd = run.endToEnd()
	fmt.Printf("%s seed %d: %d timed requests over %.2f s, %d of %d requests failed; sgfd CPU %.2f s; load generator CPU %.1f%% of one core\n",
		w.Name, seed, len(run.results), run.wall.Seconds(), o.failed, o.attempted, run.sgfdCPU.Seconds(),
		100*run.clientCPU.Seconds()/run.wall.Seconds())
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-20s %14.4f %s\n", d.Name, o.endToEnd[d.Name], d.Unit)
	}

	if traced {
		rr, err := replay(in, len(run.results), runDir)
		if err != nil {
			return nil, err
		}
		if err := rr.tr.write(filepath.Join(runDir, "trace.json")); err != nil {
			return nil, err
		}
		o.perLayer = perLayer(rr, run)
		reconcile(os.Stdout, in, rr, run, o.perLayer)
		for _, d := range perLayerMetrics {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, o.perLayer[d.Name], d.Unit)
		}
	}
	if err := os.RemoveAll(filepath.Join(runDir, "stores")); err != nil {
		return nil, err
	}
	return o, nil
}

// current is the running sgfd, stopped if the harness is interrupted.
var (
	currentMu sync.Mutex
	current   *sgfd
)

func setCurrent(s *sgfd) {
	currentMu.Lock()
	current = s
	currentMu.Unlock()
}

func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		currentMu.Lock()
		if current != nil {
			current.stop()
		}
		os.Exit(1)
	}()
}
