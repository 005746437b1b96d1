// Command experiments regenerates every table and figure of the paper's
// evaluation (§6): Figures 1–6 and Tables 2–5, printed as text tables and
// optionally written to a report file. It drives eval.RunSuite — the same
// code path the eval step of the scenario runner executes — so the CLI
// report and the scenario goldens can never drift. Workload size is
// configurable; the defaults run in a few minutes on a laptop, -quick in
// well under one. SIGINT stops the run at the next section boundary.
//
// Usage:
//
//	experiments [-n 250000] [-synth 20000] [-seed 1] [-out report.txt] [-quick]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/eval"
)

func main() {
	var (
		n        = flag.Int("n", 250000, "simulated clean records")
		synth    = flag.Int("synth", 20000, "synthetic records per omega variant")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("out", "", "also write the report to this file")
		quick    = flag.Bool("quick", false, "small fast run (n=40000, synth=3000)")
		reps     = flag.Int("reps", 3, "noise repetitions for Fig. 1 and runs for Table 3")
		sections = flag.String("sections", "", "comma-separated report sections to run (empty = all)")
	)
	flag.Parse()
	if *quick {
		*n, *synth = 40000, 3000
	}

	cfg := eval.DefaultSuiteConfig(*n, *seed)
	cfg.SynthPerVariant = *synth
	cfg.Reps = *reps
	if *sections != "" {
		cfg.Sections = strings.Split(*sections, ",")
	}

	// SIGINT/SIGTERM cancel the suite's context: the drivers notice at the
	// next loop boundary and the run exits promptly instead of completing
	// §6 for nobody.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, *out); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the suite and writes the rendered report to stdout (and
// outPath when given). Progress goes to stderr so a redirected report stays
// clean. The report file is created up front, so a bad path fails before
// hours of evaluation, not after.
func run(ctx context.Context, cfg eval.SuiteConfig, outPath string) error {
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	progress := log.New(os.Stderr, "", log.LstdFlags)
	progress.Printf("n=%d synth-per-variant=%d seed=%d GOMAXPROCS=%d",
		cfg.N, cfg.SynthPerVariant, cfg.Seed, runtime.GOMAXPROCS(0))

	res, err := eval.RunSuite(ctx, cfg, func(stage string, frac float64) {
		progress.Printf("[%3.0f%%] %s", 100*frac, stage)
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, res.Render())
	return err
}
