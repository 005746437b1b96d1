package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/scenario"
)

// This file implements the `sgf scenarios` subcommand family — the
// conformance runner over the declarative scenario packages under
// scenarios/ (see docs/SCENARIOS.md):
//
//	sgf scenarios list  [-dir scenarios]
//	sgf scenarios run   [-dir scenarios] [-addr URL] [-key KEY] [-update] [-timeout 2m] [name...]
//	sgf scenarios bench [-dir scenarios] [-addr URL] [-key KEY] [-count 3] [-o out.json] [name...]
//
// run executes every package (or the named subset) against a live sgfd —
// an external one when -addr is given, an in-process spawn otherwise —
// runs each eval step in this process, and diffs streams and eval results
// against the checked-in goldens; -update regenerates them. bench times each package's benchmark
// definition and emits the cmd/benchjson artifact shape, so
// `benchjson compare` gates scenario benchmarks exactly like
// microbenchmarks.

// scenariosMain dispatches the scenarios subcommands and returns the
// process exit code: 0 all passed, 1 scenario failure or infrastructure
// error, 2 usage error.
func scenariosMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: sgf scenarios <list|run|bench> [flags] [scenario...]")
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		return scenariosList(rest, stdout, stderr)
	case "run":
		return scenariosRun(rest, stdout, stderr)
	case "bench":
		return scenariosBench(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "sgf scenarios: unknown subcommand %q (want list, run or bench)\n", sub)
		return 2
	}
}

// selectScenarios loads all packages under dir and filters to the named
// subset (empty = all). Unknown names are an error, not a silent skip — a
// typo must not fake a green run.
func selectScenarios(dir string, names []string, stderr io.Writer) ([]*scenario.Manifest, bool) {
	all, err := scenario.LoadAll(dir)
	if err != nil {
		fmt.Fprintln(stderr, "sgf scenarios:", err)
		return nil, false
	}
	if len(all) == 0 {
		fmt.Fprintf(stderr, "sgf scenarios: no scenario packages under %s\n", dir)
		return nil, false
	}
	if len(names) == 0 {
		return all, true
	}
	byName := make(map[string]*scenario.Manifest, len(all))
	for _, m := range all {
		byName[m.Name] = m
	}
	var out []*scenario.Manifest
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			fmt.Fprintf(stderr, "sgf scenarios: unknown scenario %q under %s\n", n, dir)
			return nil, false
		}
		out = append(out, m)
	}
	return out, true
}

// scenariosList implements `sgf scenarios list`.
func scenariosList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgf scenarios list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "scenarios", "scenario packages root directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ms, ok := selectScenarios(*dir, fs.Args(), stderr)
	if !ok {
		return 1
	}
	for _, m := range ms {
		extras := ""
		if m.Eval != nil {
			extras += " +eval"
		}
		if m.Bench != nil {
			extras += " +bench"
		}
		if m.Server != nil {
			extras += " (dedicated server)"
		}
		fmt.Fprintf(stdout, "%-24s %d synthesize step(s)%s  %s\n", m.Name, len(m.Synthesize), extras, m.Description)
	}
	return 0
}

// scenariosRun implements `sgf scenarios run`.
func scenariosRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgf scenarios run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "scenarios", "scenario packages root directory")
	addr := fs.String("addr", "", "base URL of a running sgfd (empty = spawn one in-process)")
	key := fs.String("key", "", "API key sent as a Bearer token (for -addr servers running with -keys-file)")
	update := fs.Bool("update", false, "regenerate golden files from live responses instead of diffing")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-scenario time budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ms, ok := selectScenarios(*dir, fs.Args(), stderr)
	if !ok {
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := &scenario.Runner{BaseURL: *addr, APIKey: *key, Update: *update, Timeout: *timeout}
	defer r.Close()

	failed := 0
	for _, m := range ms {
		res, err := r.Run(ctx, m)
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", m.Name, err)
			failed++
			if ctx.Err() != nil {
				break
			}
			continue
		}
		status := "ok  "
		if !res.OK() {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%s %s\n", status, m.Name)
		for _, s := range res.Steps {
			mark := "ok  "
			out := stdout
			if !s.OK {
				mark = "FAIL"
				out = stderr
			}
			fmt.Fprintf(out, "     %s %-20s %s\n", mark, s.Name, s.Detail)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "sgf scenarios run: %d of %d scenario(s) failed\n", failed, len(ms))
		return 1
	}
	fmt.Fprintf(stdout, "sgf scenarios run: %d scenario(s) passed\n", len(ms))
	return 0
}

// scenariosBench implements `sgf scenarios bench`.
func scenariosBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgf scenarios bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "scenarios", "scenario packages root directory")
	addr := fs.String("addr", "", "base URL of a running sgfd (empty = spawn one in-process)")
	key := fs.String("key", "", "API key sent as a Bearer token (for -addr servers running with -keys-file)")
	count := fs.Int("count", 3, "iterations per benchmark (minimum kept)")
	out := fs.String("o", "", "output file for the benchjson-shaped report (default stdout)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-scenario time budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ms, ok := selectScenarios(*dir, fs.Args(), stderr)
	if !ok {
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := &scenario.Runner{BaseURL: *addr, APIKey: *key, Timeout: *timeout}
	defer r.Close()

	var results []scenario.BenchResult
	for _, m := range ms {
		res, ran, err := r.Bench(ctx, m, *count)
		if err != nil {
			fmt.Fprintln(stderr, "sgf scenarios bench:", err)
			return 1
		}
		if !ran {
			continue
		}
		fmt.Fprintf(stderr, "%-40s %12.0f ns/op  %10.0f records/sec\n",
			res.Name, res.NsPerOp, res.Extra["records/sec"])
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintf(stderr, "sgf scenarios bench: no scenario under %s defines a bench section\n", *dir)
		return 1
	}
	raw, err := json.MarshalIndent(scenario.NewBenchReport(results), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "sgf scenarios bench:", err)
		return 1
	}
	raw = append(raw, '\n')
	if *out == "" {
		stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, "sgf scenarios bench:", err)
		return 1
	}
	return 0
}
