// Command deniability audits synthetic records against an input dataset:
// for each record of a candidate file it reports the plausible-seed count,
// the geometric partition of its maximum generation probability, whether
// (k, γ)-plausible deniability (Definition 1) holds, and the Theorem 1
// budget of the release parameters (none for -eps0 0, the deterministic
// test, as in cmd/sgf). It is the verification counterpart of cmd/sgf: a
// data custodian can re-check a synthetic release before publication, or
// audit one produced elsewhere.
//
// Usage:
//
//	deniability -data real.csv -meta schema.meta -candidates synth.csv \
//	    -k 50 -gamma 4 -eps0 1 -omega-lo 5 -omega-hi 11
//
// The generative model is re-learned from the data (without DP noise; the
// audit wants the sharpest probabilities), so the audit is conservative
// with respect to the model actually used for generation. Each record is
// priced against the input rows through the generation kernel's sorted
// seed table (core.ScanTable.SeedProbs), in O(m log n) rather than one
// pass over the rows per quantity reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	sgf "repro"
	"repro/internal/bayesnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
)

func main() {
	var (
		dataPath = flag.String("data", "", "input (real) CSV file (required)")
		metaPath = flag.String("meta", "", "metadata spec file (required)")
		candPath = flag.String("candidates", "", "candidate synthetic CSV file (required)")
		k        = flag.Int("k", 50, "plausible deniability parameter k")
		gamma    = flag.Float64("gamma", 4, "indistinguishability parameter gamma")
		eps0     = flag.Float64("eps0", 1, "threshold randomization (for the Theorem 1 budget report; 0 = deterministic test)")
		omegaLo  = flag.Int("omega-lo", 5, "minimum re-sampled attributes assumed for generation")
		omegaHi  = flag.Int("omega-hi", 11, "maximum re-sampled attributes assumed for generation")
		maxCost  = flag.Float64("maxcost", 128, "parent-set complexity cap for the audit model")
		limit    = flag.Int("limit", 20, "audit at most this many candidate records (0 = all)")
	)
	flag.Parse()
	if *dataPath == "" || *metaPath == "" || *candPath == "" {
		fmt.Fprintln(os.Stderr, "deniability: -data, -meta and -candidates are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dataPath, *metaPath, *candPath, *k, *gamma, *eps0, *omegaLo, *omegaHi, *maxCost, *limit, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deniability:", err)
		os.Exit(1)
	}
}

func run(dataPath, metaPath, candPath string, k int, gamma, eps0 float64, omegaLo, omegaHi int, maxCost float64, limit int, out io.Writer) error {
	if err := (core.TestConfig{K: k, Gamma: gamma}).Validate(); err != nil {
		name := "-gamma"
		if k < 1 {
			name = "-k"
		}
		return fmt.Errorf("invalid %s: %w", name, err)
	}
	if !(eps0 >= 0) {
		return fmt.Errorf("invalid -eps0: need eps0 >= 0, got %g", eps0)
	}
	mf, err := os.Open(metaPath)
	if err != nil {
		return err
	}
	meta, err := dataset.ReadSpec(mf)
	mf.Close()
	if err != nil {
		return err
	}
	df, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	data, _, err := dataset.ReadCSV(df, meta)
	df.Close()
	if err != nil {
		return err
	}
	cf, err := os.Open(candPath)
	if err != nil {
		return err
	}
	cands, _, err := dataset.ReadCSV(cf, meta)
	cf.Close()
	if err != nil {
		return err
	}
	if data.Len() < k {
		return fmt.Errorf("dataset has %d records, need at least k=%d", data.Len(), k)
	}

	// Audit model: un-noised, learned on the full dataset.
	bkt := dataset.NewBucketizer(meta)
	st, err := sgf.LearnStructure(data, bkt, sgf.StructureConfig{MaxCost: maxCost, MinCorr: 0.01})
	if err != nil {
		return err
	}
	model, err := bayesnet.LearnModel(data, bkt, st, bayesnet.ModelConfig{Alpha: 1})
	if err != nil {
		return err
	}
	syn, err := core.NewSeedSynthesizer(model, omegaLo, omegaHi)
	if err != nil {
		return err
	}

	if eps0 == 0 {
		fmt.Fprintf(out, "release parameters: k=%d gamma=%g eps0=0 -> deterministic test, no Theorem 1 budget\n", k, gamma)
	} else if b, t, ok := privacy.BestReleaseBudget(k, gamma, eps0, 1e-6); ok {
		fmt.Fprintf(out, "release parameters: k=%d gamma=%g eps0=%g -> per-record %v (t=%d) by Theorem 1\n",
			k, gamma, eps0, b, t)
	} else {
		fmt.Fprintf(out, "release parameters: k=%d gamma=%g eps0=%g -> no t achieves delta<=1e-6\n", k, gamma, eps0)
	}

	n := cands.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	fmt.Fprintf(out, "auditing %d of %d candidate records against %d input records\n\n", n, cands.Len(), data.Len())
	fmt.Fprintf(out, "%-6s %-12s %-10s %-10s %s\n", "record", "maxProb", "partition", "plausible", "deniable(k,gamma)")

	table := core.ScanTableFor(syn, data)
	var probe core.Probe
	var probs []core.SeedProb
	pass := 0
	for i := 0; i < n; i++ {
		syn.Probe(cands.Row(i), &probe)
		probs = table.SeedProbs(&probe, probs)
		// Best-seed probability and partition.
		best := probs[len(probs)-1].P
		part, ok := core.PartitionIndex(best, gamma)
		partStr := "-"
		if ok {
			partStr = fmt.Sprint(part)
		}
		// plausible counts the possible seeds in best's partition; window
		// counts those within a factor γ of best, which is Definition 1's
		// largest window when d1 is a most likely seed (the most favorable
		// case).
		plausible, window := 0, 0
		for _, e := range probs {
			if e.P <= 0 {
				continue
			}
			if j, _ := core.PartitionIndex(e.P, gamma); j == part {
				plausible += e.Seeds
			}
			if best <= gamma*e.P {
				window += e.Seeds
			}
		}
		deniable := best > 0 && window >= k
		if deniable {
			pass++
		}
		fmt.Fprintf(out, "%-6d %-12.3e %-10s %-10d %v\n", i, best, partStr, plausible, deniable)
	}
	fmt.Fprintf(out, "\n%d/%d audited records satisfy (k=%d, gamma=%g)-plausible deniability\n", pass, n, k, gamma)
	return nil
}
