// Command deniability audits synthetic records against an input dataset:
// for each record of a candidate file it reports the plausible-seed count,
// the geometric partition of its maximum generation probability, whether
// (k, γ)-plausible deniability (Definition 1) holds, and the Theorem 1
// budget of the release parameters. It is the verification counterpart of
// cmd/sgf: a data custodian can re-check a synthetic release before
// publication, or audit one produced elsewhere.
//
// Usage:
//
//	deniability -data real.csv -meta schema.meta -candidates synth.csv \
//	    -k 50 -gamma 4 -eps0 1 -omega-lo 5 -omega-hi 11
//
// The generative model is re-learned from the data (without DP noise; the
// audit wants the sharpest probabilities), so the audit is conservative
// with respect to the model actually used for generation.
package main

import (
	"flag"
	"fmt"
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
		eps0     = flag.Float64("eps0", 1, "threshold randomization (for the Theorem 1 budget report)")
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

func run(dataPath, metaPath, candPath string, k int, gamma, eps0 float64, omegaLo, omegaHi int, maxCost float64, limit int, out *os.File) error {
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

	if b, t, ok := privacy.BestReleaseBudget(k, gamma, eps0, 1e-6); ok {
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

	pass := 0
	var probe core.Probe
	for i := 0; i < n; i++ {
		y := cands.Row(i)
		syn.Probe(y, &probe)
		// Best-seed probability and partition.
		best := 0.0
		for _, d := range data.Rows() {
			if p := probe.Prob(d); p > best {
				best = p
			}
		}
		part, ok := core.PartitionIndex(best, gamma)
		partStr := "-"
		plausible := 0
		if ok {
			partStr = fmt.Sprint(part)
			plausible = core.CountPlausibleSeeds(syn, data, y, best, gamma)
		}
		// Definition 1 with the best seed as d1 (the most favorable case).
		deniable := false
		if best > 0 {
			for _, d := range data.Rows() {
				if probe.Prob(d) == best {
					deniable = core.IsPlausiblyDeniable(syn, data, d, y, k, gamma)
					break
				}
			}
		}
		if deniable {
			pass++
		}
		fmt.Fprintf(out, "%-6d %-12.3e %-10s %-10d %v\n", i, best, partStr, plausible, deniable)
	}
	fmt.Fprintf(out, "\n%d/%d audited records satisfy (k=%d, gamma=%g)-plausible deniability\n", pass, n, k, gamma)
	return nil
}
