package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// AttackResult reports the seed-inference experiment: a maximum-likelihood
// adversary who knows the input dataset, the model, and the synthesis
// parameters tries to identify the seed of each candidate synthetic.
//
// This is the empirical counterpart of plausible deniability: for a
// released record with k' plausible seeds of equal generation probability,
// the best possible guess succeeds with probability ≤ 1/k'. Records the
// privacy test rejects are exactly those with few plausible seeds, so the
// adversary should do markedly better on them — quantifying what the test
// protects against (cf. the inference-based risk assessments of Reiter et
// al. discussed in §7).
type AttackResult struct {
	// Candidates is the number of candidate synthetics probed.
	Candidates int
	// Released / Rejected are the per-group candidate counts.
	Released, Rejected int
	// SuccessReleased is the adversary's expected success rate on records
	// that passed the privacy test.
	SuccessReleased float64
	// SuccessRejected is the success rate on records the test rejected
	// (these are never published; the rate shows what the test prevented).
	SuccessRejected float64
	// BoundReleased is the plausible-deniability bound 1/k for the test's
	// k parameter.
	BoundReleased float64
}

// Render formats the attack outcome.
func (r *AttackResult) Render() string {
	return fmt.Sprintf(
		"Seed-inference attack (%d candidates)\n"+
			"released  %5d records: ML-adversary success %.4f (PD bound 1/k = %.4f)\n"+
			"rejected  %5d records: ML-adversary success %.4f\n",
		r.Candidates, r.Released, r.SuccessReleased, r.BoundReleased,
		r.Rejected, r.SuccessRejected)
}

// RunSeedInference generates `candidates` synthetics with the given ω
// variant, runs the (deterministic) privacy test on each, and plays the
// maximum-likelihood seed-identification game against both groups. The
// adversary computes Pr{y = M(d)} for every record d of the seed dataset
// and guesses uniformly among the maximizers; its expected success on a
// candidate is [seed ∈ argmax] / |argmax|. ctx is honoured between
// candidates.
func RunSeedInference(ctx context.Context, p *Pipeline, om OmegaSpec, candidates int) (*AttackResult, error) {
	if candidates <= 0 {
		candidates = 300
	}
	syn, err := core.NewSeedSynthesizer(p.Model, om.Lo, om.Hi)
	if err != nil {
		return nil, err
	}
	cfg := core.TestConfig{
		K:     p.Cfg.K,
		Gamma: p.Cfg.Gamma,
		// No early exits: the adversary sees everything, so the defender's
		// accounting should too.
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(p.Cfg.Seed + 0xa77ac)
	res := &AttackResult{Candidates: candidates, BoundReleased: 1 / float64(p.Cfg.K)}

	var sumReleased, sumRejected float64
	var probe core.Probe
	y := make(dataset.Record, len(p.DS.Meta.Attrs))
	for i := 0; i < candidates; i++ {
		if i%32 == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
		}
		seedIdx := r.Intn(p.DS.Len())
		seed := p.DS.Row(seedIdx)
		syn.GenerateInto(y, seed, r)

		test, err := core.RunTest(syn, p.DS, seed, y, cfg, r)
		if err != nil {
			return nil, err
		}

		// Maximum-likelihood adversary.
		syn.Probe(y, &probe)
		best := -1.0
		bestCount := 0
		seedInBest := false
		for j := 0; j < p.DS.Len(); j++ {
			q := probe.Prob(p.DS.Row(j))
			switch {
			case q > best:
				best, bestCount = q, 1
				seedInBest = j == seedIdx
			case q == best:
				bestCount++
				if j == seedIdx {
					seedInBest = true
				}
			}
		}
		success := 0.0
		if seedInBest && bestCount > 0 {
			success = 1 / float64(bestCount)
		}
		if test.Pass {
			res.Released++
			sumReleased += success
		} else {
			res.Rejected++
			sumRejected += success
		}
	}
	if res.Released > 0 {
		res.SuccessReleased = sumReleased / float64(res.Released)
	}
	if res.Rejected > 0 {
		res.SuccessRejected = sumRejected / float64(res.Rejected)
	}
	return res, nil
}
