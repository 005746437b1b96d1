package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runSmoke checks the harness against BENCHMARK.json, then runs every
// workload end to end at tiny sizes, traced, and fails on any incorrect
// response or unmeasured metric.
func runSmoke() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEndMetrics); err != nil {
		return err
	}
	if err := sameMetrics("per_layer", bf.PerLayer, perLayerMetrics); err != nil {
		return err
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, ok := lookupWorkload(bw.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is unknown to the harness", bw.Name)
		}
		sent, err := sentTag(w)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(bw.Why, " "+sent) {
			return fmt.Errorf("workload %s sends %s, but BENCHMARK.json records %q", w.Name, sent, bw.Why)
		}
	}

	for _, w := range workloads {
		o, err := measure(w.smoke(), 1, time.Second, true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if !o.correct || o.failed != 0 || o.attempted == 0 {
			return fmt.Errorf("%s: %d of %d requests failed", w.Name, o.failed, o.attempted)
		}
		for _, perLayer := range []bool{false, true} {
			if _, err := o.json(perLayer); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		for _, d := range endToEndMetrics {
			if v := o.endToEnd[d.Name]; !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: %s = %g, want a positive finite value", w.Name, d.Name, v)
			}
		}
	}
	return nil
}

func sameMetrics(key string, got, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, the harness reports %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %+v, the harness reports %+v", key, i, got[i], want[i])
		}
	}
	return nil
}

// sentTag renders the parameters the workload's fit and synthesize bodies
// actually carry, decoded back from the bytes sgfd would receive, in the
// tag form BENCHMARK.json records.
func sentTag(w workload) (string, error) {
	in := &inputs{w: w, csv: []string{""}, metaJSON: json.RawMessage("{}")}
	rawFit, err := in.fitBody(0)
	if err != nil {
		return "", err
	}
	rawSynth, err := json.Marshal(w.synthBody(w.Records, 0))
	if err != nil {
		return "", err
	}
	var f fitBody
	var s synthBody
	if err := json.Unmarshal(rawFit, &f); err != nil {
		return "", err
	}
	if err := json.Unmarshal(rawSynth, &s); err != nil {
		return "", err
	}
	var extra map[string]any
	if err := json.Unmarshal(rawSynth, &extra); err != nil {
		return "", err
	}
	if _, ok := extra["workers"]; ok {
		return "", fmt.Errorf("workload %s sends a workers field", w.Name)
	}
	if s.MaxCandidates != 100*s.Records || s.MaxPlausible != 0 || s.MaxCheckPlausible != 0 || s.Releases != 1 {
		return "", fmt.Errorf("workload %s sends unexpected request limits %+v", w.Name, s)
	}
	got := workload{
		Rows: w.Rows, Backend: f.Backend, ModelEps: f.ModelEps, ModelDelta: f.ModelDelta,
		MaxCost: f.MaxCost, Fits: w.Fits, Clients: w.Clients, Records: s.Records, K: s.K,
		Gamma: s.Gamma, Eps0: s.Eps0, OmegaLo: s.OmegaLo, OmegaHi: s.OmegaHi,
	}
	return got.tag(), nil
}
