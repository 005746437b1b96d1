package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// plausibleEval is the per-record oracle of the seed synthesizer's count:
// it reports whether the record is a plausible seed under the partition
// memo the state currently holds.
func (ps *Probe) plausibleEval(d dataset.Record) bool {
	j := ps.agreeBucket(d)
	return j >= 0 && ps.match[j]
}

// cloneSeeds is a maximally duplicate-heavy seed set: n copies of one record.
func cloneSeeds(model *bayesnet.Model, n int, seed uint64) *dataset.Dataset {
	rec := model.SampleRecord(rng.New(seed))
	ds := dataset.New(model.Meta)
	for i := 0; i < n; i++ {
		ds.Append(rec.Clone())
	}
	return ds
}

// TestExactCountMatchesPerRecord pins the sorted table's bucket-sum count
// to the per-record plausibleEval count over every row, and its walk, full
// and capped, to a per-record walk in the same visit order. It covers
// duplicate-heavy seed sets (a 12-record universe, and n clones of one
// record), tiny n, ω ranges whose agreement buckets reach σ-position 0
// (loIdx = 0) and m−1 (hiIdx = m−1), and partition memos that are the
// candidate's actual one, empty, all-true, non-contiguous and random.
func TestExactCountMatchesPerRecord(t *testing.T) {
	r := rng.New(80)
	for _, mc := range []struct {
		name  string
		model *bayesnet.Model
	}{{"tiny", tinyModel(t, 81)}, {"wide", benchModel(t, 82)}} {
		model := mc.model
		m := len(model.Meta.Attrs)
		omegas := [][2]int{{1, m}, {1, 1}, {m, m}, {2, m - 1}, {1, m - 1}, {2, m}}
		for _, n := range []int{1, 2, 3, 64, 97} {
			for _, sk := range []string{"sampled", "clones"} {
				seeds := tinySeeds(t, model, n, uint64(n))
				if sk == "clones" {
					seeds = cloneSeeds(model, n, uint64(n))
				}
				st := NewScanTable(seeds, model.Struct.Order)
				for _, om := range omegas {
					syn, err := NewSeedSynthesizer(model, om[0], om[1])
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s n=%d %s ω=%v", mc.name, n, sk, om)
					checkExactCount(t, tag, syn, seeds, st, r)
				}
			}
		}
	}
}

// checkExactCount compares the exact count with the per-record oracle for
// a handful of candidates under every memo shape.
func checkExactCount(t *testing.T, tag string, syn *SeedSynthesizer, seeds *dataset.Dataset, st *ScanTable, r *rng.RNG) {
	t.Helper()
	n := seeds.Len()
	var ps Probe
	for trial := 0; trial < 12; trial++ {
		// Candidates generated from a seed share long σ-prefixes with the
		// seed set; uniformly random ones mostly share none.
		seed := seeds.Row(r.Intn(n))
		y := generate(syn, seed, r)
		if trial%3 == 2 {
			for a := range y {
				y[a] = uint16(r.Intn(syn.Model.Meta.Attrs[a].Card()))
			}
		}
		syn.Probe(y, &ps)
		part, ok := PartitionIndex(ps.Prob(seed), 4)
		if !ok {
			part = 0
		}
		ps.initPartitions(part, math.Log(4))
		actual := append([]bool(nil), ps.match...)
		b := len(actual)
		empty, all, alternating, random := make([]bool, b), make([]bool, b), make([]bool, b), make([]bool, b)
		// No seed falls below bucket loIdx, so the memo is false there.
		for j := ps.loIdx; j < b; j++ {
			all[j], alternating[j], random[j] = true, j%2 == 0, r.Bool(0.5)
		}
		for _, mc := range []struct {
			name string
			memo []bool
		}{{"actual", actual}, {"empty", empty}, {"all", all}, {"alternating", alternating}, {"random", random}} {
			name, memo := mc.name, mc.memo
			copy(ps.match, memo)
			want := 0
			for _, d := range seeds.Rows() {
				if ps.plausibleEval(d) {
					want++
				}
			}
			if got := st.countPlausible(&ps); got != want {
				t.Fatalf("%s y=%v memo %s %v: exact count %d, per-record count %d", tag, y, name, memo, got, want)
			}
			start, stride := r.Intn(n), coprimeStride(1+r.Intn(n), n)
			checked, count := st.walk(&ps, n, math.MaxInt, start, stride)
			if checked != n || count != want {
				t.Fatalf("%s y=%v memo %s: full walk checked %d and counted %d, want %d and %d", tag, y, name, checked, count, n, want)
			}
			// Capped and early-stopping walks against the per-record walk
			// in the same visit order.
			maxCheck, breakAt := 1+r.Intn(n), 1+r.Intn(n)
			checked, count = st.walk(&ps, maxCheck, breakAt, start, stride)
			wantChecked, wantCount := 0, 0
			for idx := start; wantChecked < maxCheck; idx = (idx + stride) % n {
				wantChecked++
				if ps.plausibleEval(seeds.Row(idx)) {
					wantCount++
					if wantCount >= breakAt {
						break
					}
				}
			}
			if checked != wantChecked || count != wantCount {
				t.Fatalf("%s y=%v memo %s: walk(maxCheck=%d, breakAt=%d) checked %d and counted %d, want %d and %d",
					tag, y, name, maxCheck, breakAt, checked, count, wantChecked, wantCount)
			}
		}
	}
}

// TestScanTableSorted pins the table's layout: rows sorted in σ order, and
// rank mapping every seed to a row holding exactly its σ-ordered values.
func TestScanTableSorted(t *testing.T) {
	model := benchModel(t, 83)
	seeds := tinySeeds(t, model, 500, 84)
	order := model.Struct.Order
	st := NewScanTable(seeds, order)
	w := st.width
	for s := 1; s < st.n; s++ {
		prev, cur := st.rows[(s-1)*w:s*w], st.rows[s*w:(s+1)*w]
		for k := range cur {
			if prev[k] != cur[k] {
				if prev[k] > cur[k] {
					t.Fatalf("rows %d and %d out of order at σ-position %d", s-1, s, k)
				}
				break
			}
		}
	}
	seen := make([]bool, st.n)
	for i, d := range seeds.Rows() {
		s := int(st.rank[i])
		if seen[s] {
			t.Fatalf("rank maps two seeds to row %d", s)
		}
		seen[s] = true
		for k, attr := range order {
			if st.rows[s*w+k] != d[attr] {
				t.Fatalf("seed %d: sorted row %d differs at σ-position %d", i, s, k)
			}
		}
	}
}

// TestSeedProbsMatchesPerRecord pins SeedProbs to the distinct-value
// histogram of Probe.Prob over every seed. It covers ω ranges with lo = 1,
// with hi = m and with lo = hi, and both candidates generated from a seed
// and uniformly sampled ones, which leave seeds with zero probability.
func TestSeedProbsMatchesPerRecord(t *testing.T) {
	r := rng.New(85)
	zeros, mixed := 0, 0
	for _, mc := range []struct {
		name  string
		model *bayesnet.Model
	}{{"tiny", tinyModel(t, 86)}, {"wide", benchModel(t, 87)}} {
		model := mc.model
		m := len(model.Meta.Attrs)
		omegas := [][2]int{{1, m}, {1, 1}, {m, m}, {2, m}, {1, m - 1}, {2, 2}}
		for _, n := range []int{1, 3, 97, 400} {
			seeds := tinySeeds(t, model, n, uint64(n))
			st := NewScanTable(seeds, model.Struct.Order)
			for _, om := range omegas {
				syn, err := NewSeedSynthesizer(model, om[0], om[1])
				if err != nil {
					t.Fatal(err)
				}
				var ps Probe
				var got []SeedProb
				for trial := 0; trial < 12; trial++ {
					y := generate(syn, seeds.Row(r.Intn(n)), r)
					if trial%3 == 2 {
						for a := range y {
							y[a] = uint16(r.Intn(model.Meta.Attrs[a].Card()))
						}
					}
					syn.Probe(y, &ps)
					hist := map[float64]int{}
					for _, d := range seeds.Rows() {
						hist[ps.Prob(d)]++
					}
					want := make([]SeedProb, 0, len(hist))
					for p, c := range hist {
						want = append(want, SeedProb{P: p, Seeds: c})
					}
					slices.SortFunc(want, func(a, b SeedProb) int { return cmp.Compare(a.P, b.P) })
					if got = st.SeedProbs(&ps, got); !slices.Equal(got, want) {
						t.Fatalf("%s n=%d ω=%v y=%v: SeedProbs %v, per-record histogram %v", mc.name, n, om, y, got, want)
					}
					if want[0].P == 0 {
						zeros++
						if len(want) > 1 {
							mixed++
						}
					}
				}
			}
		}
	}
	if zeros == 0 || mixed == 0 {
		t.Fatalf("%d candidates had zero-probability seeds, %d of them alongside possible ones; the cases are not covered", zeros, mixed)
	}
}
