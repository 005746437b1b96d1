package acs

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// Population is the census-like generative population model used in place
// of the real ACS microdata. Sampling order follows the causal story:
// demographics (sex, race, birth area, age), then education given age, then
// family structure, then work attributes, and finally the income class from
// a logistic score over education, occupation, hours, age, sex and marital
// status. The model is deliberately far from attribute-independent so that
// the structured generative model of §3 has real signal to capture.
type Population struct {
	meta *dataset.Metadata
}

// NewPopulation returns the canonical simulator.
func NewPopulation() *Population {
	return &Population{meta: Metadata()}
}

// Meta returns the schema the population samples from.
func (p *Population) Meta() *dataset.Metadata { return p.meta }

// Generate samples n clean records.
func (p *Population) Generate(r *rng.RNG, n int) *dataset.Dataset {
	ds := dataset.New(p.meta)
	for i := 0; i < n; i++ {
		ds.Append(p.Sample(r))
	}
	return ds
}

// Sample draws one record.
func (p *Population) Sample(r *rng.RNG) dataset.Record {
	rec := make(dataset.Record, NumAttrs)

	sex := sampleSex(r)
	race := sampleRace(r)
	birth := sampleBirthArea(r, race)
	age := sampleAge(r, race)
	educ := sampleEducation(r, age, race, birth)
	marital := sampleMarital(r, age)
	relation := sampleRelation(r, age, marital, sex)
	work := sampleWorkclass(r, age, educ)
	occ := sampleOccupation(r, educ, sex)
	hours := sampleHours(r, work, age, occ, sex)
	income := sampleIncome(r, educ, occ, hours, age, sex, marital, work, race)

	rec[AttrAge] = uint16(age - 17)
	rec[AttrWorkclass] = uint16(work)
	rec[AttrEducation] = uint16(educ)
	rec[AttrMarital] = uint16(marital)
	rec[AttrOccupation] = uint16(occ)
	rec[AttrRelation] = uint16(relation)
	rec[AttrRace] = uint16(race)
	rec[AttrSex] = uint16(sex)
	rec[AttrHours] = uint16(hours)
	rec[AttrBirthArea] = uint16(birth)
	rec[AttrIncome] = uint16(income)
	return rec
}

func sampleSex(r *rng.RNG) int {
	if r.Bool(0.52) {
		return 1 // female
	}
	return 0
}

func sampleRace(r *rng.RNG) int {
	// white, black, native, asian, other
	return r.Categorical([]float64{0.735, 0.122, 0.010, 0.052, 0.081})
}

func sampleBirthArea(r *rng.RNG, race int) int {
	// us, pr-us-islands, latin-america, asia, europe, africa,
	// northern-america, oceania — strongly dependent on race group.
	switch race {
	case 3: // asian
		return r.Categorical([]float64{0.22, 0.01, 0.02, 0.70, 0.02, 0.01, 0.01, 0.01})
	case 1: // black
		return r.Categorical([]float64{0.84, 0.02, 0.04, 0.01, 0.01, 0.07, 0.005, 0.005})
	case 4: // other (incl. hispanic-identified)
		return r.Categorical([]float64{0.48, 0.06, 0.42, 0.01, 0.01, 0.005, 0.01, 0.005})
	default: // white, native
		return r.Categorical([]float64{0.90, 0.005, 0.025, 0.01, 0.045, 0.003, 0.01, 0.002})
	}
}

func sampleAge(r *rng.RNG, race int) int {
	// Working-age-heavy mixture over 17..96. Minority populations skew
	// younger in census data.
	w := []float64{0.14, 0.55, 0.21, 0.10}
	if race == 1 || race == 4 {
		w = []float64{0.20, 0.58, 0.16, 0.06}
	}
	switch r.Categorical(w) {
	case 0: // 17..24
		return 17 + r.Intn(8)
	case 1: // 25..54
		return 25 + r.Intn(30)
	case 2: // 55..69
		return 55 + r.Intn(15)
	default: // 70..96, geometric-ish tail
		a := 70 + int(r.Exponential(0.13))
		if a > 96 {
			a = 96
		}
		return a
	}
}

// educTier groups the 24 SCHL codes into 7 attainment tiers used by the
// conditional samplers: 0 below-HS, 1 HS, 2 some-college, 3 associates,
// 4 bachelors, 5 masters, 6 professional/doctorate.
func educTier(educ int) int {
	switch {
	case educ <= 8:
		return 0
	case educ == 9 || educ == 10 || educ == 21 || educ == 22:
		return 1
	case educ == 11 || educ == 12 || educ == 19 || educ == 20:
		return 2
	case educ == 13 || educ == 14:
		return 3
	case educ == 15 || educ == 23:
		return 4
	case educ == 16:
		return 5
	default: // 17, 18
		return 6
	}
}

// tierMembers lists the SCHL codes of each tier, with within-tier weights.
var tierMembers = [7]struct {
	codes   []int
	weights []float64
}{
	{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 0.2, 0.5, 1, 2, 2, 3, 4, 5}},
	{[]int{9, 10, 21, 22}, []float64{10, 2, 0.7, 0.3}},
	{[]int{11, 12, 19, 20}, []float64{3, 4, 2, 1}},
	{[]int{13, 14}, []float64{1, 1.2}},
	{[]int{15, 23}, []float64{10, 0.4}},
	{[]int{16}, []float64{1}},
	{[]int{17, 18}, []float64{1.1, 1}},
}

func sampleEducation(r *rng.RNG, age, race, birth int) int {
	// Tier distribution shifts with age: the young have not finished
	// degrees yet; older cohorts skew lower. Attainment also varies by
	// race group and birth area, as in census data.
	var tw []float64
	switch {
	case age < 20:
		tw = []float64{0.35, 0.45, 0.19, 0.005, 0.004, 0.001, 0}
	case age < 25:
		tw = []float64{0.12, 0.33, 0.30, 0.08, 0.14, 0.025, 0.005}
	case age < 35:
		tw = []float64{0.09, 0.26, 0.19, 0.09, 0.24, 0.09, 0.04}
	case age < 55:
		tw = []float64{0.10, 0.29, 0.18, 0.10, 0.20, 0.09, 0.04}
	case age < 70:
		tw = []float64{0.13, 0.33, 0.17, 0.08, 0.17, 0.08, 0.04}
	default:
		tw = []float64{0.24, 0.36, 0.14, 0.06, 0.12, 0.05, 0.03}
	}
	w := append([]float64(nil), tw...)
	if race == 3 { // asian: strong degree skew
		w[4] *= 1.9
		w[5] *= 2.0
		w[6] *= 2.0
	}
	if birth == 2 { // latin-america born: lower attainment skew
		w[0] *= 2.4
		w[4] *= 0.55
		w[5] *= 0.45
		w[6] *= 0.45
	}
	tier := r.Categorical(w)
	m := tierMembers[tier]
	return m.codes[r.Categorical(m.weights)]
}

func sampleMarital(r *rng.RNG, age int) int {
	// married, widowed, divorced, separated, never-married
	switch {
	case age < 22:
		return r.Categorical([]float64{0.03, 0.001, 0.005, 0.004, 0.96})
	case age < 30:
		return r.Categorical([]float64{0.32, 0.002, 0.04, 0.018, 0.62})
	case age < 45:
		return r.Categorical([]float64{0.60, 0.005, 0.11, 0.035, 0.25})
	case age < 65:
		return r.Categorical([]float64{0.62, 0.03, 0.18, 0.03, 0.14})
	default:
		return r.Categorical([]float64{0.55, 0.26, 0.12, 0.01, 0.06})
	}
}

func sampleRelation(r *rng.RNG, age, marital, sex int) int {
	// The 18 RELP codes; household role depends on age, marital status and
	// (for married couples) sex: husbands are predominantly listed as the
	// reference person in ACS households.
	w := make([]float64, len(relationValues))
	switch {
	case marital == 0: // married → reference person or spouse
		if sex == 0 {
			w[0], w[1] = 0.64, 0.30
		} else {
			w[0], w[1] = 0.30, 0.64
		}
		w[6], w[8], w[10] = 0.02, 0.01, 0.02
		w[16] = 0.01
	case age < 25: // young unmarried → child of householder, housemate
		w[0] = 0.12
		w[2], w[3], w[4] = 0.45, 0.02, 0.05
		w[7] = 0.06
		w[11], w[12], w[13], w[14], w[15] = 0.03, 0.16, 0.06, 0.02, 0.02
		w[17] = 0.01
	case age < 45:
		w[0] = 0.45
		w[2], w[4], w[5] = 0.12, 0.02, 0.05
		w[10], w[11], w[12], w[13], w[15] = 0.04, 0.03, 0.13, 0.13, 0.02
		w[16] = 0.01
	default:
		w[0] = 0.72
		w[5], w[6], w[9], w[10] = 0.04, 0.08, 0.02, 0.04
		w[12], w[13], w[15] = 0.04, 0.03, 0.01
		w[16], w[17] = 0.015, 0.005
	}
	return r.Categorical(w)
}

func sampleWorkclass(r *rng.RNG, age, educ int) int {
	// private-profit, private-nonprofit, local-gov, state-gov, federal-gov,
	// self-emp-not-inc, self-emp-inc, family-business
	tier := educTier(educ)
	w := []float64{0.64, 0.07, 0.07, 0.045, 0.03, 0.095, 0.035, 0.005}
	if tier >= 4 {
		// Degree holders skew to nonprofit/government/incorporated.
		w = []float64{0.55, 0.11, 0.09, 0.07, 0.05, 0.06, 0.065, 0.005}
	}
	if age >= 60 {
		// Older workers skew self-employed.
		w[5] += 0.06
		w[6] += 0.03
		w[0] -= 0.09
	}
	return r.Categorical(w)
}

func sampleOccupation(r *rng.RNG, educ, sex int) int {
	tier := educTier(educ)
	w := make([]float64, len(occupationValues))
	base := func(pairs map[int]float64) {
		for i := range w {
			w[i] = 0.004
		}
		for k, v := range pairs {
			w[k] = v
		}
	}
	switch {
	case tier >= 5: // graduate degrees
		base(map[int]float64{0: 0.16, 1: 0.08, 2: 0.09, 3: 0.04, 4: 0.07,
			5: 0.06, 6: 0.07, 7: 0.22, 8: 0.03, 9: 0.14, 15: 0.02, 16: 0.02})
	case tier == 4: // bachelors
		base(map[int]float64{0: 0.15, 1: 0.11, 2: 0.10, 3: 0.05, 4: 0.04,
			5: 0.04, 6: 0.02, 7: 0.12, 8: 0.05, 9: 0.08, 15: 0.10, 16: 0.10})
	case tier >= 2: // some college / associates
		base(map[int]float64{0: 0.07, 1: 0.04, 2: 0.03, 7: 0.04, 9: 0.05,
			10: 0.06, 11: 0.03, 12: 0.08, 15: 0.12, 16: 0.16, 18: 0.04,
			20: 0.04, 21: 0.06, 22: 0.05, 23: 0.04})
	default: // HS or below
		base(map[int]float64{12: 0.13, 13: 0.07, 14: 0.05, 15: 0.09,
			16: 0.09, 17: 0.03, 18: 0.11, 19: 0.01, 20: 0.05, 21: 0.12,
			22: 0.08, 23: 0.08, 10: 0.04})
	}
	// Sex skew mirroring census patterns: construction/extraction male;
	// healthcare-support/office-admin female.
	if sex == 0 {
		w[18] *= 3.0
		w[19] *= 3.0
		w[22] *= 1.8
		w[24] *= 2.5
		w[10] *= 0.35
		w[16] *= 0.55
		w[14] *= 0.5
	} else {
		w[18] *= 0.12
		w[19] *= 0.12
		w[10] *= 2.0
		w[16] *= 1.6
		w[14] *= 1.7
		w[7] *= 1.4
	}
	return r.Categorical(w)
}

func sampleHours(r *rng.RNG, work, age, occ, sex int) int {
	var h float64
	switch {
	case age >= 70:
		if r.Bool(0.55) {
			h = r.Normal(12, 8) // mostly retired; small part-time jobs
		} else {
			h = r.Normal(32, 10)
		}
	case work == 5 || work == 6: // self-employed: wide spread
		h = r.Normal(46, 14)
	case age < 22:
		h = r.Normal(26, 11)
	default:
		if r.Bool(0.82) {
			h = r.Normal(41, 4.5)
		} else {
			h = r.Normal(24, 8)
		}
	}
	// Occupational hour norms: management/legal/professional run long;
	// food service and personal care skew part-time.
	switch occ {
	case 0, 6, 9: // management, legal, healthcare-pract
		h += 4
	case 12, 14, 10: // food-serving, personal-care, healthcare-support
		h -= 5
	}
	if sex == 1 && age < 70 {
		h -= 2.5 // part-time skew in census hour distributions
	}
	hours := int(math.Round(h))
	if hours < 0 {
		hours = 0
	}
	if hours > 99 {
		hours = 99
	}
	return hours
}

// occupationIncomeBoost reflects occupational wage premiums.
var occupationIncomeBoost = map[int]float64{
	0: 1.05, 1: 0.75, 2: 1.10, 3: 0.95, 4: 0.70, 5: 0.05, 6: 1.25,
	7: 0.15, 8: 0.25, 9: 1.00, 10: -0.70, 11: 0.25, 12: -0.90,
	13: -0.75, 14: -0.80, 15: 0.10, 16: -0.30, 17: -0.70, 18: 0.05,
	19: 0.30, 20: 0.15, 21: -0.20, 22: -0.10, 23: -0.55, 24: 0.10,
}

var tierIncomeBoost = [7]float64{-1.3, -0.45, -0.05, 0.25, 1.05, 1.55, 2.05}

func sampleIncome(r *rng.RNG, educ, occ, hours, age, sex, marital, work, race int) int {
	score := -2.35
	switch race {
	case 0, 3: // white, asian
		score += 0.10
	case 1, 4: // black, other
		score -= 0.22
	}
	score += tierIncomeBoost[educTier(educ)]
	score += occupationIncomeBoost[occ]
	// Hours: roughly linear around full time, saturating.
	dh := float64(hours-40) * 0.06
	if dh > 1.4 {
		dh = 1.4
	}
	if dh < -2.6 {
		dh = -2.6
	}
	score += dh
	// Experience curve peaking near 50.
	score += 0.55 - float64(math.Abs(float64(age)-50)*0.028) // float64(): no fused multiply-add
	if sex == 0 {
		score += 0.35
	}
	if marital == 0 {
		score += 0.40
	}
	if work == 6 { // incorporated self-employed
		score += 0.55
	}
	if work == 4 { // federal
		score += 0.25
	}
	p := 1 / (1 + math.Exp(-score))
	if r.Bool(p) {
		return 1 // >50K
	}
	return 0
}
