package core

import (
	"math/rand"

	"repro/internal/relation"
)

// figure2Relations builds the two relations of Figure 2 of the paper.
// Both satisfy Rule (1) (Job=DBA ∧ Age=30 ⇒ Salary=40,000) with support
// 50% and confidence 60%, yet R2 "fits" the rule better under a
// distance-based reading.
func figure2Relations() (r1, r2 *relation.Relation) {
	build := func(salaries []float64) *relation.Relation {
		s := relation.MustSchema(
			relation.Attribute{Name: "Job", Kind: relation.Nominal},
			relation.Attribute{Name: "Age", Kind: relation.Interval},
			relation.Attribute{Name: "Salary", Kind: relation.Interval},
		)
		r := relation.NewRelation(s)
		dict := s.Attr(0).Dict
		jobs := []string{"Mgr", "DBA", "DBA", "DBA", "DBA", "DBA"}
		for i, job := range jobs {
			r.MustAppend([]float64{dict.Code(job), 30, salaries[i]})
		}
		return r
	}
	r1 = build([]float64{40000, 40000, 40000, 40000, 100000, 90000})
	r2 = build([]float64{40000, 40000, 40000, 40000, 41000, 42000})
	return r1, r2
}

// plantedXY builds a two-attribute interval relation with two planted
// associations: x≈10 ⇒ y≈110 and x≈50 ⇒ y≈150, plus uniform outliers.
func plantedXY(rng *rand.Rand, perCluster, outliers int) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "x", Kind: relation.Interval},
		relation.Attribute{Name: "y", Kind: relation.Interval},
	)
	r := relation.NewRelation(s)
	for i := 0; i < perCluster; i++ {
		r.MustAppend([]float64{10 + rng.NormFloat64()*0.2, 110 + rng.NormFloat64()*0.2})
		r.MustAppend([]float64{50 + rng.NormFloat64()*0.2, 150 + rng.NormFloat64()*0.2})
	}
	// Irrelevant points are drawn away from the planted clusters'
	// capture zones, as in the paper's scaling experiment ("the number of
	// irrelevant (or outliers) points"), so they form their own
	// infrequent clusters instead of contaminating the planted ones.
	inBand := func(v float64, centers ...float64) bool {
		for _, c := range centers {
			if v > c-8 && v < c+8 {
				return true
			}
		}
		return false
	}
	for i := 0; i < outliers; i++ {
		x := rng.Float64() * 200
		for inBand(x, 10, 50) {
			x = rng.Float64() * 200
		}
		y := rng.Float64() * 400
		for inBand(y, 110, 150) {
			y = rng.Float64() * 400
		}
		r.MustAppend([]float64{x, y})
	}
	return r
}

// nominalIntervalRelation plants Job=DBA ⇒ Salary≈40000 with confidence
// conf: DBAs earn 40000±100 with probability conf and 46000±100 otherwise
// (a nearby alternative, so the distance-based degree stays moderate);
// Mgrs always earn 90000±100.
func nominalIntervalRelation(rng *rand.Rand, n int, conf float64) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	r := relation.NewRelation(s)
	dict := s.Attr(0).Dict
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			salary := 46000 + rng.NormFloat64()*100
			if rng.Float64() < conf {
				salary = 40000 + rng.NormFloat64()*100
			}
			r.MustAppend([]float64{dict.Code("DBA"), salary})
		} else {
			r.MustAppend([]float64{dict.Code("Mgr"), 90000 + rng.NormFloat64()*100})
		}
	}
	return r
}

// mixedNominalRelation has two nominal and two noisy interval columns:
// Job picks a Salary band and, three times in four, the City; City
// picks an Age band. Uniform noise on both interval columns makes the
// Phase I trees and the post-scan's nearest-centroid membership
// disagree about some tuples.
func mixedNominalRelation(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "City", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
		relation.Attribute{Name: "Age", Kind: relation.Interval},
	)
	r := relation.NewRelation(s)
	jobs := []string{"DBA", "Eng", "Mgr", "Ops"}
	cities := []string{"NYC", "SFO", "LAX"}
	for i := 0; i < n; i++ {
		j := rng.Intn(len(jobs))
		c := j % len(cities)
		if rng.Float64() < 0.25 {
			c = rng.Intn(len(cities))
		}
		salary := 40 + 20*float64(j) + rng.NormFloat64()*1.5
		if rng.Float64() < 0.2 {
			salary = 30 + rng.Float64()*80
		}
		age := 25 + 15*float64(c) + rng.NormFloat64()*2
		if rng.Float64() < 0.15 {
			age = 20 + rng.Float64()*50
		}
		r.MustAppend([]float64{s.Attr(0).Dict.Code(jobs[j]), s.Attr(1).Dict.Code(cities[c]), salary, age})
	}
	return r
}
