package qar

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func baseOptions() Options {
	return Options{Partitions: 4, MinSupport: 0.1, MinConfidence: 0.6}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero support", func(o *Options) { o.MinSupport = 0 }},
		{"support > 1", func(o *Options) { o.MinSupport = 2 }},
		{"negative confidence", func(o *Options) { o.MinConfidence = -1 }},
		{"confidence > 1", func(o *Options) { o.MinConfidence = 2 }},
		{"NaN confidence", func(o *Options) { o.MinConfidence = math.NaN() }},
		{"NaN support", func(o *Options) { o.MinSupport = math.NaN() }},
		{"negative partitions", func(o *Options) { o.Partitions = -1 }},
		{"no sizing", func(o *Options) { o.Partitions = 0; o.CompletenessLevel = 0 }},
	}
	for _, c := range cases {
		o := baseOptions()
		c.mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func salaryAgeRelation(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "Age", Kind: relation.Interval},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	rel := relation.NewRelation(s)
	for i := 0; i < n; i++ {
		// Younger people earn ~30K, older ~80K: a clean QAR.
		if i%2 == 0 {
			rel.MustAppend([]float64{25 + rng.Float64()*5, 30000 + rng.Float64()*2000})
		} else {
			rel.MustAppend([]float64{55 + rng.Float64()*5, 80000 + rng.Float64()*2000})
		}
	}
	return rel
}

func TestMineFindsRangeRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := salaryAgeRelation(rng, 400)
	res, err := Mine(rel, Options{Partitions: 2, MinSupport: 0.2, MinConfidence: 0.9})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules found")
	}
	// Expect a rule linking the young-age interval to the low-salary one.
	found := false
	for _, r := range res.Rules {
		if len(r.Antecedent) != 1 || len(r.Consequent) != 1 {
			continue
		}
		a, c := r.Antecedent[0], r.Consequent[0]
		if a.Attr == 0 && a.Hi < 40 && c.Attr == 1 && c.Hi < 40000 {
			found = true
			if r.Confidence < 0.95 {
				t.Errorf("young⇒low-salary confidence = %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Errorf("young⇒low-salary rule missing from %d rules", len(res.Rules))
	}
	if len(res.Partitionings) != 2 || res.Partitionings[0] == nil {
		t.Errorf("Partitionings = %v", res.Partitionings)
	}
}

func TestMineWithCompletenessLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := salaryAgeRelation(rng, 200)
	res, err := Mine(rel, Options{CompletenessLevel: 1.5, MinSupport: 0.2, MinConfidence: 0.8})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	// 2/(0.2·0.5) = 20 base intervals requested; ties may merge some.
	if got := len(res.Partitionings[0].Intervals); got < 10 || got > 20 {
		t.Errorf("base intervals = %d, want ≈20", got)
	}
}

func TestMineNominal(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	rel := relation.NewRelation(s)
	dict := s.Attr(0).Dict
	for i := 0; i < 50; i++ {
		rel.MustAppend([]float64{dict.Code("DBA"), 40000})
		rel.MustAppend([]float64{dict.Code("Mgr"), 90000})
	}
	res, err := Mine(rel, Options{Partitions: 2, MinSupport: 0.3, MinConfidence: 0.9})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	found := false
	for _, r := range res.Rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0].Equal {
			d := r.Describe(rel)
			if strings.Contains(d, "Job = DBA") && strings.Contains(d, "Salary") {
				found = true
				if r.Confidence != 1 {
					t.Errorf("DBA rule confidence = %v", r.Confidence)
				}
			}
		}
	}
	if !found {
		t.Error("nominal antecedent rule missing")
	}
}

func TestMineEmptyAndInvalid(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	res, err := Mine(rel, baseOptions())
	if err != nil || len(res.Rules) != 0 {
		t.Errorf("empty relation: %v, %v", res, err)
	}
	rel.MustAppend([]float64{1})
	if _, err := Mine(rel, Options{MinSupport: 0}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestRuleMeasuresMatchDirectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := salaryAgeRelation(rng, 100)
	res, err := Mine(rel, Options{Partitions: 3, MinSupport: 0.1, MinConfidence: 0.5})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	matches := func(preds []Predicate, tuple []float64) bool {
		for _, p := range preds {
			v := tuple[p.Attr]
			if p.Equal {
				if v != p.Lo {
					return false
				}
			} else if v < p.Lo || v > p.Hi {
				return false
			}
		}
		return true
	}
	for _, r := range res.Rules {
		both, ante := 0, 0
		for i := 0; i < rel.Len(); i++ {
			tp := rel.Tuple(i)
			if matches(r.Antecedent, tp) {
				ante++
				if matches(r.Consequent, tp) {
					both++
				}
			}
		}
		if r.Count != both {
			t.Errorf("rule %s: count %d, direct %d", r.Describe(rel), r.Count, both)
		}
		if ante > 0 && r.Confidence != float64(both)/float64(ante) {
			t.Errorf("rule %s: confidence %v, direct %v", r.Describe(rel), r.Confidence, float64(both)/float64(ante))
		}
	}
}

func TestPredicateDescribe(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	rel := relation.NewRelation(s)
	code := s.Attr(0).Dict.Code("DBA")
	rel.MustAppend([]float64{code, 40000})
	if got := (Predicate{Attr: 0, Lo: code, Equal: true}).Describe(rel); got != "Job = DBA" {
		t.Errorf("Describe = %q", got)
	}
	if got := (Predicate{Attr: 1, Lo: 1, Hi: 2}).Describe(rel); got != "Salary ∈ [1, 2]" {
		t.Errorf("Describe = %q", got)
	}
}

func TestMineCombineAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := salaryAgeRelation(rng, 400)
	// Fine base partitions: 8 per attribute (each 12.5% support). At 20%
	// support no base interval qualifies alone, but combined runs do.
	plain, err := Mine(rel, Options{Partitions: 8, MinSupport: 0.2, MinConfidence: 0.8})
	if err != nil {
		t.Fatalf("Mine(plain): %v", err)
	}
	combined, err := Mine(rel, Options{Partitions: 8, MinSupport: 0.2, MinConfidence: 0.8, CombineAdjacent: true})
	if err != nil {
		t.Fatalf("Mine(combined): %v", err)
	}
	if len(plain.Rules) != 0 {
		t.Fatalf("plain mining at 20%% over 12.5%% intervals found %d rules", len(plain.Rules))
	}
	if len(combined.Rules) == 0 {
		t.Fatal("combining adjacent intervals recovered no rules")
	}
	// The young⇒low-salary association must reappear as combined ranges,
	// and no rule may pair overlapping predicates of one attribute.
	found := false
	for _, r := range combined.Rules {
		for _, a := range r.Antecedent {
			for _, c := range r.Consequent {
				if a.Attr == 0 && a.Hi < 40 && c.Attr == 1 && c.Hi < 40000 {
					found = true
				}
				if a.Attr == c.Attr && !a.Equal && !c.Equal && a.Lo <= c.Hi && c.Lo <= a.Hi {
					t.Errorf("overlapping same-attribute rule: %s", r.Describe(rel))
				}
			}
		}
	}
	if !found {
		t.Error("young⇒low-salary combined rule missing")
	}
}

func TestMineCombineAdjacentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := salaryAgeRelation(rng, 50)
	if _, err := Mine(rel, Options{Partitions: 2, MinSupport: 0.2, MaxSupportFraction: 2}); err == nil {
		t.Error("MaxSupportFraction > 1 accepted")
	}
}

func TestOverlappingSides(t *testing.T) {
	iv := func(attr int, lo, hi float64) Predicate { return Predicate{Attr: attr, Lo: lo, Hi: hi} }
	eq := func(attr int, v float64) Predicate { return Predicate{Attr: attr, Lo: v, Equal: true} }
	cases := []struct {
		name string
		r    Rule
		want bool
	}{
		{"disjoint attrs", Rule{Antecedent: []Predicate{iv(0, 1, 2)}, Consequent: []Predicate{iv(1, 1, 2)}}, false},
		{"same attr overlap", Rule{Antecedent: []Predicate{iv(0, 1, 5)}, Consequent: []Predicate{iv(0, 4, 9)}}, true},
		{"same attr disjoint", Rule{Antecedent: []Predicate{iv(0, 1, 2)}, Consequent: []Predicate{iv(0, 5, 9)}}, false},
		{"same nominal value", Rule{Antecedent: []Predicate{eq(0, 3)}, Consequent: []Predicate{eq(0, 3)}}, true},
		{"different nominal values", Rule{Antecedent: []Predicate{eq(0, 3)}, Consequent: []Predicate{eq(0, 4)}}, false},
		{"nominal vs range", Rule{Antecedent: []Predicate{eq(0, 3)}, Consequent: []Predicate{iv(0, 1, 9)}}, false},
	}
	for _, c := range cases {
		if got := overlappingSides(c.r); got != c.want {
			t.Errorf("%s: overlappingSides = %v, want %v", c.name, got, c.want)
		}
	}
}
