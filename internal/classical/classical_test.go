package classical

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func testRelation(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	rel := relation.NewRelation(s)
	dict := s.Attr(0).Dict
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			rel.MustAppend([]float64{dict.Code("DBA"), 40000})
		} else {
			rel.MustAppend([]float64{dict.Code("Mgr"), 90000})
		}
	}
	return rel
}

func TestOptionsValidate(t *testing.T) {
	cases := []Options{
		{MinSupport: 0, MinConfidence: 0.5},
		{MinSupport: 1.5, MinConfidence: 0.5},
		{MinSupport: 0.1, MinConfidence: -1},
		{MinSupport: 0.1, MinConfidence: 2},
		{MinSupport: 0.1, MinConfidence: 0.5, MaxEntriesPerAttr: -1},
		{MinSupport: 0.1, MinConfidence: math.NaN()},
		{MinSupport: math.NaN(), MinConfidence: 0.5},
	}
	for i, o := range cases {
		if err := o.validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

func TestMineExactClassicalRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := testRelation(rng, 200)
	res, err := Mine(rel, Options{MinSupport: 0.3, MinConfidence: 0.9})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if !res.Exact || res.Collapses != 0 {
		t.Errorf("unlimited budget should stay exact: %+v", res)
	}
	// Expect the deterministic associations in both directions.
	found := 0
	for _, r := range res.Rules {
		d := r.Describe(rel)
		if strings.Contains(d, "Job = DBA ⇒ Salary = 40000") ||
			strings.Contains(d, "Salary = 40000 ⇒ Job = DBA") {
			found++
			if r.Confidence != 1 || r.Support != 0.5 {
				t.Errorf("rule %s has wrong measures", d)
			}
		}
	}
	if found != 2 {
		t.Errorf("DBA↔40000 rules found %d times; rules: %v", found, res.Rules)
	}
	if len(res.Items) != 4 {
		t.Errorf("items = %v", res.Items)
	}
}

func TestMineAdaptiveBudget(t *testing.T) {
	// A wide salary domain under a tight budget: 1-itemset counting must
	// collapse to ranges yet still find the structure.
	s := relation.MustSchema(relation.Attribute{Name: "Salary", Kind: relation.Interval})
	rel := relation.NewRelation(s)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			rel.MustAppend([]float64{30000 + float64(rng.Intn(2000))})
		} else {
			rel.MustAppend([]float64{90000 + float64(rng.Intn(2000))})
		}
	}
	res, err := Mine(rel, Options{MaxEntriesPerAttr: 8, MinSupport: 0.2, MinConfidence: 0})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if res.Exact || res.Collapses == 0 {
		t.Errorf("tight budget should collapse: %+v", res)
	}
	if res.EntriesCounted > 8 {
		t.Errorf("entries = %d exceed budget", res.EntriesCounted)
	}
	if len(res.Items) == 0 {
		t.Fatal("no frequent items")
	}
	// Items are disjoint, ordered ranges whose counts reflect the data.
	// Note what is NOT guaranteed: the collapse is purely structural
	// (ordinal adjacency), so under extreme pressure ranges may straddle
	// the empty gap between the bands — precisely the equi-depth-style
	// deficiency that motivates the paper's distance-based approach
	// (Figure 1 and Goal 1).
	for i, it := range res.Items {
		if it.Lo > it.Hi {
			t.Errorf("item %v inverted", it)
		}
		if i > 0 && res.Items[i-1].Hi >= it.Lo {
			t.Errorf("items overlap: %v then %v", res.Items[i-1], it)
		}
	}
}

func TestMineNominalNeverBudgeted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := testRelation(rng, 100)
	res, err := Mine(rel, Options{MaxEntriesPerAttr: 1, MinSupport: 0.3, MinConfidence: 0.5})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	// The nominal Job attribute must keep exact value items even though
	// the budget is 1.
	exactJobs := 0
	for _, it := range res.Items {
		if it.Attr == 0 && it.Exact {
			exactJobs++
		}
	}
	if exactJobs != 2 {
		t.Errorf("exact Job items = %d, want 2 (%v)", exactJobs, res.Items)
	}
}

func TestMineEmptyAndInvalid(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	res, err := Mine(rel, Options{MinSupport: 0.1, MinConfidence: 0.5})
	if err != nil || len(res.Rules) != 0 || !res.Exact {
		t.Errorf("empty mine = %+v, %v", res, err)
	}
	rel.MustAppend([]float64{1})
	if _, err := Mine(rel, Options{MinSupport: 0}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestMineNoFrequentItems(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "x", Kind: relation.Interval})
	rel := relation.NewRelation(s)
	for i := 0; i < 10; i++ {
		rel.MustAppend([]float64{float64(i)})
	}
	res, err := Mine(rel, Options{MinSupport: 0.5, MinConfidence: 0})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Items) != 0 || len(res.Rules) != 0 {
		t.Errorf("expected nothing frequent: %+v", res)
	}
}

func TestRuleAndItemDescribe(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := testRelation(rng, 10)
	it := Item{Attr: 1, Lo: 1, Hi: 2}
	if got := it.Describe(rel); got != "Salary ∈ [1, 2]" {
		t.Errorf("Describe = %q", got)
	}
	r := Rule{
		Antecedent: []Item{{Attr: 1, Lo: 40000, Hi: 40000, Exact: true}},
		Consequent: []Item{{Attr: 1, Lo: 1, Hi: 2}},
		Support:    0.5, Confidence: 1,
	}
	if got := r.Describe(rel); !strings.Contains(got, "⇒") || !strings.Contains(got, "conf 1.00") {
		t.Errorf("Describe = %q", got)
	}
}
