package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/distance"
	"repro/internal/relation"
)

func TestNewMinerValidation(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	part := relation.SingletonPartitioning(rel.Schema())
	if _, err := NewMiner(nil, part, DefaultOptions()); err == nil {
		t.Error("nil relation accepted")
	}
	if _, err := NewMiner(rel, nil, DefaultOptions()); err == nil {
		t.Error("nil partitioning accepted")
	}
	other := relation.SingletonPartitioning(relation.MustSchema(relation.Attribute{Name: "y"}))
	if _, err := NewMiner(rel, other, DefaultOptions()); err == nil {
		t.Error("mismatched schema accepted")
	}
	bad := DefaultOptions()
	bad.DegreeFactor = -1
	if _, err := NewMiner(rel, part, bad); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestMineEmptyRelation(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	part := relation.SingletonPartitioning(rel.Schema())
	m, err := NewMiner(rel, part, DefaultOptions())
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Clusters) != 0 || len(res.Rules) != 0 {
		t.Errorf("empty mine produced %d clusters, %d rules", len(res.Clusters), len(res.Rules))
	}
}

func plantedOptions() Options {
	o := DefaultOptions()
	o.DiameterThreshold = 2
	o.FrequencyFraction = 0.05
	return o
}

func TestMineFindsPlantedRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := plantedXY(rng, 200, 20)
	part := relation.SingletonPartitioning(rel.Schema())
	m, err := NewMiner(rel, part, plantedOptions())
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	// Expect two frequent clusters per attribute.
	perGroup := map[int]int{}
	for _, c := range res.Clusters {
		perGroup[c.Group]++
	}
	if perGroup[0] != 2 || perGroup[1] != 2 {
		t.Fatalf("clusters per group = %v, want 2 and 2 (clusters: %d)", perGroup, len(res.Clusters))
	}

	// The planted associations must appear as low-degree 1:1 rules.
	findCluster := func(group int, center float64) *Cluster {
		for _, c := range res.Clusters {
			if c.Group == group && c.Centroid()[0] > center-2 && c.Centroid()[0] < center+2 {
				return c
			}
		}
		return nil
	}
	x1, y1 := findCluster(0, 10), findCluster(1, 110)
	x2, y2 := findCluster(0, 50), findCluster(1, 150)
	if x1 == nil || y1 == nil || x2 == nil || y2 == nil {
		t.Fatalf("planted clusters missing: %v %v %v %v", x1, y1, x2, y2)
	}
	hasRule := func(ante, cons *Cluster) *Rule {
		for i := range res.Rules {
			r := &res.Rules[i]
			if reflect.DeepEqual(r.Antecedent, []int{ante.ID}) && reflect.DeepEqual(r.Consequent, []int{cons.ID}) {
				return r
			}
		}
		return nil
	}
	for _, pair := range []struct{ a, c *Cluster }{{x1, y1}, {x2, y2}, {y1, x1}, {y2, x2}} {
		r := hasRule(pair.a, pair.c)
		if r == nil {
			t.Errorf("planted rule %d ⇒ %d missing", pair.a.ID, pair.c.ID)
			continue
		}
		if r.Degree > 0.5 {
			t.Errorf("planted rule degree = %v, want small", r.Degree)
		}
		if r.Support < 150 {
			t.Errorf("planted rule support = %d, want ≈200", r.Support)
		}
	}
	// The cross association x1 ⇒ y2 must NOT hold.
	if r := hasRule(x1, y2); r != nil {
		t.Errorf("spurious rule found: %+v", r)
	}

	// Post-scan artifacts: exact boxes around the planted centers.
	if !x1.BoxExact {
		t.Error("post-scan did not mark boxes exact")
	}
	if x1.Lo[0] < 8 || x1.Hi[0] > 12 {
		t.Errorf("x1 box = [%v, %v], want ⊂ [8,12]", x1.Lo[0], x1.Hi[0])
	}
	if res.PhaseI.TuplesScanned != rel.Len() {
		t.Errorf("TuplesScanned = %d", res.PhaseI.TuplesScanned)
	}
	if res.PhaseII.GraphNodes != len(res.Clusters) {
		t.Errorf("GraphNodes = %d, want %d", res.PhaseII.GraphNodes, len(res.Clusters))
	}
}

func TestRulesSortedByDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := plantedXY(rng, 150, 50)
	part := relation.SingletonPartitioning(rel.Schema())
	m, _ := NewMiner(rel, part, plantedOptions())
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	for i := 1; i < len(res.Rules); i++ {
		if res.Rules[i].Degree < res.Rules[i-1].Degree {
			t.Fatalf("rules not sorted by degree at %d", i)
		}
	}
}

func TestPruningDoesNotChangeRulesUnderD2(t *testing.T) {
	// Section 6.2: for D2 the image-radius bound is exact, so pruning must
	// not alter the rule set — only reduce comparisons.
	rng := rand.New(rand.NewSource(3))
	rel := plantedXY(rng, 100, 30)
	part := relation.SingletonPartitioning(rel.Schema())

	run := func(prune bool) (*Result, error) {
		o := plantedOptions()
		o.PruneImages = prune
		m, err := NewMiner(rel, part, o)
		if err != nil {
			return nil, err
		}
		return m.Mine()
	}
	with, err := run(true)
	if err != nil {
		t.Fatalf("Mine(prune): %v", err)
	}
	without, err := run(false)
	if err != nil {
		t.Fatalf("Mine(no prune): %v", err)
	}
	if !reflect.DeepEqual(ruleKeys(with.Rules), ruleKeys(without.Rules)) {
		t.Errorf("pruning changed the rule set: %d vs %d rules", len(with.Rules), len(without.Rules))
	}
	if with.PhaseII.Comparisons > without.PhaseII.Comparisons {
		t.Errorf("pruning did not reduce comparisons: %d vs %d", with.PhaseII.Comparisons, without.PhaseII.Comparisons)
	}
}

func ruleKeys(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = ruleKey(r.Antecedent, r.Consequent)
	}
	return out
}

func TestMineNominalAssociation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := nominalIntervalRelation(rng, 2000, 0.9)
	part := relation.SingletonPartitioning(rel.Schema())
	o := DefaultOptions()
	o.DiameterThreshold = 1000
	o.FrequencyFraction = 0.05
	// The 10% of DBAs earning ≈46000 sit 6·d0 away from the 40000
	// cluster; D2 weighs them by that distance (Goal 3), so the realized
	// degree is ≈1.9·d0. A 2.5 factor admits the rule while a hard
	// confidence threshold would have treated them as total misses.
	o.DegreeFactor = 2.5
	m, err := NewMiner(rel, part, o)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	dbaCode, _ := rel.Schema().Attr(0).Dict.Lookup("DBA")
	var dba, sal40 *Cluster
	for _, c := range res.Clusters {
		switch {
		case c.Group == 0 && c.Centroid()[0] == dbaCode:
			dba = c
		case c.Group == 1 && c.Centroid()[0] > 39000 && c.Centroid()[0] < 41000:
			sal40 = c
		}
	}
	if dba == nil || sal40 == nil {
		t.Fatalf("expected clusters missing (have %d)", len(res.Clusters))
	}
	var found *Rule
	for i := range res.Rules {
		r := &res.Rules[i]
		if reflect.DeepEqual(r.Antecedent, []int{dba.ID}) && reflect.DeepEqual(r.Consequent, []int{sal40.ID}) {
			found = r
		}
	}
	if found == nil {
		t.Fatalf("rule DBA ⇒ Salary≈40000 not found among %d rules", len(res.Rules))
	}
	if found.Support < 800 {
		t.Errorf("rule support = %d, want ≈900", found.Support)
	}
}

func TestDescribeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel := plantedXY(rng, 100, 0)
	part := relation.SingletonPartitioning(rel.Schema())
	m, _ := NewMiner(rel, part, plantedOptions())
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules to describe")
	}
	s := res.DescribeRule(res.Rules[0], rel, part)
	if !strings.Contains(s, "⇒") || !strings.Contains(s, "degree") {
		t.Errorf("DescribeRule = %q", s)
	}
	if !strings.Contains(s, "x ∈ [") && !strings.Contains(s, "y ∈ [") {
		t.Errorf("DescribeRule lacks bounding box: %q", s)
	}
}

func TestMemoryLimitStillFindsRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := plantedXY(rng, 400, 100)
	part := relation.SingletonPartitioning(rel.Schema())
	o := plantedOptions()
	o.MemoryLimit = 8 << 10 // tight: forces adaptive rebuilds
	m, _ := NewMiner(rel, part, o)
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if res.PhaseI.Rebuilds == 0 {
		t.Skip("budget did not force rebuilds on this platform")
	}
	// Under memory pressure the result degrades gracefully: mining still
	// completes, memory stays near the budget, and clusters still cover
	// the data (precision, not correctness, is what adapts — Section 3).
	if res.PhaseI.Bytes > o.MemoryLimit+(8<<10) {
		t.Errorf("Bytes = %d, far above limit", res.PhaseI.Bytes)
	}
	if res.PhaseI.ClustersFound == 0 {
		t.Error("no clusters under memory pressure")
	}
}

func TestQARMinerBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rel := plantedXY(rng, 200, 20)
	part := relation.SingletonPartitioning(rel.Schema())
	q, err := NewQARMiner(rel, part, plantedOptions(), 0.8)
	if err != nil {
		t.Fatalf("NewQARMiner: %v", err)
	}
	res, err := q.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("QAR baseline found no rules")
	}
	// Every rule must satisfy the confidence threshold and reference
	// valid clusters.
	for _, r := range res.Rules {
		if r.Confidence < 0.8 {
			t.Errorf("rule confidence %v below threshold", r.Confidence)
		}
		for _, id := range append(append([]int{}, r.Antecedent...), r.Consequent...) {
			if id < 0 || id >= len(res.Clusters) {
				t.Errorf("rule references cluster %d of %d", id, len(res.Clusters))
			}
		}
	}
}

func TestQARMinerValidation(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	part := relation.SingletonPartitioning(rel.Schema())
	if _, err := NewQARMiner(rel, part, DefaultOptions(), 1.5); err == nil {
		t.Error("confidence > 1 accepted")
	}
	if _, err := NewQARMiner(rel, part, DefaultOptions(), -0.1); err == nil {
		t.Error("negative confidence accepted")
	}
	if _, err := NewQARMiner(rel, part, DefaultOptions(), math.NaN()); err == nil {
		t.Error("NaN confidence accepted")
	}
}

func TestForEachSubset(t *testing.T) {
	var got [][]int
	forEachSubset([]int{1, 2, 3}, 2, func(s []int) {
		got = append(got, append([]int(nil), s...))
	})
	want := [][]int{{1}, {1, 2}, {1, 3}, {2}, {2, 3}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subsets = %v, want %v", got, want)
	}
	// maxSize above pool length is clamped.
	count := 0
	forEachSubset([]int{1, 2}, 10, func([]int) { count++ })
	if count != 3 {
		t.Errorf("subsets of {1,2} = %d, want 3", count)
	}
	forEachSubset(nil, 2, func([]int) { t.Error("subset of empty pool") })
}

func TestRuleKeyDistinguishesSides(t *testing.T) {
	if ruleKey([]int{1}, []int{2}) == ruleKey([]int{2}, []int{1}) {
		t.Error("ruleKey ignores rule direction")
	}
	if ruleKey([]int{1, 2}, []int{3}) == ruleKey([]int{1}, []int{2, 3}) {
		t.Error("ruleKey ignores the side boundary")
	}
}

func TestMetricOptionRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := plantedXY(rng, 100, 10)
	part := relation.SingletonPartitioning(rel.Schema())
	for _, metric := range []distance.ClusterMetric{distance.D0, distance.D1, distance.D2} {
		o := plantedOptions()
		o.Metric = metric
		m, _ := NewMiner(rel, part, o)
		res, err := m.Mine()
		if err != nil {
			t.Fatalf("Mine(%v): %v", metric, err)
		}
		if len(res.Rules) == 0 {
			t.Errorf("metric %v found no rules", metric)
		}
	}
}

func TestMinRuleSupportFiltersCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rel := plantedXY(rng, 150, 15)
	part := relation.SingletonPartitioning(rel.Schema())

	o := plantedOptions()
	m, _ := NewMiner(rel, part, o)
	unfiltered, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(unfiltered.Rules) == 0 {
		t.Fatal("no rules to filter")
	}

	// A threshold above the planted co-occurrence keeps nothing; a
	// moderate one keeps exactly the rules whose support qualifies.
	o.MinRuleSupport = 0.4
	m, _ = NewMiner(rel, part, o)
	filtered, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine(filtered): %v", err)
	}
	minCount := int64(0.4 * float64(rel.Len()))
	want := 0
	for _, r := range unfiltered.Rules {
		if r.Support >= minCount {
			want++
		}
	}
	if len(filtered.Rules) != want {
		t.Errorf("filtered rules = %d, want %d", len(filtered.Rules), want)
	}
	for _, r := range filtered.Rules {
		if r.Support < minCount {
			t.Errorf("rule with support %d survived threshold %d", r.Support, minCount)
		}
	}

	// Validation: the filter needs the rescan.
	o.PostScan = false
	if _, err := NewMiner(rel, part, o); err == nil {
		t.Error("MinRuleSupport without PostScan accepted")
	}
	o.PostScan = true
	o.MinRuleSupport = 2
	if _, err := NewMiner(rel, part, o); err == nil {
		t.Error("MinRuleSupport > 1 accepted")
	}
}
