package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestMiningInvariants re-derives, from first principles, everything a
// mining result asserts: every frequent cluster satisfies Dfn 4.2
// (diameter within the group threshold, support at least s0), and every
// rule's reported degree equals the Dfn 5.3 maximum recomputed directly
// from the cluster ACFs — i.e. the Miner's bookkeeping introduces no
// drift on top of the definitions.
func TestMiningInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	for i := 0; i < 3000; i++ {
		base := float64(rng.Intn(4)) * 100
		rel.MustAppend([]float64{
			base + rng.NormFloat64(),
			base/2 + rng.NormFloat64(),
			rng.Float64() * 1000,
		})
	}
	part := relation.SingletonPartitioning(schema)
	opt := DefaultOptions()
	opt.DiameterThreshold = 5
	opt.FrequencyFraction = 0.05
	opt.MaxAntecedent = 2

	m, err := NewMiner(rel, part, opt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("workload produced no rules")
	}

	minSize := int64(opt.Query().minSize(rel.Len()))
	for _, c := range res.Clusters {
		// Dfn 4.2: density and frequency.
		if d := c.Diameter(); d > opt.diameterFor(c.Group)+1e-9 {
			t.Errorf("cluster %d diameter %v exceeds d0 %v", c.ID, d, opt.diameterFor(c.Group))
		}
		if c.N() < minSize {
			t.Errorf("cluster %d has N=%d below s0=%d", c.ID, c.N(), minSize)
		}
	}

	nominal := make([]bool, part.NumGroups())
	for _, r := range res.Rules {
		// Recompute the Dfn 5.3 degree: max over consequent-side
		// constraints, normalized by the consequent group's d0.
		want := 0.0
		for _, cyID := range r.Consequent {
			cy := res.Clusters[cyID]
			scale := opt.diameterFor(cy.Group)
			for _, cxID := range r.Antecedent {
				cx := res.Clusters[cxID]
				d := opt.Metric.Between(cy.Image(cy.Group), cx.Image(cy.Group)) / scale
				if d > want {
					want = d
				}
			}
		}
		if math.Abs(r.Degree-want) > 1e-9 {
			t.Errorf("rule %v⇒%v degree %v, recomputed %v", r.Antecedent, r.Consequent, r.Degree, want)
		}
		if r.Degree > opt.DegreeFactor+1e-9 {
			t.Errorf("rule %v⇒%v degree %v exceeds DegreeFactor %v", r.Antecedent, r.Consequent, r.Degree, opt.DegreeFactor)
		}
		// Attribute-group disjointness across the whole rule.
		seen := map[int]bool{}
		for _, id := range append(append([]int{}, r.Antecedent...), r.Consequent...) {
			g := res.Clusters[id].Group
			if seen[g] {
				t.Errorf("rule %v⇒%v repeats attribute group %d", r.Antecedent, r.Consequent, g)
			}
			seen[g] = true
		}
		// Arity bounds.
		if len(r.Antecedent) > opt.MaxAntecedent || len(r.Consequent) > opt.MaxConsequent {
			t.Errorf("rule %v⇒%v exceeds arity bounds", r.Antecedent, r.Consequent)
		}
	}
	_ = nominal
}

// TestSupportCountsAreExact recounts one rule's joint support by brute
// force over the relation using the same membership rule the post-scan
// applies.
func TestSupportCountsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	rel := plantedXY(rng, 200, 10)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	m, _ := NewMiner(rel, part, opt)
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules")
	}
	asn := newAssigner(part, res.Clusters, m.membershipCaps(nominalGroupsOf(part)))
	for _, r := range res.Rules {
		var count int64
		proj := make([][]float64, part.NumGroups())
		for g := range proj {
			proj[g] = make([]float64, part.Group(g).Dims())
		}
		rel.Scan(func(_ int, tuple []float64) error {
			match := true
			for _, id := range append(append([]int{}, r.Antecedent...), r.Consequent...) {
				g := res.Clusters[id].Group
				part.Project(g, tuple, proj[g])
				if c := asn.assign(g, proj[g]); c == nil || c.ID != id {
					match = false
					break
				}
			}
			if match {
				count++
			}
			return nil
		})
		if count != r.Support {
			t.Errorf("rule %v⇒%v support %d, brute force %d", r.Antecedent, r.Consequent, r.Support, count)
		}
	}
}

// TestPostScanNominalDegreesAreExact recomputes by brute force the
// degree of every rule whose consequent is one nominal cluster. With
// PostScan on, Theorem 5.2's D2 = 1 − |cx ∩ cy| / |cx| is counted under
// the post-scan's nearest-centroid membership — not read from the
// summary's histograms, which disagree on noisy interval data — and is
// normalized by the nominal degree scale 0.5. Rules between the two
// nominal columns check that a pair of nominal groups is counted once.
func TestPostScanNominalDegreesAreExact(t *testing.T) {
	rel := mixedNominalRelation(rand.New(rand.NewSource(93)), 600)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := DefaultOptions()
	opt.DiameterThresholds = []float64{0, 0, 4, 5}
	opt.FrequencyFraction = 0.04
	m, err := NewMiner(rel, part, opt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	nominal := nominalGroupsOf(part)
	asn := newAssigner(part, res.Clusters, m.membershipCaps(nominal))
	size := make([]int64, len(res.Clusters))
	both := map[[2]int]int64{} // (cx, cy) → tuples assigned to both
	proj := make([][]float64, part.NumGroups())
	for g := range proj {
		proj[g] = make([]float64, part.Group(g).Dims())
	}
	ids := make([]int, part.NumGroups())
	err = rel.Scan(func(_ int, tuple []float64) error {
		for g := range ids {
			part.Project(g, tuple, proj[g])
			ids[g] = -1
			if c := asn.assign(g, proj[g]); c != nil {
				ids[g] = c.ID
				size[c.ID]++
			}
		}
		for _, x := range ids {
			for _, y := range ids {
				if x >= 0 && y >= 0 && x != y {
					both[[2]int{x, y}]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}

	checked := 0
	for _, r := range res.Rules {
		if len(r.Consequent) != 1 || !nominal[res.Clusters[r.Consequent[0]].Group] {
			continue
		}
		cy := r.Consequent[0]
		want := 0.0
		for _, cx := range r.Antecedent {
			d := 1.0
			if size[cx] > 0 {
				d = 1 - float64(both[[2]int{cx, cy}])/float64(size[cx])
			}
			want = max(want, d/0.5)
		}
		if r.Degree != want {
			t.Errorf("rule %v⇒%v degree %v, brute force %v", r.Antecedent, r.Consequent, r.Degree, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("none of %d rules has one nominal consequent; the check is vacuous", len(res.Rules))
	}
}
