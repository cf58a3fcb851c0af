// Package qar implements the Srikant–Agrawal quantitative association
// rule baseline [SA96] that the paper argues against for interval data:
// every interval/ordinal attribute is partitioned equi-depth (driven by a
// partial-completeness level), nominal attributes contribute one item per
// value, and the classical a priori algorithm mines rules over the
// resulting items. Rule predicates are ranges (val1 <= Attr <= val2) or
// equalities, ranked by classical support and confidence (Dfn 4.3).
package qar

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apriori"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Options controls the baseline miner.
type Options struct {
	// Partitions is the number of equi-depth base intervals per numeric
	// attribute. If zero, it is derived from CompletenessLevel.
	Partitions int
	// CompletenessLevel is the K of K-partial completeness (> 1); used
	// with MinSupport to size the base partitioning when Partitions is 0.
	CompletenessLevel float64
	// MinSupport is the fractional minimum support in (0, 1].
	MinSupport float64
	// MinConfidence is the minimum confidence in [0, 1].
	MinConfidence float64
	// MaxLen bounds itemset size (0 = unlimited).
	MaxLen int
	// CombineAdjacent enables SA96's extended item space: every
	// contiguous run of base intervals whose combined support stays at
	// or below MaxSupportFraction also becomes an item ("combining
	// adjacent intervals" counters the information loss of too-fine base
	// partitions). A tuple then matches one item per covering run, and
	// rules pairing two overlapping items of the same attribute are
	// suppressed.
	CombineAdjacent bool
	// MaxSupportFraction caps combined-interval support (default 0.5
	// when CombineAdjacent is set).
	MaxSupportFraction float64
}

func (o Options) validate() error {
	if !(o.MinSupport > 0 && o.MinSupport <= 1) {
		return fmt.Errorf("qar: MinSupport must be in (0,1], got %v", o.MinSupport)
	}
	if !(o.MinConfidence >= 0 && o.MinConfidence <= 1) {
		return fmt.Errorf("qar: MinConfidence must be in [0,1], got %v", o.MinConfidence)
	}
	if o.Partitions < 0 {
		return fmt.Errorf("qar: Partitions must be >= 0, got %d", o.Partitions)
	}
	if o.Partitions == 0 && o.CompletenessLevel <= 1 {
		return fmt.Errorf("qar: need Partitions or CompletenessLevel > 1")
	}
	if o.MaxSupportFraction < 0 || o.MaxSupportFraction > 1 {
		return fmt.Errorf("qar: MaxSupportFraction must be in [0,1], got %v", o.MaxSupportFraction)
	}
	return nil
}

// Predicate is one side-condition of a rule: an attribute restricted to a
// closed range (numeric) or to an exact value (nominal).
type Predicate struct {
	Attr   int
	Lo, Hi float64
	// Equal is set for nominal attributes; Lo carries the value code.
	Equal bool
}

// Describe renders the predicate against the relation's schema.
func (p Predicate) Describe(rel *relation.Relation) string {
	name := rel.Schema().Attr(p.Attr).Name
	if p.Equal {
		return fmt.Sprintf("%s = %s", name, rel.FormatValue(p.Attr, p.Lo))
	}
	return fmt.Sprintf("%s ∈ [%g, %g]", name, p.Lo, p.Hi)
}

// Rule is a quantitative association rule (Dfn 4.3).
type Rule struct {
	Antecedent []Predicate
	Consequent []Predicate
	Support    float64
	Confidence float64
	Count      int
}

// Describe renders the rule, e.g. "Salary ∈ [31000, 80000] ⇒ Age ∈ [30, 35] (sup 0.33, conf 0.66)".
func (r Rule) Describe(rel *relation.Relation) string {
	var b strings.Builder
	for i, p := range r.Antecedent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(p.Describe(rel))
	}
	b.WriteString(" ⇒ ")
	for i, p := range r.Consequent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(p.Describe(rel))
	}
	fmt.Fprintf(&b, " (sup %.2f, conf %.2f)", r.Support, r.Confidence)
	return b.String()
}

// Result is the outcome of Mine.
type Result struct {
	Rules []Rule
	// Partitionings holds the per-attribute equi-depth partitionings
	// (nil for nominal attributes) for inspection — Figure 1's left
	// column comes from here.
	Partitionings []*partition.Partitioning
	Duration      time.Duration
}

// overlappingSides reports whether any antecedent and consequent
// predicate restrict the same attribute with overlapping ranges.
func overlappingSides(r Rule) bool {
	for _, a := range r.Antecedent {
		for _, c := range r.Consequent {
			if a.Attr != c.Attr {
				continue
			}
			if a.Equal || c.Equal {
				if a.Lo == c.Lo && a.Equal == c.Equal {
					return true
				}
				continue
			}
			if a.Lo <= c.Hi && c.Lo <= a.Hi {
				return true
			}
		}
	}
	return false
}

// Mine runs the SA96 baseline over the relation.
func Mine(rel *relation.Relation, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if rel.Len() == 0 {
		return &Result{}, nil
	}
	start := time.Now()

	nparts := opt.Partitions
	if nparts == 0 {
		var err error
		nparts, err = partition.PartitionsForCompleteness(opt.MinSupport, opt.CompletenessLevel)
		if err != nil {
			return nil, err
		}
	}

	maxSup := opt.MaxSupportFraction
	if opt.CombineAdjacent && maxSup == 0 {
		maxSup = 0.5
	}

	// Item space: for numeric attributes one item per base interval
	// (plus, under CombineAdjacent, one per admissible contiguous run);
	// for nominal attributes one item per value code.
	width := rel.Schema().Width()
	parts := make([]*partition.Partitioning, width)
	combos := make([][]partition.CombinedInterval, width)
	itemBase := make([]int, width)
	nextItem := 0
	type nominalItems map[float64]int
	noms := make([]nominalItems, width)
	for a := 0; a < width; a++ {
		itemBase[a] = nextItem
		if rel.Schema().Attr(a).Kind == relation.Nominal {
			noms[a] = make(nominalItems)
			// One item per distinct code, assigned in sorted order for
			// determinism.
			codes := map[float64]bool{}
			for _, v := range rel.Column(a) {
				codes[v] = true
			}
			sorted := make([]float64, 0, len(codes))
			for v := range codes {
				sorted = append(sorted, v)
			}
			sort.Float64s(sorted)
			for _, v := range sorted {
				noms[a][v] = nextItem
				nextItem++
			}
			continue
		}
		p, err := partition.EquiDepth(rel.Column(a), nparts)
		if err != nil {
			return nil, fmt.Errorf("qar: partitioning attribute %q: %w", rel.Schema().Attr(a).Name, err)
		}
		parts[a] = p
		if opt.CombineAdjacent {
			combos[a] = p.CombineAdjacent(int(maxSup * float64(rel.Len())))
			nextItem += len(combos[a])
		} else {
			nextItem += len(p.Intervals)
		}
	}

	// Transactions: without combinations, one item per attribute per
	// tuple; with them, one item per covering run.
	txns := make([][]int, 0, rel.Len())
	err := rel.Scan(func(_ int, tuple []float64) error {
		txn := make([]int, 0, width)
		for a := 0; a < width; a++ {
			if noms[a] != nil {
				txn = append(txn, noms[a][tuple[a]])
				continue
			}
			base := parts[a].Assign(tuple[a])
			if opt.CombineAdjacent {
				for ci, c := range combos[a] {
					if base >= c.First && base <= c.Last {
						txn = append(txn, itemBase[a]+ci)
					}
				}
				continue
			}
			txn = append(txn, itemBase[a]+base)
		}
		sort.Ints(txn)
		txns = append(txns, txn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("qar: building transactions: %w", err)
	}

	minCount := int(opt.MinSupport * float64(rel.Len()))
	if minCount < 1 {
		minCount = 1
	}
	arules, err := apriori.Mine(txns, apriori.Options{MinSupport: minCount, MaxLen: opt.MaxLen}, opt.MinConfidence)
	if err != nil {
		return nil, fmt.Errorf("qar: apriori: %w", err)
	}

	// Translate items back into predicates.
	itemPred := make([]Predicate, nextItem)
	for a := 0; a < width; a++ {
		if noms[a] != nil {
			for v, item := range noms[a] {
				itemPred[item] = Predicate{Attr: a, Lo: v, Equal: true}
			}
			continue
		}
		if opt.CombineAdjacent {
			for ci, c := range combos[a] {
				itemPred[itemBase[a]+ci] = Predicate{Attr: a, Lo: c.Lo, Hi: c.Hi}
			}
			continue
		}
		for i, iv := range parts[a].Intervals {
			itemPred[itemBase[a]+i] = Predicate{Attr: a, Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	rules := make([]Rule, 0, len(arules))
	for _, r := range arules {
		qr := Rule{Support: r.Support, Confidence: r.Confidence, Count: r.Count}
		for _, it := range r.Antecedent {
			qr.Antecedent = append(qr.Antecedent, itemPred[it])
		}
		for _, it := range r.Consequent {
			qr.Consequent = append(qr.Consequent, itemPred[it])
		}
		if opt.CombineAdjacent && overlappingSides(qr) {
			// Same-attribute overlapping predicates across the rule are
			// tautological artifacts of the extended item space.
			continue
		}
		rules = append(rules, qr)
	}
	return &Result{Rules: rules, Partitionings: parts, Duration: time.Since(start)}, nil
}
