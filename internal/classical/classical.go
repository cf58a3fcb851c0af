// Package classical implements the paper's second contribution applied to
// classical association rules (Section 3): the standard multi-pass
// counting algorithm [AIS93, AS94] with the 1-itemset counting phase made
// *adaptive*. Scan 1 counts each attribute's values in an adaptive
// summary tree (internal/counttree) under a memory budget; when memory is
// scarce the trees trade exact (value: count) pairs for (range: count)
// pairs, so mining proceeds "at the finest (most detailed) level
// possible" for the available memory instead of failing or thrashing.
// Subsequent passes are the ordinary a priori candidate loop over the
// resulting items.
package classical

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apriori"
	"repro/internal/counttree"
	"repro/internal/relation"
)

// Options controls mining.
type Options struct {
	// MaxEntriesPerAttr budgets each attribute's summary tree; zero
	// means unlimited (fully exact 1-itemset counts).
	MaxEntriesPerAttr int
	// MinSupport is the fractional frequency threshold s0 in (0, 1].
	MinSupport float64
	// MinConfidence is the rule confidence threshold in [0, 1].
	MinConfidence float64
	// MaxLen bounds itemset size (0 = unlimited).
	MaxLen int
}

func (o Options) validate() error {
	if !(o.MinSupport > 0 && o.MinSupport <= 1) {
		return fmt.Errorf("classical: MinSupport must be in (0,1], got %v", o.MinSupport)
	}
	if !(o.MinConfidence >= 0 && o.MinConfidence <= 1) {
		return fmt.Errorf("classical: MinConfidence must be in [0,1], got %v", o.MinConfidence)
	}
	if o.MaxEntriesPerAttr < 0 {
		return fmt.Errorf("classical: MaxEntriesPerAttr must be >= 0, got %d", o.MaxEntriesPerAttr)
	}
	return nil
}

// Item is a frequent 1-itemset: an attribute restricted to an exact value
// or, after adaptive collapses, to a range.
type Item struct {
	Attr   int
	Lo, Hi float64
	Exact  bool
}

// Describe renders the item against a relation's schema.
func (it Item) Describe(rel *relation.Relation) string {
	name := rel.Schema().Attr(it.Attr).Name
	if it.Exact {
		return fmt.Sprintf("%s = %s", name, rel.FormatValue(it.Attr, it.Lo))
	}
	return fmt.Sprintf("%s ∈ [%g, %g]", name, it.Lo, it.Hi)
}

// Rule is a classical association rule over items.
type Rule struct {
	Antecedent []Item
	Consequent []Item
	Support    float64
	Confidence float64
	Count      int
}

// Describe renders the rule.
func (r Rule) Describe(rel *relation.Relation) string {
	var b strings.Builder
	for i, it := range r.Antecedent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(it.Describe(rel))
	}
	b.WriteString(" ⇒ ")
	for i, it := range r.Consequent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(it.Describe(rel))
	}
	fmt.Fprintf(&b, " (sup %.2f, conf %.2f)", r.Support, r.Confidence)
	return b.String()
}

// Result is the outcome of Mine.
type Result struct {
	Rules []Rule
	// Items are the frequent 1-itemsets, per Scan 1.
	Items []Item
	// Exact reports whether every tree stayed exact (no collapse).
	Exact bool
	// Collapses sums precision reductions across attributes.
	Collapses int
	// EntriesCounted is the total leaf entries across trees after Scan 1
	// (the memory actually used for 1-itemset counts).
	EntriesCounted int
	Duration       time.Duration
}

// Mine runs the adaptive classical algorithm over the relation. Nominal
// attributes participate with their value codes (each code is a distinct
// "value"; ranges over codes are meaningless, so nominal trees are never
// budgeted).
func Mine(rel *relation.Relation, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if rel.Len() == 0 {
		return &Result{Exact: true}, nil
	}
	start := time.Now()
	width := rel.Schema().Width()

	// Scan 1: adaptive 1-itemset counting.
	trees := make([]*counttree.Tree, width)
	for a := 0; a < width; a++ {
		budget := opt.MaxEntriesPerAttr
		if rel.Schema().Attr(a).Kind == relation.Nominal {
			budget = 0
		}
		trees[a] = counttree.New(counttree.Config{MaxEntries: budget})
	}
	err := rel.Scan(func(_ int, tuple []float64) error {
		for a, v := range tuple {
			trees[a].Add(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("classical: scan 1: %w", err)
	}

	// Prune 1: entries meeting the frequency threshold become items.
	minCount := int64(opt.MinSupport * float64(rel.Len()))
	if minCount < 1 {
		minCount = 1
	}
	res := &Result{Exact: true}
	var items []Item
	perAttr := make([][]Item, width)
	for a, tr := range trees {
		st := tr.Stats()
		res.Collapses += st.Collapses
		res.EntriesCounted += st.Entries
		if !st.Exact {
			res.Exact = false
		}
		for _, e := range tr.Entries() {
			if e.Count < minCount {
				continue
			}
			it := Item{Attr: a, Lo: e.Lo, Hi: e.Hi, Exact: e.Exact}
			perAttr[a] = append(perAttr[a], it)
			items = append(items, it)
		}
	}
	res.Items = items
	if len(items) == 0 {
		res.Duration = time.Since(start)
		return res, nil
	}

	// Scans 2..k: the standard candidate loop over item IDs. Items of
	// one attribute are disjoint ranges, so each tuple maps to at most
	// one item per attribute (binary search).
	base := make([]int, width)
	id := 0
	for a := range perAttr {
		base[a] = id
		id += len(perAttr[a])
	}
	txns := make([][]int, 0, rel.Len())
	err = rel.Scan(func(_ int, tuple []float64) error {
		txn := make([]int, 0, width)
		for a, v := range tuple {
			list := perAttr[a]
			i := sort.Search(len(list), func(i int) bool { return list[i].Hi >= v })
			if i < len(list) && v >= list[i].Lo {
				txn = append(txn, base[a]+i)
			}
		}
		sort.Ints(txn)
		txns = append(txns, txn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("classical: transaction scan: %w", err)
	}
	arules, err := apriori.Mine(txns, apriori.Options{MinSupport: int(minCount), MaxLen: opt.MaxLen}, opt.MinConfidence)
	if err != nil {
		return nil, fmt.Errorf("classical: apriori: %w", err)
	}
	for _, r := range arules {
		rule := Rule{Support: r.Support, Confidence: r.Confidence, Count: r.Count}
		for _, it := range r.Antecedent {
			rule.Antecedent = append(rule.Antecedent, items[it])
		}
		for _, it := range r.Consequent {
			rule.Consequent = append(rule.Consequent, items[it])
		}
		res.Rules = append(res.Rules, rule)
	}
	res.Duration = time.Since(start)
	return res, nil
}
