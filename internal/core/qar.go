package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/apriori"
	"repro/internal/relation"
)

// QARMiner implements the generalized quantitative association rules of
// Section 4.3 (Dfn 4.4): Phase I clusters each attribute group with the
// adaptive ACF-trees, then Phase II assigns every tuple to its nearest
// cluster per group and runs the classical a priori algorithm over the
// resulting cluster-membership transactions, producing rules ranked by
// the traditional support and confidence. It meets Goal 1 (distance-aware
// groupings) but not Goals 2 and 3 — exactly the gap the distance-based
// Miner closes — and therefore serves as the in-between baseline in the
// experiments.
type QARMiner struct {
	miner   *Miner
	minConf float64
}

// QARRule is a generalized quantitative association rule: cluster IDs on
// both sides with classical measures.
type QARRule struct {
	Antecedent []int
	Consequent []int
	Support    float64
	Confidence float64
	Count      int
}

// QARResult is the outcome of QARMiner.Mine.
type QARResult struct {
	Clusters []*Cluster
	Rules    []QARRule
	PhaseI   PhaseIStats
	// Duration covers the membership pass plus a priori.
	PhaseII time.Duration
}

// NewQARMiner builds the baseline miner. minConfidence is the classical
// confidence threshold of Dfn 4.3/4.4.
func NewQARMiner(rel relation.Source, part *relation.Partitioning, opt Options, minConfidence float64) (*QARMiner, error) {
	if !(minConfidence >= 0 && minConfidence <= 1) {
		return nil, fmt.Errorf("core: minConfidence must be in [0,1], got %v", minConfidence)
	}
	m, err := NewMiner(rel, part, opt)
	if err != nil {
		return nil, err
	}
	return &QARMiner{miner: m, minConf: minConfidence}, nil
}

// Mine runs the two phases of Section 4.3. Phase I is Mine's: Ingest
// and the summary query engine's frequent-cluster step.
func (q *QARMiner) Mine() (*QARResult, error) {
	m := q.miner
	start := time.Now()
	s, err := Ingest(m.rel, m.part, m.opt)
	if err != nil {
		return nil, err
	}
	base, e := frequentClusters(s, m.opt.Query())
	clusters, p1 := base.Clusters, base.PhaseI
	p1.Duration = time.Since(start)
	start = time.Now()

	// Phase II scan: each tuple becomes the itemset of its per-group
	// nearest-cluster memberships (Section 4.3.2); cluster IDs double as
	// item identifiers.
	asn := newAssigner(m.part, clusters, m.membershipCaps(e.nominal))
	groups := m.part.NumGroups()
	proj := make([][]float64, groups)
	for g := range proj {
		proj[g] = make([]float64, m.part.Group(g).Dims())
	}
	txns := make([][]int, 0, m.rel.Len())
	err = m.rel.Scan(func(_ int, tuple []float64) error {
		txn := make([]int, 0, groups)
		for g := 0; g < groups; g++ {
			m.part.Project(g, tuple, proj[g])
			if c := asn.assign(g, proj[g]); c != nil {
				txn = append(txn, c.ID)
			}
		}
		sort.Ints(txn)
		txns = append(txns, txn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: QAR membership scan: %w", err)
	}

	arules, err := apriori.Mine(txns, apriori.Options{
		MinSupport: m.opt.Query().minSize(m.rel.Len()),
		MaxLen:     m.opt.MaxAntecedent + m.opt.MaxConsequent,
	}, q.minConf)
	if err != nil {
		return nil, fmt.Errorf("core: QAR phase II: %w", err)
	}

	rules := make([]QARRule, 0, len(arules))
	for _, r := range arules {
		if len(r.Antecedent) > m.opt.MaxAntecedent || len(r.Consequent) > m.opt.MaxConsequent {
			continue
		}
		rules = append(rules, QARRule{
			Antecedent: append([]int(nil), r.Antecedent...),
			Consequent: append([]int(nil), r.Consequent...),
			Support:    r.Support,
			Confidence: r.Confidence,
			Count:      r.Count,
		})
	}
	return &QARResult{
		Clusters: clusters,
		Rules:    rules,
		PhaseI:   p1,
		PhaseII:  time.Since(start),
	}, nil
}
