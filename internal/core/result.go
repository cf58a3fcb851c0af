package core

import (
	"strconv"
	"time"

	"repro/internal/relation"
)

// Rule is a distance-based association rule C_X1…C_Xx ⇒ C_Y1…C_Yy
// (Dfn 5.3). Antecedent and Consequent hold cluster IDs into
// Result.Clusters, sorted ascending.
type Rule struct {
	Antecedent []int
	Consequent []int
	// Degree is the realized degree of association, normalized per
	// consequent group by its d0 so that degrees are comparable across
	// attribute units: the maximum over all (i, j) of
	// D(C_Yj[Yj], C_Xi[Yj]) / d0^Yj. Lower is stronger; a rule "holds
	// with degree D0" for every D0 >= Degree. For nominal consequents
	// the unnormalized distance is 1 − classical confidence
	// (Theorem 5.2).
	Degree float64
	// Support is the number of tuples assigned simultaneously to every
	// cluster of the rule, counted by the optional support rescan;
	// -1 when not counted.
	Support int64
	// SupportFraction is Support / |r| (0 when not counted).
	SupportFraction float64
	// Measures holds the summary-derived interestingness measures when
	// the query asked for them (QueryOptions.Measures); nil otherwise.
	Measures *RuleMeasures
}

// Arity returns (antecedent size, consequent size).
func (r Rule) Arity() (int, int) { return len(r.Antecedent), len(r.Consequent) }

// Result is the outcome of Miner.Mine.
type Result struct {
	// Clusters are the frequent clusters of Phase I; rules index into
	// this slice.
	Clusters []*Cluster
	// Rules are the DARs, sorted by the total order (ascending Degree,
	// then Antecedent, then Consequent lexicographic — strongest first);
	// query-time filters and top-k truncation preserve it.
	Rules []Rule
	// Sweep holds the degree-factor sweep when the query asked for one
	// (QueryOptions.SweepFactors); nil otherwise.
	Sweep []SweepPoint

	PhaseI   PhaseIStats
	PhaseII  PhaseIIStats
	PostScan PostScanStats
}

// DescribeRule renders a rule with bounding-box cluster descriptions
// (Section 7.2), e.g.
//
//	Age ∈ [41, 47] ∧ Dependents ∈ [2, 5] ⇒ Claims ∈ [10000, 14000] (degree 0.42, support 113)
func (res *Result) DescribeRule(r Rule, rel relation.Source, part *relation.Partitioning) string {
	b := appendSignature(nil, r, res.describer(rel.Schema(), part))
	return string(appendDegree(b, r))
}

// describer returns an appendSignature callback that describes each
// cluster afresh through Cluster.appendDescription.
func (res *Result) describer(schema *relation.Schema, part *relation.Partitioning) func([]byte, int) []byte {
	return func(b []byte, id int) []byte {
		return res.Clusters[id].appendDescription(b, schema, part)
	}
}

// appendSignature appends r's clusters' descriptions joined over the
// rule shape — antecedent terms, " ⇒ ", consequent terms, each list
// joined by " ∧ " — with describe appending the description of one
// cluster ID. The separators hold nothing JSON escapes and open and
// close on ASCII spaces, so a rule's escaped description is its
// clusters' escaped descriptions joined the same way (WriteJSON relies
// on this).
func appendSignature(b []byte, r Rule, describe func(b []byte, id int) []byte) []byte {
	for i, id := range r.Antecedent {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		b = describe(b, id)
	}
	b = append(b, " ⇒ "...)
	for i, id := range r.Consequent {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		b = describe(b, id)
	}
	return b
}

// appendDegree appends DescribeRule's suffix: " (degree 0.420)", with
// ", support N" before the parenthesis when the support was counted.
// The degree has 3 decimals (strconv's 'f' at precision 3, which is
// fmt's %.3f).
func appendDegree(b []byte, r Rule) []byte {
	b = append(b, " (degree "...)
	b = strconv.AppendFloat(b, r.Degree, 'f', 3, 64)
	if r.Support >= 0 {
		b = append(b, ", support "...)
		b = strconv.AppendInt(b, r.Support, 10)
	}
	return append(b, ')')
}

// Mine runs the full pipeline: Ingest over the relation, the summary
// query engine's frequent-cluster step, the optional descriptive
// post-scan, Phase II rule formation, and the optional candidate-support
// rescan. With PostScan off the result is QueryBase(Ingest(r),
// opt.Query()) plus the Phase I wall time; with it on, the post-scan's
// co-occurrence counts replace the summary histograms' as the nominal
// input to Phase II. Both phases parallelize across Options.Workers
// with output bit-identical to the serial path; Result.PhaseII.Workers
// records the effective Phase II parallelism.
func (m *Miner) Mine() (*Result, error) {
	start := time.Now()
	s, err := Ingest(m.rel, m.part, m.opt)
	if err != nil {
		return nil, err
	}
	// The summary is Mine's own, so its ACFs need no clone.
	res, e := frequentClusters(s, m.opt.Query())
	res.PhaseI.Duration = time.Since(start)
	if !m.opt.PostScan {
		res.Rules, res.PhaseII = e.run(res.Clusters, summaryCooccurrence(res.Clusters, e.nominal))
		return res, nil
	}

	start = time.Now()
	asn, co, err := m.postScan(res.Clusters, e.nominal)
	if err != nil {
		return nil, err
	}
	res.PostScan.Duration = time.Since(start)

	res.Rules, res.PhaseII = e.run(res.Clusters, co)

	start = time.Now()
	if err := m.countRuleSupport(res.Rules, res.Clusters, asn); err != nil {
		return nil, err
	}
	res.PostScan.SupportDuration = time.Since(start)
	if m.opt.MinRuleSupport > 0 {
		// Section 6.2: with the additional frequency requirement the
		// Phase II output is only a candidate set; the rescan's counts
		// settle which candidates survive.
		minCount := int64(m.opt.MinRuleSupport * float64(m.rel.Len()))
		kept := res.Rules[:0]
		for _, r := range res.Rules {
			if r.Support >= minCount {
				kept = append(kept, r)
			}
		}
		res.Rules = kept
	}
	return res, nil
}

// membershipCaps returns the per-group maximum centroid distance for
// cluster membership during rescans: the group's diameter threshold d0
// (a tuple farther than d0 from every frequent centroid is an irrelevant
// point), and exact match for nominal groups.
func (m *Miner) membershipCaps(nominal []bool) []float64 {
	caps := make([]float64, m.part.NumGroups())
	for g := range caps {
		if nominal[g] {
			caps[g] = 0
			continue
		}
		caps[g] = m.opt.diameterFor(g)
	}
	return caps
}
