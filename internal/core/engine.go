package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cftree"
	"repro/internal/distance"
	"repro/internal/summary"
)

// ErrBadQuery marks query options (or option/summary combinations, like
// a filter naming a group the summary does not have) that can never
// produce a result. Every validation failure wraps it, so serving
// layers can map the whole class onto one client-error status.
var ErrBadQuery = errors.New("invalid query")

// QueryOptions are the per-query knobs of Phase II: everything that can
// change between two queries over the same Summary without rescanning
// the relation. Ingest-time parameters (diameter thresholds, memory
// budget, tree geometry) live in Options and are recorded in the
// Summary's provenance. The zero value is not valid; start from
// DefaultQueryOptions or derive from mining options with Options.Query.
type QueryOptions struct {
	// Metric is the cluster distance D for graph edges and rule degrees.
	Metric distance.ClusterMetric
	// FrequencyFraction and MinClusterSize set the s0 frequency floor,
	// exactly as in Options.
	FrequencyFraction float64
	MinClusterSize    int
	// DegreeFactor and GraphFactor scale the rule-degree and graph-edge
	// thresholds (Dfn 5.3, Dfn 6.1).
	DegreeFactor float64
	GraphFactor  float64
	// MaxAntecedent and MaxConsequent bound rule arity.
	MaxAntecedent int
	MaxConsequent int
	// GlobalRefine applies BIRCH's agglomerative repair pass to each
	// group's clusters (bounded by the group's recorded threshold)
	// before frequency filtering.
	GlobalRefine bool
	// PruneImages enables the Section 6.2 graph reduction (exact under
	// D2).
	PruneImages bool
	// Measures annotates every emitted rule with the summary-derived
	// interestingness measures of RuleMeasures (support estimate,
	// confidence analogue, lift, conviction). Pure post-processing over
	// the base rule set: the annotated rules are otherwise identical.
	Measures bool
	// AntecedentGroups, when non-empty, keeps only rules whose
	// antecedents cover every named attribute group (possibly among
	// others). Names must be sorted ascending without duplicates
	// (NormalizeGroupFilters arranges that) and are resolved against the
	// summary's partitioning at query time.
	AntecedentGroups []string
	// ConsequentGroups, when non-empty, keeps only rules whose
	// consequents all lie on the named groups — the paper's
	// target-attribute use case ("rules predicting salary only").
	// Same ordering contract as AntecedentGroups.
	ConsequentGroups []string
	// SweepFactors asks for a degree-factor sweep: for each factor f —
	// strictly ascending, each within (0, DegreeFactor] so the counts
	// are exact — Result.Sweep reports how many of the (filtered) rules
	// hold at degree factor f. One mining pass serves the whole sweep:
	// a rule of degree d holds for every factor >= d.
	SweepFactors []float64
	// TopK, when > 0, keeps only the K strongest rules under the total
	// order (Degree asc, then Antecedent, then Consequent lexicographic
	// — unique because (antecedent, consequent) pairs are deduplicated).
	// Applied after filters; Sweep counts are taken before truncation.
	TopK int
	// Workers parallelizes the query; output is bit-identical at any
	// worker count, so it is deliberately excluded from the canonical
	// key — two queries differing only in Workers share a cache entry.
	Workers int //lint:allow keycoverage execution-only knob; results are bit-identical at any worker count
}

// DefaultQueryOptions mirrors DefaultOptions' Phase II settings.
func DefaultQueryOptions() QueryOptions { return DefaultOptions().Query() }

// Query projects the mining options onto their per-query subset, so a
// Summary can be queried with the exact Phase II configuration a batch
// Mine would have used.
func (o Options) Query() QueryOptions {
	return QueryOptions{
		Metric:            o.Metric,
		FrequencyFraction: o.FrequencyFraction,
		MinClusterSize:    o.MinClusterSize,
		DegreeFactor:      o.DegreeFactor,
		GraphFactor:       o.GraphFactor,
		MaxAntecedent:     o.MaxAntecedent,
		MaxConsequent:     o.MaxConsequent,
		GlobalRefine:      o.GlobalRefine,
		PruneImages:       o.PruneImages,
		Workers:           o.Workers,
	}
}

func (q QueryOptions) validate() error {
	if q.Metric < distance.D0 || q.Metric > distance.D4 {
		return fmt.Errorf("core: unknown cluster metric %d: %w", int(q.Metric), ErrBadQuery)
	}
	if math.IsNaN(q.FrequencyFraction) || q.FrequencyFraction < 0 || q.FrequencyFraction > 1 {
		return fmt.Errorf("core: FrequencyFraction must be in [0,1], got %v: %w", q.FrequencyFraction, ErrBadQuery)
	}
	if q.MinClusterSize < 0 {
		return fmt.Errorf("core: MinClusterSize must be >= 0, got %d: %w", q.MinClusterSize, ErrBadQuery)
	}
	if math.IsNaN(q.DegreeFactor) || math.IsInf(q.DegreeFactor, 0) || q.DegreeFactor <= 0 {
		return fmt.Errorf("core: DegreeFactor must be a finite value > 0, got %v: %w", q.DegreeFactor, ErrBadQuery)
	}
	if math.IsNaN(q.GraphFactor) || math.IsInf(q.GraphFactor, 0) || q.GraphFactor <= 0 {
		return fmt.Errorf("core: GraphFactor must be a finite value > 0, got %v: %w", q.GraphFactor, ErrBadQuery)
	}
	if q.MaxAntecedent < 1 || q.MaxConsequent < 1 {
		return fmt.Errorf("core: MaxAntecedent and MaxConsequent must be >= 1, got %d and %d: %w", q.MaxAntecedent, q.MaxConsequent, ErrBadQuery)
	}
	if q.TopK < 0 {
		return fmt.Errorf("core: TopK must be >= 0, got %d: %w", q.TopK, ErrBadQuery)
	}
	if err := validateGroupFilter("AntecedentGroups", q.AntecedentGroups); err != nil {
		return err
	}
	if err := validateGroupFilter("ConsequentGroups", q.ConsequentGroups); err != nil {
		return err
	}
	for i, f := range q.SweepFactors {
		if math.IsNaN(f) || f <= 0 {
			return fmt.Errorf("core: SweepFactors[%d] must be a finite value > 0, got %v: %w", i, f, ErrBadQuery)
		}
		if f > q.DegreeFactor {
			return fmt.Errorf("core: SweepFactors[%d] = %v exceeds DegreeFactor %v; rules above it are never formed, so the sweep count would be wrong: %w", i, f, q.DegreeFactor, ErrBadQuery)
		}
		if i > 0 && f <= q.SweepFactors[i-1] {
			return fmt.Errorf("core: SweepFactors must be strictly ascending, got %v then %v: %w", q.SweepFactors[i-1], f, ErrBadQuery)
		}
	}
	if q.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d: %w", q.Workers, ErrBadQuery)
	}
	return nil
}

// validateGroupFilter checks the ordering contract of a group-name
// filter: names are non-empty, sorted ascending, duplicate-free — the
// canonical form NormalizeGroupFilters produces, and the only form the
// canonical cache key admits (two spellings of one filter must not
// occupy two cache entries).
func validateGroupFilter(field string, names []string) error {
	for i, n := range names {
		if n == "" {
			return fmt.Errorf("core: %s[%d] is empty: %w", field, i, ErrBadQuery)
		}
		if i > 0 && names[i-1] >= n {
			return fmt.Errorf("core: %s must be sorted ascending without duplicates (got %q before %q); use NormalizeGroupFilters: %w", field, names[i-1], n, ErrBadQuery)
		}
	}
	return nil
}

// minSize returns the absolute frequency threshold s0 for a relation of
// n tuples. It is at least 1: empty clusters are never frequent.
func (q QueryOptions) minSize(n int) int {
	s := q.MinClusterSize
	if s == 0 {
		s = int(q.FrequencyFraction * float64(n))
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (q QueryOptions) effectiveWorkers(tasks int) int {
	return clampWorkers(q.Workers, tasks)
}

// ruleEngine is Phase II as a pure function of (clusters, options,
// per-group d0, nominal flags, co-occurrence): the clustering graph of
// Dfn 6.1, maximal cliques, assoc() sets and rule formation. It never
// touches a relation — only cluster summaries — which is the paper's
// Section 6 architecture made explicit. frequentClusters builds the one
// instance QueryBase and Miner.Mine run; they differ only in where the
// nominal co-occurrence counts come from.
type ruleEngine struct {
	opt       QueryOptions
	numGroups int
	// nominal[g] marks the groups clustered in the Theorem 5.1 regime:
	// their distances are the discrete D2 of co-occurrence counts, not
	// the summary metric.
	nominal []bool
	// d0[g] is the ingest-time diameter threshold of group g: the unit
	// degrees are normalized by (Dfn 5.3) and the basis of the graph
	// edge thresholds.
	d0 []float64
}

// QuerySummary answers a rule query from a Summary alone: refinement,
// frequency filtering, clustering graph, cliques, and rule formation,
// with co-occurrence degrees for nominal groups taken from the
// Summary's exact-value histograms (Theorem 5.2) — no rescan, no
// relation. The same summary can serve any number of queries with
// different options.
//
// It is QueryBase followed by WithQueryModes; a server that memoizes
// bases per summary version composes the two itself.
//
// Mine with PostScan disabled runs this same path over its own Ingest,
// so over the same relation, options and worker count the two agree bit
// for bit (the differential tests pin this); PostScan extras — exact
// boxes, rule supports, the MinRuleSupport filter — need the relation
// and are out of scope here.
func QuerySummary(s *summary.Summary, q QueryOptions) (*Result, error) {
	base, err := QueryBase(s, q)
	if err != nil {
		return nil, err
	}
	return base.WithQueryModes(q, s.GroupIndex)
}

// BaseOptions returns q with its query modes (Measures, both group
// filters, SweepFactors, TopK) cleared: the options that shape the base
// rule set. Two queries whose BaseOptions share a CanonicalKey share a
// base, and differ only in the post-processing WithQueryModes applies.
func (q QueryOptions) BaseOptions() QueryOptions {
	q.Measures = false
	q.AntecedentGroups = nil
	q.ConsequentGroups = nil
	q.SweepFactors = nil
	q.TopK = 0
	return q
}

// QueryBase is the Phase II half of QuerySummary: it validates q, then
// refines and frequency-filters the summary's clusters and forms the
// base rule set of q.BaseOptions() — every mode left unapplied — with
// nominal co-occurrence from the summary's histograms. It only reads s:
// refinement merges clones, and the base's clusters may wrap the
// summary's own ACFs, which nothing in Phase II writes. The returned
// Result is never modified afterwards by this package: WithQueryModes
// works on a copy, so one base can serve concurrent queries.
func QueryBase(s *summary.Summary, q QueryOptions) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil summary")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	res, e := frequentClusters(s, q)
	res.Rules, res.PhaseII = e.run(res.Clusters, summaryCooccurrence(res.Clusters, e.nominal))
	return res, nil
}

// frequentClusters is the summary → Phase II step QueryBase and
// Miner.Mine share. Per group it applies the optional global refinement
// (BIRCH's agglomerative repair pass, bounded by the group's final
// threshold) and the s0 frequency floor; the survivors are ordered by
// (group, centroid, size) and numbered. PhaseIStats come from the
// summary's provenance (ClustersFound counts the post-refinement leaves
// before filtering), and the returned rule engine runs q.BaseOptions()
// over the summary's per-group d0 and nominal flags. The clusters wrap
// the summary's ACFs, or Refine's clones of them in a refined group of
// two or more leaves; s is only read.
func frequentClusters(s *summary.Summary, q QueryOptions) (*Result, *ruleEngine) {
	groups := len(s.Groups)
	e := &ruleEngine{opt: q.BaseOptions(), numGroups: groups, nominal: make([]bool, groups), d0: make([]float64, groups)}
	res := &Result{PhaseI: PhaseIStats{TuplesScanned: int(s.Tuples)}}
	minSize := int64(q.minSize(int(s.Tuples)))
	for g := range s.Groups {
		sg := &s.Groups[g]
		e.nominal[g] = sg.Nominal
		e.d0[g] = sg.D0
		res.PhaseI.Rebuilds += sg.Rebuilds
		res.PhaseI.OutliersPaged += sg.OutliersPaged
		res.PhaseI.Bytes += sg.Bytes
		ls := sg.Clusters
		if q.GlobalRefine {
			ls = cftree.Refine(ls, sg.Threshold)
		}
		res.PhaseI.ClustersFound += len(ls)
		for _, a := range ls {
			if a.N < minSize {
				continue
			}
			c := &Cluster{Group: g, ACF: a, Size: a.N}
			c.approxBox()
			res.Clusters = append(res.Clusters, c)
		}
	}
	sort.Slice(res.Clusters, func(i, j int) bool {
		a, b := res.Clusters[i], res.Clusters[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		ca, cb := a.Centroid(), b.Centroid()
		for k := range ca {
			if ca[k] != cb[k] {
				return ca[k] < cb[k]
			}
		}
		return a.N() > b.N()
	})
	for i, c := range res.Clusters {
		c.ID = i
	}
	res.PhaseI.FrequentClusters = len(res.Clusters)
	return res, e
}

// WithQueryModes returns a new Result: base with the deterministic
// post-processing pipeline of q applied, in this fixed order:
//
//  1. measure annotation (QueryOptions.Measures),
//  2. antecedent/consequent group filters,
//  3. the degree-factor sweep (counted over the filtered rules),
//  4. top-k truncation.
//
// Each stage is exactly the exported helper of the same name
// (AnnotateMeasures, FilterRules, SweepRules, Result.TopRules), so a
// fused engine answer equals the helpers applied to the unfiltered
// answer bit for bit — the differential suite pins this composition.
// The pipeline runs over its own copy of base's rule slice (measure
// annotation writes into it); base and its clusters are only read, so
// any number of calls may share one base concurrently. groupIndex
// resolves filter names against the summary's partitioning.
func (base *Result) WithQueryModes(q QueryOptions, groupIndex func(string) (int, bool)) (*Result, error) {
	res := *base
	res.Rules = slices.Clone(base.Rules)
	if q.Measures {
		AnnotateMeasures(&res)
	}
	if len(q.AntecedentGroups) > 0 || len(q.ConsequentGroups) > 0 {
		ante, err := resolveGroupFilter("AntecedentGroups", q.AntecedentGroups, groupIndex)
		if err != nil {
			return nil, err
		}
		cons, err := resolveGroupFilter("ConsequentGroups", q.ConsequentGroups, groupIndex)
		if err != nil {
			return nil, err
		}
		res.Rules = FilterRules(res.Rules, res.Clusters, ante, cons)
	}
	if len(q.SweepFactors) > 0 {
		res.Sweep = SweepRules(res.Rules, q.SweepFactors)
	}
	if q.TopK > 0 {
		res.Rules = res.TopRules(q.TopK)
	}
	return &res, nil
}

// resolveGroupFilter maps filter names onto group indices, rejecting
// names the summary's partitioning does not have.
func resolveGroupFilter(field string, names []string, groupIndex func(string) (int, bool)) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]int, len(names))
	for i, n := range names {
		g, ok := groupIndex(n)
		if !ok {
			return nil, fmt.Errorf("core: %s names unknown attribute group %q: %w", field, n, ErrBadQuery)
		}
		out[i] = g
	}
	return out, nil
}

// summaryCooccurrence derives the nominal co-occurrence counts Phase II
// needs (Theorem 5.2: D2 = 1 − |cx ∩ cy| / |cx|) from the exact-value
// histograms carried by the clusters; Mine's post-scan replaces them
// with counts under its nearest-centroid membership. A nominal cluster
// cy is, by Theorem 5.1, exactly the set of tuples carrying its value,
// so |cx ∩ cy| is cx's histogram count for that value on cy's group.
func summaryCooccurrence(clusters []*Cluster, nominal []bool) cooccurrence {
	co := make(cooccurrence)
	for _, cy := range clusters {
		if !nominal[cy.Group] {
			continue
		}
		key := cy.ACF.OwnNomKey()
		for _, cx := range clusters {
			if cx.Group == cy.Group {
				continue
			}
			if n := cx.ACF.NomCount(cy.Group, key); n > 0 {
				co.set(cx.ID, cy.ID, n)
			}
		}
	}
	return co
}
