package core

import (
	"sort"
	"time"

	"repro/internal/distance"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// PhaseIIStats reports on the rule-formation phase (Section 7.2 discusses
// the clique counts and edge density; Section 6.2's pruning heuristic is
// measured by the comparison counters — experiment E8).
type PhaseIIStats struct {
	// Duration is the wall time of Phase II (graph + cliques + rules).
	Duration time.Duration
	// CliqueDuration is the time spent enumerating maximal cliques (the
	// "roughly constant ... about 7 seconds" of Section 7.2).
	CliqueDuration time.Duration
	// GraphNodes and GraphEdges describe the clustering graph of Dfn 6.1.
	GraphNodes, GraphEdges int
	// Cliques counts maximal cliques; NonTrivialCliques those with >= 2
	// clusters (the ≈90 of Section 7.2).
	Cliques, NonTrivialCliques int
	// Comparisons counts cluster-pair distance evaluations performed
	// while building the graph; Pruned counts pairs skipped by the
	// Section 6.2 image-density reduction.
	Comparisons, Pruned int
	// Workers is the effective parallelism Phase II ran with (1 = the
	// paper's serial path). The emitted rule set is bit-identical at
	// every worker count; only wall time changes.
	Workers int
}

// run builds the clustering graph over the frequent clusters, finds
// maximal cliques, and emits DARs. All three stages fan out over
// QueryOptions.Workers — graph rows, clique roots and clique pairs are
// independent subproblems — and each stage merges its per-task results
// in task order, so the output is bit-identical to the serial path.
func (e *ruleEngine) run(clusters []*Cluster, co cooccurrence) ([]Rule, PhaseIIStats) {
	start := time.Now()
	var st PhaseIIStats
	st.Workers = e.opt.effectiveWorkers(len(clusters))

	g := e.buildGraph(clusters, &st)
	st.GraphNodes, st.GraphEdges = g.N(), g.Edges()

	cliqueStart := time.Now()
	cliques := g.MaximalCliquesParallel(st.Workers)
	st.CliqueDuration = time.Since(cliqueStart)
	st.Cliques = len(cliques)
	for _, c := range cliques {
		if len(c) >= 2 {
			st.NonTrivialCliques++
		}
	}

	rules := e.rulesFromCliques(clusters, cliques, co)
	st.Duration = time.Since(start)
	return rules, st
}

// edgeThreshold returns the Dfn 6.1 threshold for distances measured on
// group g, scaled by the lenient Phase II factor.
func (e *ruleEngine) edgeThreshold(g int) float64 {
	return e.opt.GraphFactor * e.degreeScale(g)
}

// degreeScale returns the d0 used to normalize degrees on group g. For
// nominal groups the discrete D2 lives in [0,1] and relates to classical
// confidence by Theorem 5.2, so the scale is the nominalDegree option.
func (e *ruleEngine) degreeScale(g int) float64 {
	if e.nominal[g] {
		return e.nominalDegree()
	}
	return e.d0[g]
}

// nominalDegree is the degree threshold for nominal groups: a rule over a
// nominal consequent with degree d corresponds to classical confidence
// 1−d (Theorem 5.2). The fixed default of 0.5 keeps [0,1] semantics.
func (e *ruleEngine) nominalDegree() float64 { return 0.5 }

// imageDist computes D(cy[g], cx[g]) — the distance between the two
// clusters' images on group g. Interval groups use the configured
// summary metric (Theorem 6.1: computable from ACFs); nominal groups use
// the exact discrete D2 derived from co-occurrence counts (Theorem 5.2:
// D2 = 1 − |cx ∩ cy| / |cx|).
func (e *ruleEngine) imageDist(cy, cx *Cluster, g int, co cooccurrence) float64 {
	if e.nominal[g] {
		// Only meaningful when cy lives on g (its image there is the
		// single nominal value the cluster was formed on).
		if cx.Size == 0 {
			return 1
		}
		return 1 - float64(co.get(cx.ID, cy.ID))/float64(cx.Size)
	}
	return e.opt.Metric.Between(cy.Image(g), cx.Image(g))
}

// buildGraph constructs the clustering graph of Dfn 6.1: an edge between
// clusters of different groups whose images are mutually close on both
// groups. The Section 6.2 reduction skips pairs where an image is too
// diffuse to possibly satisfy the threshold: for D2,
// D2² = R1² + R2² + ‖X01−X02‖², so D2 >= max(R1, R2) exactly; for other
// metrics the same test is the paper's heuristic.
func (e *ruleEngine) buildGraph(clusters []*Cluster, st *PhaseIIStats) *graph.Undirected {
	g := graph.New(len(clusters))

	// The image-radius bound is exact only for D2 (and conservative for
	// the other metrics in ways that can drop valid edges, e.g. a
	// centroid-based D1 edge between a compact cluster and a diffuse but
	// well-centered image), so the reduction is only applied under D2 —
	// "depending on the distance metric used, this can be quantified"
	// (Section 6.2).
	prune := e.opt.PruneImages && e.opt.Metric == distance.D2

	// Precompute image radii for the pruning test. Nominal images are
	// never pruned (their distances come from exact counts).
	var radius [][]float64
	if prune {
		radius = make([][]float64, len(clusters))
		for i, c := range clusters {
			radius[i] = make([]float64, e.numGroups)
			for gi := 0; gi < e.numGroups; gi++ {
				if e.nominal[gi] {
					continue
				}
				radius[i][gi] = c.Image(gi).Radius()
			}
		}
	}

	// Each row i (its pairs {i, j>i}) is an independent task; rows write
	// only their own slot and are merged in row order afterwards. The
	// edge set is order-independent, so the graph — and every stat — is
	// identical at any worker count.
	type graphRow struct {
		edges               []int
		comparisons, pruned int
	}
	rows := make([]graphRow, len(clusters))
	parallel.For(e.opt.effectiveWorkers(len(clusters)), len(clusters), func(i int) {
		row := &rows[i]
		ci := clusters[i]
		for j := i + 1; j < len(clusters); j++ {
			cj := clusters[j]
			if ci.Group == cj.Group {
				continue
			}
			tI := e.edgeThreshold(ci.Group)
			tJ := e.edgeThreshold(cj.Group)
			if prune {
				// cj's image on ci's group must reach ci, and vice
				// versa; a diffuse image cannot.
				if !e.nominal[ci.Group] && (radius[j][ci.Group] > tI || radius[i][ci.Group] > tI) ||
					!e.nominal[cj.Group] && (radius[i][cj.Group] > tJ || radius[j][cj.Group] > tJ) {
					row.pruned++
					continue
				}
			}
			row.comparisons++
			// Dfn 6.1 requires closeness on both groups. Use the
			// summary metric for interval groups; nominal groups fall
			// back to the interval-style check only when co-occurrence
			// data exists (handled in imageDist via rule degrees), so
			// here nominal sides use the cluster pair's discrete D2.
			dI := e.pairDist(ci, cj, ci.Group)
			if dI > tI {
				continue
			}
			dJ := e.pairDist(ci, cj, cj.Group)
			if dJ > tJ {
				continue
			}
			row.edges = append(row.edges, j)
		}
	})
	for i := range rows {
		for _, j := range rows[i].edges {
			g.AddEdge(i, j)
		}
		st.Comparisons += rows[i].comparisons
		st.Pruned += rows[i].pruned
	}
	return g
}

// pairDist is the symmetric distance between two clusters' images on
// group g used for graph edges. For nominal groups the summary metric on
// codes is meaningless, so the discrete D2 from co-occurrence is used
// during rule formation instead; at graph time we conservatively treat the
// pair as close on the nominal side (distance 0) and let the degree test
// filter, unless one of the clusters owns the group, in which case the
// test is deferred identically.
func (e *ruleEngine) pairDist(a, b *Cluster, g int) float64 {
	if e.nominal[g] {
		return 0
	}
	return e.opt.Metric.Between(a.Image(g), b.Image(g))
}

// candidateRule is a rule before support counting.
type candidateRule struct {
	ante, cons []int
	degree     float64
}

// rulesFromCliques implements Section 6.2's rule formation: for every
// pair of cliques (Q1 antecedent side, Q2 consequent side — including
// Q1 = Q2, whose split rules Dfn 5.3 equally admits), compute
// assoc(C_Yj) = {C_Xi : D(C_Yj[Yj], C_Xi[Yj]) <= D0^Yj} and emit
// C_X' ⇒ C_Y' for every C_Y' ⊆ Q2 and C_X' ⊆ ∩ assoc, with attribute
// groups disjoint across the rule and arity bounded by the options.
// Parallel runs fan the antecedent cliques out over the worker pool:
// each Q1 enumerates all Q2 with a task-local dedup map, and the
// per-task rule lists are merged in Q1 order under a global dedup.
// A duplicate (antecedent, consequent) pair carries the same degree
// wherever it is discovered — the distances depend only on the cluster
// sets, not on the clique pair that surfaced them — so first-wins
// merging yields the serial rule set exactly.
func (e *ruleEngine) rulesFromCliques(clusters []*Cluster, cliques [][]int, co cooccurrence) []Rule {
	var out []Rule
	workers := e.opt.effectiveWorkers(len(cliques))
	if workers <= 1 {
		seen := make(map[string]bool)
		for qi := 0; qi < len(cliques); qi++ {
			for qj := 0; qj < len(cliques); qj++ {
				e.rulesFromCliquePair(clusters, cliques[qi], cliques[qj], co, seen, &out)
			}
		}
	} else {
		perQ1 := make([][]Rule, len(cliques))
		parallel.For(workers, len(cliques), func(qi int) {
			local := make(map[string]bool)
			var rules []Rule
			for qj := 0; qj < len(cliques); qj++ {
				e.rulesFromCliquePair(clusters, cliques[qi], cliques[qj], co, local, &rules)
			}
			perQ1[qi] = rules
		})
		seen := make(map[string]bool)
		for _, rules := range perQ1 {
			for _, r := range rules {
				key := ruleKey(r.Antecedent, r.Consequent)
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, r)
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree < out[j].Degree
		}
		if !intsEqual(out[i].Antecedent, out[j].Antecedent) {
			return lessInts(out[i].Antecedent, out[j].Antecedent)
		}
		return lessInts(out[i].Consequent, out[j].Consequent)
	})
	return out
}

func (e *ruleEngine) rulesFromCliquePair(clusters []*Cluster, q1, q2 []int, co cooccurrence, seen map[string]bool, out *[]Rule) {
	// assoc per consequent candidate: antecedent clusters strongly
	// associated with it (Section 6.2). Distances are normalized by the
	// consequent group's degree scale so one DegreeFactor applies across
	// groups of different units.
	type assocEntry struct {
		id   int
		dist float64 // normalized
	}
	assoc := make(map[int][]assocEntry, len(q2))
	for _, cyID := range q2 {
		cy := clusters[cyID]
		scale := e.degreeScale(cy.Group)
		var entries []assocEntry
		for _, cxID := range q1 {
			cx := clusters[cxID]
			if cx.Group == cy.Group || cxID == cyID {
				continue
			}
			d := e.imageDist(cy, cx, cy.Group, co) / scale
			if d <= e.opt.DegreeFactor {
				entries = append(entries, assocEntry{id: cxID, dist: d})
			}
		}
		if len(entries) > 0 {
			assoc[cyID] = entries
		}
	}
	if len(assoc) == 0 {
		return
	}

	// Consequent candidates: clusters of q2 with non-empty assoc.
	consPool := make([]int, 0, len(assoc))
	for _, cyID := range q2 {
		if _, ok := assoc[cyID]; ok {
			consPool = append(consPool, cyID)
		}
	}

	forEachSubset(consPool, e.opt.MaxConsequent, func(cons []int) {
		// Intersect the assoc sets, tracking each antecedent's worst
		// normalized distance across the consequents.
		inter := map[int]float64{}
		for _, e := range assoc[cons[0]] {
			inter[e.id] = e.dist
		}
		consGroups := map[int]bool{}
		for _, cyID := range cons {
			consGroups[clusters[cyID].Group] = true
		}
		for _, cyID := range cons[1:] {
			next := map[int]float64{}
			for _, e := range assoc[cyID] {
				if w, ok := inter[e.id]; ok {
					if e.dist > w {
						w = e.dist
					}
					next[e.id] = w
				}
			}
			inter = next
			if len(inter) == 0 {
				return
			}
		}
		// Remove antecedents on consequent groups; order deterministically.
		pool := make([]int, 0, len(inter))
		for id := range inter {
			if !consGroups[clusters[id].Group] {
				pool = append(pool, id)
			}
		}
		sort.Ints(pool)
		if len(pool) == 0 {
			return
		}
		forEachSubset(pool, e.opt.MaxAntecedent, func(ante []int) {
			degree := 0.0
			for _, id := range ante {
				if d := inter[id]; d > degree {
					degree = d
				}
			}
			key := ruleKey(ante, cons)
			if seen[key] {
				return
			}
			seen[key] = true
			*out = append(*out, Rule{
				Antecedent: append([]int(nil), ante...),
				Consequent: append([]int(nil), cons...),
				Degree:     degree,
				Support:    -1,
			})
		})
	})
}

// forEachSubset calls fn with every non-empty subset of pool of size at
// most maxSize. The slice passed to fn is reused.
func forEachSubset(pool []int, maxSize int, fn func([]int)) {
	if maxSize > len(pool) {
		maxSize = len(pool)
	}
	subset := make([]int, 0, maxSize)
	var rec func(start int)
	rec = func(start int) {
		if len(subset) > 0 {
			fn(subset)
		}
		if len(subset) == maxSize {
			return
		}
		for i := start; i < len(pool); i++ {
			subset = append(subset, pool[i])
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
}

func ruleKey(ante, cons []int) string {
	buf := make([]byte, 0, (len(ante)+len(cons))*3+1)
	for _, id := range ante {
		buf = appendUvarint(buf, uint64(id))
	}
	buf = append(buf, 0xFF)
	for _, id := range cons {
		buf = appendUvarint(buf, uint64(id))
	}
	return string(buf)
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
