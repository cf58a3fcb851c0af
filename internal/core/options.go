// Package core implements the paper's primary contribution: mining
// distance-based association rules (DARs) over interval data. The Miner
// runs the two-phase algorithm of Section 6 — Phase I builds one adaptive
// ACF-tree per attribute group in a single data scan; Phase II filters
// frequent clusters, builds the clustering graph of Dfn 6.1, enumerates
// maximal cliques, computes assoc() sets and emits N:M rules (Dfn 5.3)
// ranked by degree of association. The package also provides the
// generalized quantitative association rule miner of Section 4.3
// (QARMiner) and exact small-data evaluators used to verify Theorems 5.1
// and 5.2 and to reproduce the worked examples of Figures 1, 2 and 4.
package core

import (
	"fmt"
	"math"

	"repro/internal/distance"
)

// Options configures a Miner. The zero value is not valid; use
// DefaultOptions as a starting point.
type Options struct {
	// Metric is the cluster distance D used for the clustering graph and
	// rule degrees. The default is D2, the average inter-cluster distance
	// of Eq. 6, which Theorem 5.2 relates to classical confidence.
	Metric distance.ClusterMetric

	// DiameterThreshold is the default density threshold d0 applied to
	// every attribute group. A cluster's diameter on its own group must
	// stay within the threshold.
	DiameterThreshold float64
	// DiameterThresholds optionally overrides the threshold per attribute
	// group (d0^X in the paper). Missing or zero entries fall back to
	// DiameterThreshold.
	DiameterThresholds []float64

	// FrequencyFraction is the frequency threshold s0 expressed as a
	// fraction of the relation size (the paper's Section 7.2 uses 3%).
	// Clusters supported by fewer tuples are not used in Phase II.
	FrequencyFraction float64
	// MinClusterSize is the absolute frequency threshold; when > 0 it
	// takes precedence over FrequencyFraction.
	MinClusterSize int

	// DegreeFactor scales the degree-of-association threshold: a rule
	// constraint D(C_Y[Y], C_X[Y]) must be at most DegreeFactor·d0^Y.
	// Degrees are reported normalized by d0^Y, so a rule "holds with
	// degree" <= DegreeFactor. Defaults to 1.
	DegreeFactor float64
	// GraphFactor scales the clustering-graph edge thresholds of Dfn 6.1.
	// The paper found "using a more lenient (higher) threshold in Phase
	// II produces a better set of rules"; the default is 2.
	GraphFactor float64

	// MaxAntecedent and MaxConsequent bound the number of clusters on
	// each side of an emitted rule (subset enumeration over assoc() sets
	// is exponential otherwise). Defaults: 3 and 2.
	MaxAntecedent int
	MaxConsequent int

	// GlobalRefine enables BIRCH's global clustering pass at the end of
	// Phase I: leaf clusters of each tree are agglomeratively merged
	// while the union satisfies the admission criteria. The local,
	// insertion-order-sensitive tree construction leaves boundary
	// fragments (duplicate leaf entries for one natural cluster);
	// refinement repairs them without touching the data. Defaults to
	// true.
	GlobalRefine bool

	// PruneImages enables the Phase II reduction of Section 6.2: cluster
	// images with poor density (image radius beyond the group's edge
	// threshold) are skipped when computing graph edges. For the D2
	// metric the bound is exact (D2² = R1² + R2² + D0² ≥ R1²), so the
	// rule set is unchanged; for D0/D1 it is the paper's heuristic.
	// Defaults to true.
	PruneImages bool

	// MemoryLimit is the Phase I budget in bytes across all ACF-trees
	// (the paper's experiment used 5MB). Zero means unlimited.
	MemoryLimit int
	// Branching and LeafCapacity configure the ACF-trees.
	Branching    int
	LeafCapacity int
	// PageOutliers enables paging low-support clusters out of the trees
	// during rebuilds (to in-memory stores) and re-absorbing them at the
	// end of the scan, as in Section 4.3.1.
	PageOutliers bool

	// Workers sets mining parallelism for both phases. 0 or 1 keeps the
	// paper's fully serial execution. Phase I scans the relation ONCE,
	// projects every tuple into a flat row and inserts tuple batches
	// into min(Workers, groups) lanes, each owning a deterministic
	// stripe of the attribute-group trees; the scanning goroutine is
	// lane 0, so Workers = w starts at most w − 1 goroutines and one
	// lane is the serial scan. Phase II fans out over the sanctioned
	// pool: clustering-graph rows, maximal-clique roots, and per-clique
	// assoc()/rule formation all run as independent tasks whose results
	// are merged in task order. The mined output — clusters, rules,
	// degrees, supports, ordering — is bit-identical to the serial path
	// at every worker count, and Phase I keeps the paper's single-scan
	// IO behaviour in every mode (the old group-parallel mode re-read
	// the relation once per group).
	Workers int

	// PostScan enables the optional post-processing of Section 6.2: two
	// extra scans, three in all with Phase I's. Both assign every tuple
	// to its nearest frequent cluster per group. The first, before rule
	// formation, computes exact cluster bounding boxes (the rule
	// description of Section 7.2) and tallies cluster co-occurrence,
	// which replaces the summary histograms' as the nominal groups'
	// discrete distances. The second counts the joint support of every
	// candidate rule.
	PostScan bool

	// MinRuleSupport applies Section 6.2's "additional frequency
	// requirement": rules whose counted joint support falls below this
	// fraction of the relation are discarded after the candidate-support
	// rescan ("these rules are only candidate rules"). Requires PostScan.
	// Zero keeps every candidate.
	MinRuleSupport float64
}

// DefaultOptions returns the options used throughout the paper's
// evaluation: D2 degrees, lenient Phase II graph thresholds, pruning on,
// and a 3% frequency threshold.
func DefaultOptions() Options {
	return Options{
		Metric:            distance.D2,
		DiameterThreshold: 1,
		FrequencyFraction: 0.03,
		DegreeFactor:      1,
		GraphFactor:       2,
		MaxAntecedent:     3,
		MaxConsequent:     2,
		GlobalRefine:      true,
		PruneImages:       true,
		PostScan:          true,
	}
}

// validate checks the ingest-time fields and leaves the Phase II ones
// to QueryOptions.validate. NaN fails every comparison, so each range
// test is written to reject it.
func (o Options) validate(numGroups int) error {
	if !(o.DiameterThreshold >= 0) || math.IsInf(o.DiameterThreshold, 1) {
		return fmt.Errorf("core: DiameterThreshold must be a finite value >= 0, got %v", o.DiameterThreshold)
	}
	if o.DiameterThresholds != nil && len(o.DiameterThresholds) != numGroups {
		return fmt.Errorf("core: %d per-group diameter thresholds for %d groups", len(o.DiameterThresholds), numGroups)
	}
	for g, d := range o.DiameterThresholds {
		if !(d >= 0) || math.IsInf(d, 1) {
			return fmt.Errorf("core: DiameterThresholds[%d] must be a finite value >= 0 (0 falls back to DiameterThreshold), got %v", g, d)
		}
	}
	if !(o.MinRuleSupport >= 0 && o.MinRuleSupport <= 1) {
		return fmt.Errorf("core: MinRuleSupport must be in [0,1], got %v", o.MinRuleSupport)
	}
	if o.MinRuleSupport > 0 && !o.PostScan {
		return fmt.Errorf("core: MinRuleSupport needs PostScan (support comes from the candidate rescan)")
	}
	return o.Query().validate()
}

// diameterFor returns d0 for a group.
func (o Options) diameterFor(group int) float64 {
	if o.DiameterThresholds != nil && o.DiameterThresholds[group] > 0 {
		return o.DiameterThresholds[group]
	}
	return o.DiameterThreshold
}
