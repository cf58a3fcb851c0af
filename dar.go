// Package dar mines distance-based association rules (DARs) over interval
// data — a Go implementation of R. J. Miller and Y. Yang, "Association
// Rules over Interval Data", SIGMOD 1997.
//
// Classical association rules treat data values as opaque symbols: the
// rule Salary=40,000 is either matched exactly or not at all, so a tuple
// with Salary=40,100 contributes nothing. For interval data — ordered
// data where the separation between values has meaning — the paper
// replaces exact values with clusters and replaces support/confidence
// with distance-derived measures: a cluster must be dense (diameter
// within d0) and frequent (at least s0 tuples), and a rule
// C_X ⇒ C_Y holds with degree of association D0 when the consequent
// cluster's image is within D0 of the antecedent cluster's image on the
// consequent attributes. Lower degree means a stronger rule; under the
// 0/1 metric the degree is exactly 1 − classical confidence (Theorem
// 5.2), so DARs strictly generalize classical association rules.
//
// Mining runs in two phases with a single data scan plus optional
// descriptive rescans: Phase I builds one adaptive ACF-tree (a BIRCH
// CF-tree whose leaves carry projection sums onto every other attribute
// group) per attribute group, raising its diameter threshold and
// rebuilding whenever a memory budget is exceeded; Phase II works purely
// on the in-memory summaries — it builds the clustering graph, finds
// maximal cliques of mutually close clusters, and enumerates rules.
//
// # Quick start
//
//	schema := dar.MustSchema(
//		dar.Attribute{Name: "Age", Kind: dar.Interval},
//		dar.Attribute{Name: "Salary", Kind: dar.Interval},
//	)
//	rel := dar.NewRelation(schema)
//	// ... rel.AppendRow(age, salary) for each tuple ...
//	opt := dar.DefaultOptions()
//	opt.DiameterThreshold = 2500 // d0: cluster compactness, in data units
//	res, err := dar.Mine(rel, dar.SingletonPartitioning(schema), opt)
//	for _, r := range res.Rules {
//		fmt.Println(res.DescribeRule(r, rel, part))
//	}
//
// The package also exposes the paper's baselines: MineQAR (generalized
// quantitative association rules, Dfn 4.4 — clusters scored with
// classical support/confidence) and the equi-depth SA96 miner in
// internal/qar used by the experiment harness.
package dar

import (
	"io"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/relation"
	"repro/internal/summary"
)

// Re-exported data-model types. See the underlying packages for full
// method documentation.
type (
	// Relation is an in-memory relation (internal/relation.Relation).
	Relation = relation.Relation
	// Source abstracts where tuples come from: an in-memory Relation or
	// a disk-backed DiskRelation, scanned sequentially either way.
	Source = relation.Source
	// DiskRelation is a file-backed Source (one sequential file read per
	// scan, with a scan counter).
	DiskRelation = relation.DiskRelation
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Attribute is one column: a name plus its scale of measurement.
	Attribute = relation.Attribute
	// Kind is an attribute's scale of measurement.
	Kind = relation.Kind
	// Partitioning groups attributes into the disjoint sets X_i the
	// algorithms are defined over.
	Partitioning = relation.Partitioning
	// Group is one attribute group of a partitioning.
	Group = relation.Group
)

// Attribute kinds.
const (
	// Interval marks ordered data with meaningful separations (the
	// paper's subject).
	Interval = relation.Interval
	// Ordinal marks ordered data whose separations carry no meaning.
	Ordinal = relation.Ordinal
	// Nominal marks unordered categorical data.
	Nominal = relation.Nominal
)

// Re-exported mining types.
type (
	// Options configures mining; start from DefaultOptions.
	Options = core.Options
	// Result is the outcome of Mine.
	Result = core.Result
	// Rule is a distance-based association rule.
	Rule = core.Rule
	// Cluster is a frequent Phase I cluster.
	Cluster = core.Cluster
	// QARResult is the outcome of the generalized-QAR baseline.
	QARResult = core.QARResult
	// QARRule is a cluster rule with classical measures.
	QARRule = core.QARRule
	// ClusterMetric selects the cluster distance D (D0, D1, D2, ...).
	ClusterMetric = distance.ClusterMetric
)

// Cluster distance metrics (Section 5 / [ZRL96]).
const (
	// D0 is the Euclidean distance between centroids.
	D0 = distance.D0
	// D1 is the Manhattan distance between centroids (Eq. 5).
	D1 = distance.D1
	// D2 is the average inter-cluster distance (Eq. 6).
	D2 = distance.D2
)

// NewSchema builds a schema; attribute names must be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) { return relation.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema { return relation.MustSchema(attrs...) }

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation { return relation.NewRelation(s) }

// ReadCSV reads a relation in the annotated-header CSV format
// ("name:kind,..." header, one row per tuple).
func ReadCSV(r io.Reader) (*Relation, error) { return relation.ReadCSV(r) }

// WriteCSV writes a relation in the annotated-header CSV format.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// SingletonPartitioning puts every attribute in its own group — the
// common case.
func SingletonPartitioning(s *Schema) *Partitioning {
	return relation.SingletonPartitioning(s)
}

// NewPartitioning builds a partitioning with explicit (possibly
// multi-attribute) groups.
func NewPartitioning(s *Schema, groups []Group) (*Partitioning, error) {
	return relation.NewPartitioning(s, groups)
}

// ParseGroupsSpec builds a partitioning from a comma-separated spec of
// "+"-joined attribute names ("lat+lon,price"); attributes not
// mentioned get their own singleton group. An empty spec is
// all-singletons. This is the syntax of `darminer -groups` and the dard
// ingest endpoint.
func ParseGroupsSpec(s *Schema, spec string) (*Partitioning, error) {
	return relation.ParseGroupsSpec(s, spec)
}

// DefaultOptions returns the paper's evaluation defaults. Callers should
// set DiameterThreshold (d0) to a sensible compactness scale for their
// data; everything else has reasonable defaults.
func DefaultOptions() Options { return core.DefaultOptions() }

// Mine discovers distance-based association rules in the source under
// the partitioning.
func Mine(rel Source, part *Partitioning, opt Options) (*Result, error) {
	m, err := core.NewMiner(rel, part, opt)
	if err != nil {
		return nil, err
	}
	return m.Mine()
}

// SpillToDisk writes the relation to a binary tuple file and returns a
// disk-backed Source over it, for data sets that should not be held in
// memory during mining.
func SpillToDisk(rel *Relation, path string) (*DiskRelation, error) {
	return relation.SpillToDisk(rel, path)
}

// OpenDisk opens an existing binary tuple file against its schema.
func OpenDisk(path string, schema *Schema) (*DiskRelation, error) {
	return relation.OpenDisk(path, schema)
}

// MineQAR runs the generalized quantitative association rule baseline of
// Section 4.3 (distance-aware clusters, classical measures).
func MineQAR(rel Source, part *Partitioning, opt Options, minConfidence float64) (*QARResult, error) {
	m, err := core.NewQARMiner(rel, part, opt, minConfidence)
	if err != nil {
		return nil, err
	}
	return m.Mine()
}

// IncrementalMiner ingests tuples one at a time and can snapshot rules at
// any point — see core.IncrementalMiner.
type IncrementalMiner = core.IncrementalMiner

// NewIncrementalMiner builds a streaming miner. Nominal groups are
// supported: ingest-time histograms stand in for the co-occurrence
// rescan. Options.PostScan must be off — a stream keeps no relation to
// rescan, so snapshots use approximate boxes and leave rule supports
// uncounted.
func NewIncrementalMiner(part *Partitioning, opt Options) (*IncrementalMiner, error) {
	return core.NewIncrementalMiner(part, opt)
}

// Summary is a persistable, mergeable Phase I artifact: per-group
// frequent-cluster candidates (ACFs) plus the provenance a query needs —
// schema and partitioning, tuple count, thresholds, rebuild statistics.
// Produce one with Ingest (or IncrementalMiner.Summary), serialize it
// with EncodeSummary/DecodeSummary, combine disjoint shards with
// MergeSummaries, and answer rule queries with Query.
type Summary = summary.Summary

// QueryOptions are the per-query Phase II knobs — everything that can
// change between two queries over the same Summary without re-ingesting.
type QueryOptions = core.QueryOptions

// DefaultQueryOptions mirrors DefaultOptions' Phase II settings.
func DefaultQueryOptions() QueryOptions { return core.DefaultQueryOptions() }

// Ingest runs Phase I over the source and returns its Summary. One
// ingest serves arbitrarily many Query calls; summaries of disjoint
// shards of a relation combine with MergeSummaries. Ingest-time options
// (diameter thresholds, memory budget, tree geometry) are fixed here and
// recorded in the Summary; per-query options are supplied to Query.
func Ingest(rel Source, part *Partitioning, opt Options) (*Summary, error) {
	return core.Ingest(rel, part, opt)
}

// Query answers a rule query from a Summary alone — no relation, no
// rescan. Mine with PostScan disabled is Ingest followed by this same
// engine, so over the same relation and options the two produce
// bit-identical rules, nominal groups included. The PostScan extras
// (exact bounding boxes, rule support counts, MinRuleSupport, nominal
// degrees under the rescan's membership) need the relation and are not
// available on this path.
//
// Beyond the base rule set, QueryOptions selects server-side
// post-processing: interestingness measures (Measures), antecedent and
// consequent group filters, a degree-factor sweep, and top-k
// truncation. Each mode is also available as a standalone helper
// (AnnotateMeasures, FilterRules via group indices, SweepRules,
// Result.TopRules) producing bit-identical output.
func Query(s *Summary, q QueryOptions) (*Result, error) {
	return core.QuerySummary(s, q)
}

// Query-mode types (see core for method documentation).
type (
	// RuleMeasures are per-rule interestingness measures derived from
	// the summary alone — support upper bound, confidence analogue,
	// lift, conviction.
	RuleMeasures = core.RuleMeasures
	// SweepPoint is one entry of a degree-factor sweep.
	SweepPoint = core.SweepPoint
	// RuleDiff is the outcome of DiffRules.
	RuleDiff = core.RuleDiff
	// DiffEntry is a rule present on only one side of a diff.
	DiffEntry = core.DiffEntry
	// DiffChange is a rule whose degree changed between two summaries.
	DiffChange = core.DiffChange
)

// ConvictionInfinite is the sentinel RuleMeasures.Conviction takes when
// the measure diverges (confidence 1).
const ConvictionInfinite = core.ConvictionInfinite

// ErrBadQuery marks query options that can never produce a result;
// every QueryOptions validation failure wraps it.
var ErrBadQuery = core.ErrBadQuery

// NormalizeGroupFilters sorts and deduplicates the group filters of the
// options in place, establishing the canonical form Validate requires.
func NormalizeGroupFilters(q *QueryOptions) { core.NormalizeGroupFilters(q) }

// AnnotateMeasures attaches RuleMeasures to every rule of the result.
func AnnotateMeasures(res *Result) { core.AnnotateMeasures(res) }

// DiffRules compares two mined results by rendered rule signature,
// reporting added, removed, changed-degree and unchanged rules. Each
// side renders through its own source and partitioning, so summaries
// whose nominal dictionaries disagree still compare by value.
func DiffRules(oldRes, newRes *Result, oldRel, newRel Source, oldPart, newPart *Partitioning) RuleDiff {
	return core.DiffRules(oldRes, newRes, oldRel, newRel, oldPart, newPart)
}

// WriteDiffJSON renders a diff as indented JSON — the exact bytes
// `darminer diff -json` prints and the dard diff endpoint serves.
func WriteDiffJSON(w io.Writer, d RuleDiff) error { return core.WriteDiffJSON(w, d) }

// MergeSummaries combines summaries of two disjoint shards of a
// relation into a summary of their union, by ACF additivity (Theorem
// 4.2). The shards must share a schema fingerprint and ingest
// configuration; nominal dictionaries may differ (codes are remapped).
func MergeSummaries(a, b *Summary) (*Summary, error) {
	return summary.Merge(a, b)
}

// EncodeSummary serializes a Summary in the versioned .acfsum binary
// format (magic "ACFS", format version, CRC-32 footer).
func EncodeSummary(s *Summary) ([]byte, error) { return summary.Encode(s) }

// DecodeSummary parses a .acfsum blob, rejecting unknown versions and
// corrupt or non-canonical encodings.
func DecodeSummary(data []byte) (*Summary, error) { return summary.Decode(data) }

// WriteJSON exports a mining result as indented JSON for downstream
// tooling.
func WriteJSON(w io.Writer, res *Result, rel Source, part *Partitioning) error {
	return core.WriteJSON(w, res, rel, part)
}

// AdvisorOptions tunes SuggestThresholds.
type AdvisorOptions = core.AdvisorOptions

// SuggestThresholds derives per-group diameter thresholds (d0) from the
// data itself — the guidance the paper notes classical miners never give
// their users. The result plugs into Options.DiameterThresholds.
func SuggestThresholds(rel Source, part *Partitioning, opt AdvisorOptions) ([]float64, error) {
	return core.SuggestThresholds(rel, part, opt)
}

// Ranked returns a copy of the relation with every ordinal attribute's
// values replaced by their (average) ranks. Ordinal data carries order
// but no meaningful separations, so clustering it directly would invent
// distances; rank space gives the equi-depth semantics the paper
// prescribes for ordinal attributes while letting the same machinery run.
func Ranked(rel *Relation) *Relation { return relation.Ranked(rel) }
