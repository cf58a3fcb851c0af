package core

import (
	"fmt"
	"time"

	"repro/internal/relation"
)

// Miner mines distance-based association rules from a relation under a
// fixed attribute partitioning (Section 6). Mine is the summary pipeline
// — Ingest, then the query engine's frequent-cluster step and rule
// engine — plus the relation-dependent post-scan passes a summary
// cannot answer.
type Miner struct {
	opt  Options
	rel  relation.Source
	part *relation.Partitioning
}

// NewMiner validates the options against the partitioning and returns a
// miner ready to Mine. The source may be an in-memory Relation or a
// disk-backed DiskRelation; mining only ever scans it sequentially.
func NewMiner(rel relation.Source, part *relation.Partitioning, opt Options) (*Miner, error) {
	if rel == nil || part == nil {
		return nil, fmt.Errorf("core: nil relation or partitioning")
	}
	if part.Schema() != rel.Schema() {
		return nil, fmt.Errorf("core: partitioning is over a different schema")
	}
	if err := opt.validate(part.NumGroups()); err != nil {
		return nil, err
	}
	return &Miner{opt: opt, rel: rel, part: part}, nil
}

// PhaseIStats reports on the clustering phase.
type PhaseIStats struct {
	// Duration is the wall time of the single data scan (Figure 6 plots
	// this against relation size).
	Duration time.Duration
	// TuplesScanned is the relation size |r|.
	TuplesScanned int
	// ClustersFound is the total number of leaf ACFs across all trees
	// (the ≈1050 of Section 7.2), before frequency filtering.
	ClustersFound int
	// FrequentClusters survived the frequency threshold s0.
	FrequentClusters int
	// Rebuilds counts adaptive threshold raises across all trees.
	Rebuilds int
	// OutliersPaged counts summaries paged out across all trees.
	OutliersPaged int
	// Bytes is the final estimated memory footprint of all trees.
	Bytes int
}
