package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/summary"
)

// IncrementalMiner ingests tuples one at a time and can produce a rule
// snapshot at any point. It exploits what the paper's design already
// guarantees: Phase I is incremental by construction (the ACF-trees are
// built tuple-by-tuple in a single pass) and Phase II runs entirely on
// the in-memory summaries, so no stored relation is ever needed.
//
// Nominal attribute groups are supported: the ingest layer histograms
// exact nominal projections in every leaf ACF, so snapshot queries get
// their Theorem 5.2 co-occurrence degrees from the summary, as Mine
// does without PostScan. The remaining trade-off against the batch
// Miner is the loss of the descriptive post-scan — bounding boxes are
// approximate and rule supports are not counted — which is why
// Options.PostScan must be off (it is rejected rather than silently
// overridden). Workers is honored by Snapshot's Phase II.
type IncrementalMiner struct {
	opt Options
	ing *ingester
}

// NewIncrementalMiner builds a streaming miner over the partitioning.
func NewIncrementalMiner(part *relation.Partitioning, opt Options) (*IncrementalMiner, error) {
	if part == nil {
		return nil, fmt.Errorf("core: nil partitioning")
	}
	if err := opt.validate(part.NumGroups()); err != nil {
		return nil, err
	}
	if opt.PostScan {
		return nil, fmt.Errorf("core: incremental mining keeps no relation to rescan; set Options.PostScan = false (snapshots use approximate boxes and summary-derived co-occurrence instead)")
	}
	return &IncrementalMiner{opt: opt, ing: newIngester(part, opt, 0)}, nil
}

// Add ingests one tuple (full schema width).
func (im *IncrementalMiner) Add(tuple []float64) error {
	return im.ing.add(tuple)
}

// Seen returns the number of tuples ingested so far.
func (im *IncrementalMiner) Seen() int { return im.ing.seen }

// Summary snapshots the current Phase I state — per-group clusters plus
// provenance — without consuming the stream. The summary is fully
// decoupled (cloned), so it can be queried, serialized or merged while
// ingestion continues.
func (im *IncrementalMiner) Summary() (*summary.Summary, error) {
	leaves, stats, err := im.ing.collect(false)
	if err != nil {
		return nil, err
	}
	return im.ing.summarize(leaves, stats), nil
}

// Snapshot mines the current summaries into a Result without consuming
// the stream: further Add calls continue from the same state. The
// frequency threshold applies relative to the tuples seen so far.
func (im *IncrementalMiner) Snapshot() (*Result, error) {
	s, err := im.Summary()
	if err != nil {
		return nil, err
	}
	return QuerySummary(s, im.opt.Query())
}
