package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/pkg/client"
)

// planIngest reads what dispatch needs from a cluster ingest body
// without parsing it in full: the record ends planShards cuts at and,
// when the request pins no thresholds, the per-group thresholds every
// shard runs under, pinned into the returned options' D0s. Thresholds
// must never depend on which rows a worker saw, or the merge's
// provenance checks reject the fold. They come from the advisor's own
// sample: relation.SampleCSV parses only the rows core.AdvisorRows
// picks, and SuggestThresholds over those rows alone is bit-identical
// to SuggestThresholds over the whole relation. The scalar D0 is left
// alone (usually zero): a recorded nominal-group D0 falls back to the
// scalar, so forcing it here would diverge from single-node ingest.
//
// The rows outside the sample are checked here only for their field
// count; the worker that mines a row parses it, and its 4xx aborts the
// ingest. The plan runs on the calling goroutine, whatever the
// request's Phase I width: darc's query handlers share the host
// (DESIGN.md §14).
func planIngest(body []byte, opt client.IngestOptions) ([]int64, client.IngestOptions, error) {
	derive := opt.D0 == 0 && opt.D0s == nil
	sample, ends, err := relation.SampleCSV(body, func(rows int) []int {
		if !derive {
			return nil
		}
		return core.AdvisorRows(rows, core.AdvisorOptions{})
	})
	if err != nil {
		return nil, opt, fmt.Errorf("%w: parsing CSV relation: %w", errBadIngest, err)
	}
	part, err := relation.ParseGroupsSpec(sample.Schema(), opt.Groups)
	if err != nil {
		return nil, opt, fmt.Errorf("%w: %w", errBadIngest, err)
	}
	if derive {
		d0s, err := core.SuggestThresholds(sample, part, core.AdvisorOptions{})
		if err != nil {
			return nil, opt, fmt.Errorf("%w: deriving thresholds: %w", errBadIngest, err)
		}
		opt.D0s = d0s
	}
	return ends, opt, nil
}

// planShards splits a CSV body into at most want contiguous row-range
// shards and cuts each out of the body as-is: the body's header bytes
// followed by the bytes of its rows. ends are the body's record ends as
// relation.ParseCSV reports them (ends[0] closes the header,
// ends[i] closes row i-1), so a shard parses to exactly its rows and no
// row is ever rendered back to text. Contiguous ranges (not striping)
// keep the plan a pure function of (rows, want): the shard a row lands
// in never depends on worker count or scheduling, which the
// plan-determinism test pins.
//
// Rows per shard is the ceiling of rows/want, so the actual shard
// count can come out below want for small relations (9 rows into 4
// shards is 3+3+3); every shard is non-empty by construction.
func planShards(body []byte, ends []int64, want int) ([][]byte, error) {
	rows := len(ends) - 1
	if rows < 1 {
		return nil, fmt.Errorf("cluster: relation has no rows to shard")
	}
	want = max(1, min(want, rows))
	per := (rows + want - 1) / want
	header := body[:ends[0]]
	var shards [][]byte
	for start := 0; start < rows; start += per {
		cut := body[ends[start]:ends[min(start+per, rows)]]
		shard := make([]byte, 0, len(header)+len(cut))
		shards = append(shards, append(append(shard, header...), cut...))
	}
	return shards, nil
}

// shardID names shard i of summary name for merge provenance — the ID
// summary.MergeAll reports when a fold conflicts, and the duplicate
// key that proves a requeued shard cannot be folded twice.
func shardID(name string, i int) string {
	return fmt.Sprintf("%s/shard-%04d", name, i)
}
