package cluster

import "fmt"

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
