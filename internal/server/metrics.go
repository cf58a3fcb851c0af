package server

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
)

// Metrics is the server's observability surface: monotonic counters for
// requests, errors, cache behaviour and catalog churn, plus a few
// point-in-time gauges computed at scrape time. GET /metrics renders it
// as one flat expvar-style JSON object (encoding/json emits map keys
// sorted, so scrapes are diff-friendly).
//
// Everything here is telemetry: none of these values feed back into
// mined rules, which is what keeps the serving layer inside the repo's
// determinism contract (see DESIGN.md §6) — the only wall-clock reads
// are the //lint:telemetry-tagged latency accumulators.
type Metrics struct {
	// Per-endpoint request counters (counted on arrival).
	IngestRequests      atomic.Int64
	ShardIngestRequests atomic.Int64
	InstallRequests     atomic.Int64
	MergeRequests       atomic.Int64
	QueryRequests       atomic.Int64
	DiffRequests        atomic.Int64
	ListRequests        atomic.Int64
	SnapshotRequests    atomic.Int64

	// Errors counts requests answered with a 4xx/5xx status.
	Errors atomic.Int64

	// Query serving breakdown. A query request is answered by exactly
	// one of: a cache hit, joining an in-flight identical query, or a
	// fresh execution.
	QueryCacheHits    atomic.Int64
	QueryCacheMisses  atomic.Int64
	QueryShared       atomic.Int64
	QueryExecutions   atomic.Int64
	QueryTimeouts     atomic.Int64
	QueryLatencyUsSum atomic.Int64
	// The query memo: an execution either builds its base rule set or
	// reuses one built on the same summary version (from the memo, or
	// by joining a concurrent build).
	QueryBaseBuilds atomic.Int64
	QueryBaseReuses atomic.Int64

	// Catalog churn.
	CatalogLoads       atomic.Int64
	CatalogEvictions   atomic.Int64
	CatalogQuarantines atomic.Int64
	IngestedTuples     atomic.Int64
}

// snapshot flattens counters and gauges into one key space. The gauge
// closures are supplied by the server so Metrics stays a plain counter
// bag that tests can poke directly.
func (m *Metrics) snapshot(gauges map[string]int64) map[string]int64 {
	out := map[string]int64{
		"ingest_requests_total":       m.IngestRequests.Load(),
		"shard_ingest_requests_total": m.ShardIngestRequests.Load(),
		"install_requests_total":      m.InstallRequests.Load(),
		"merge_requests_total":        m.MergeRequests.Load(),
		"query_requests_total":        m.QueryRequests.Load(),
		"diff_requests_total":         m.DiffRequests.Load(),
		"list_requests_total":         m.ListRequests.Load(),
		"snapshot_requests_total":     m.SnapshotRequests.Load(),
		"errors_total":                m.Errors.Load(),
		"query_cache_hits_total":      m.QueryCacheHits.Load(),
		"query_cache_misses_total":    m.QueryCacheMisses.Load(),
		"query_shared_total":          m.QueryShared.Load(),
		"query_executions_total":      m.QueryExecutions.Load(),
		"query_timeouts_total":        m.QueryTimeouts.Load(),
		"query_latency_us_sum":        m.QueryLatencyUsSum.Load(),
		"query_base_builds_total":     m.QueryBaseBuilds.Load(),
		"query_base_reuses_total":     m.QueryBaseReuses.Load(),
		"catalog_loads_total":         m.CatalogLoads.Load(),
		"catalog_evictions_total":     m.CatalogEvictions.Load(),
		"catalog_quarantines_total":   m.CatalogQuarantines.Load(),
		"ingested_tuples_total":       m.IngestedTuples.Load(),
	}
	for k, v := range gauges {
		out[k] = v
	}
	return out
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.gauges())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // best-effort scrape output
}
