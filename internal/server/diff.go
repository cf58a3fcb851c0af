package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/summary"
)

// POST /v1/summaries/{name}/diff/{other}: rule drift from the {name}
// summary (old side) to the {other} summary (new side), under one set
// of query options applied to both. The response body is exactly what
// `darminer diff -json` prints for the same two summaries and options.

// diffCacheKey renders the result-cache key of a diff. It lives in the
// same cache as query results without colliding: a query key's third
// \x00-segment is a canonical options string (always starting
// "metric="), a diff key's is the literal marker "diff". Both summary
// versions are embedded, so a merge landing on either side makes the
// entry unreachable even before invalidate sweeps it.
func diffCacheKey(oldName string, oldVersion uint64, newName string, newVersion uint64, canonical string) string {
	return oldName + "\x00" + strconv.FormatUint(oldVersion, 10) +
		"\x00diff\x00" + newName + "\x00" + strconv.FormatUint(newVersion, 10) +
		"\x00" + canonical
}

// handleDiff answers a rule-diff request with the same serving
// machinery as handleQuery: flight deduplication, the shared result
// cache, and the execution timeout.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	s.metrics.DiffRequests.Add(1)
	start := time.Now()
	oldName, ok := s.pathName(w, r)
	if !ok {
		return
	}
	newName := r.PathValue("other")
	if !summaryName.MatchString(newName) {
		s.writeError(w, http.StatusBadRequest, "summary name %q must match %s", newName, summaryName)
		return
	}
	body, ok := s.readBody(w, r, s.cfg.MaxQueryBytes)
	if !ok {
		return
	}
	q, err := parseQueryOptions(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	oldVersion, exists := s.catalog.version(oldName)
	if !exists {
		s.writeError(w, http.StatusNotFound, "unknown summary %q", oldName)
		return
	}
	newVersion, exists := s.catalog.version(newName)
	if !exists {
		s.writeError(w, http.StatusNotFound, "unknown summary %q", newName)
		return
	}
	key := diffCacheKey(oldName, oldVersion, newName, newVersion, q.CanonicalKey())
	if cached, hit := s.cache.get(key); hit {
		s.metrics.QueryCacheHits.Add(1)
		s.metrics.QueryLatencyUsSum.Add(time.Since(start).Microseconds())
		s.serveDiffResult(w, oldVersion, newVersion, "hit", cached)
		return
	}
	s.metrics.QueryCacheMisses.Add(1)

	type flightResult struct {
		body       []byte
		oldVersion uint64
		newVersion uint64
		shared     bool
		err        error
	}
	ch := make(chan flightResult, 1)
	go func() {
		b, v1, v2, shared, err := s.runDiffFlight(key, oldName, newName, q)
		ch <- flightResult{body: b, oldVersion: v1, newVersion: v2, shared: shared, err: err}
	}()

	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		s.metrics.QueryLatencyUsSum.Add(time.Since(start).Microseconds())
		if res.err != nil {
			s.writeCatalogError(w, oldName, res.err)
			return
		}
		mode := "miss"
		if res.shared {
			s.metrics.QueryShared.Add(1)
			mode = "shared"
		}
		s.serveDiffResult(w, res.oldVersion, res.newVersion, mode, res.body)
	case <-timer.C:
		s.metrics.QueryTimeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "diff exceeded the %v execution budget; retry to pick up the cached result", s.cfg.QueryTimeout)
	case <-r.Context().Done():
		s.metrics.QueryTimeouts.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "client went away: %v", r.Context().Err())
	}
}

// runDiffFlight executes one deduplicated diff. As with queries, the
// cache entry is written under the versions actually loaded, so a body
// is always the product of the versions in its key.
func (s *Server) runDiffFlight(key, oldName, newName string, q core.QueryOptions) ([]byte, uint64, uint64, bool, error) {
	val, shared, err := s.flights.Do(key, func() (flightValue, error) {
		if h := s.testHookExec.Load(); h != nil {
			(*h)()
		}
		oldSum, v1, err := s.catalog.get(oldName)
		if err != nil {
			return flightValue{}, err
		}
		newSum, v2, err := s.catalog.get(newName)
		if err != nil {
			return flightValue{}, err
		}
		s.metrics.QueryExecutions.Add(1)
		rendered, err := renderDiff(oldSum, newSum, q)
		if err != nil {
			return flightValue{}, err
		}
		s.cache.put(diffCacheKey(oldName, v1, newName, v2, q.CanonicalKey()), rendered)
		return flightValue{body: rendered, version: v1, newVersion: v2}, nil
	})
	return val.body, val.version, val.newVersion, shared, err
}

// renderDiff queries both summaries under the same options and renders
// the signature diff, each side describing its clusters through its own
// recorded schema (dictionary code orders may differ across shards —
// signatures compare by value).
func renderDiff(oldSum, newSum *summary.Summary, q core.QueryOptions) ([]byte, error) {
	oldRes, err := core.QuerySummary(oldSum, q)
	if err != nil {
		return nil, err
	}
	newRes, err := core.QuerySummary(newSum, q)
	if err != nil {
		return nil, err
	}
	oldSchema, err := oldSum.Schema()
	if err != nil {
		return nil, err
	}
	oldPart, err := oldSum.Partitioning(oldSchema)
	if err != nil {
		return nil, err
	}
	newSchema, err := newSum.Schema()
	if err != nil {
		return nil, err
	}
	newPart, err := newSum.Partitioning(newSchema)
	if err != nil {
		return nil, err
	}
	d := core.DiffRules(oldRes, newRes,
		relation.NewRelation(oldSchema), relation.NewRelation(newSchema), oldPart, newPart)
	var buf bytes.Buffer
	if err := core.WriteDiffJSON(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveDiffResult writes a successful diff response; both summary
// versions travel in headers so clients can detect which side moved.
func (s *Server) serveDiffResult(w http.ResponseWriter, oldVersion, newVersion uint64, cacheMode string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Dard-Summary-Version", strconv.FormatUint(oldVersion, 10))
	w.Header().Set("X-Dard-Other-Version", strconv.FormatUint(newVersion, 10))
	w.Header().Set("X-Dard-Cache", cacheMode)
	w.Write(body) //nolint:errcheck // client went away; nothing to do
}
