package server

import (
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/summary"
)

// The two worker-side endpoints of the cluster protocol (see
// internal/cluster and DESIGN.md §14):
//
//	POST /v1/ingest/shard?d0s=…[&memory=…&workers=…&groups=…]   CSV shard → .acfsum bytes
//	PUT  /v1/summaries/{name}                                   .acfsum body → installed artifact
//
// Shard ingest is stateless: the worker runs Phase I over the CSV body
// and streams the encoded summary back without touching its catalog,
// so a coordinator can requeue a failed shard onto any worker without
// leaving half-ingested state behind — re-running a shard is
// idempotent by construction. The coordinator derives the per-group
// thresholds once over the whole relation and pins them via ?d0s=
// (comma-separated, one per group, in group order); deriving them
// per-shard would hand each worker a different d0 vector and fail the
// merge's provenance checks.
//
// PUT installs a complete encoded artifact under a catalog name — the
// coordinator uses it to replicate a merged summary onto workers for
// fan-out query serving.

// handleShardIngest runs Phase I over a CSV shard and returns the
// encoded summary as the response body.
func (s *Server) handleShardIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.ShardIngestRequests.Add(1)
	// Without ?d0s= the thresholds follow ?d0= as on /v1/ingest; that is
	// standalone use only — a cluster coordinator always pins ?d0s=. The
	// shard parses on one core while its Phase I runs at ?workers=: with
	// the workers on darc's host, a wide shard parse raised darc's query
	// latency (DESIGN.md §14 has the pairs).
	rel, part, opt, ok := s.parseIngest(w, r, "shard", false)
	if !ok {
		return
	}
	sum, err := core.Ingest(rel, part, opt)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "shard ingest: %v", err)
		return
	}
	encoded, err := summary.Encode(sum)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding shard summary: %v", err)
		return
	}
	s.metrics.IngestedTuples.Add(sum.Tuples)

	clusters := 0
	for _, g := range sum.Groups {
		clusters += len(g.Clusters)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Dard-Tuples", strconv.FormatInt(sum.Tuples, 10))
	w.Header().Set("X-Dard-Clusters", strconv.Itoa(clusters))
	w.Write(encoded) //nolint:errcheck // client went away; nothing to do
}

// ParseD0s parses a ?d0s= per-group threshold vector: comma-separated
// floats in group order, nil for an empty spec. Whether the values fit
// the partitioning (one per group, finite, >= 0) is core.Options'
// validation, so every ingest path rejects a bad vector the same way.
func ParseD0s(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, errors.New("bad d0s entry " + strconv.Quote(p) + ": want a float per group")
		}
		out[i] = v
	}
	return out, nil
}

// InstallSummary strictly decodes an encoded .acfsum artifact and
// installs it in the catalog under name, replacing any current version
// and invalidating cached queries. It is the library surface behind
// PUT /v1/summaries/{name}; the darc coordinator also calls it
// directly to publish a merged summary into its own catalog.
func (s *Server) InstallSummary(name string, encoded []byte) (*summary.Summary, uint64, error) {
	if !summaryName.MatchString(name) {
		return nil, 0, errors.New("server: summary name " + strconv.Quote(name) + " outside the catalog alphabet")
	}
	sum, err := summary.Decode(encoded)
	if err != nil {
		return nil, 0, err
	}
	version, err := s.catalog.put(name, sum, encoded)
	if err != nil {
		return nil, 0, err
	}
	s.cache.invalidate(name)
	return sum, version, nil
}

// handleInstall serves PUT /v1/summaries/{name}.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	s.metrics.InstallRequests.Add(1)
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	body, ok := s.readBody(w, r, s.cfg.MaxIngestBytes)
	if !ok {
		return
	}
	sum, version, err := s.InstallSummary(name, body)
	if err != nil {
		// Damaged or mis-versioned uploads are the client's fault; a
		// storage failure after a clean decode is ours.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, summary.ErrVersion):
			status = http.StatusUnsupportedMediaType
		case errors.Is(err, summary.ErrCorrupt):
			status = http.StatusBadRequest
		}
		s.writeError(w, status, "installing summary: %v", err)
		return
	}
	clusters := 0
	for _, g := range sum.Groups {
		clusters += len(g.Clusters)
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Name: name, Version: version, Tuples: sum.Tuples,
		Groups: len(sum.Groups), Clusters: clusters, Bytes: len(body),
	})
}
