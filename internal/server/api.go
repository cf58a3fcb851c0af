// Package server implements dard, the long-running DAR mining daemon:
// a stdlib net/http service over the Ingest → Summary → Query split.
// It owns a catalog of named, versioned .acfsum artifacts persisted
// under a data dir (loaded lazily, evicted under an LRU byte budget)
// and serves
//
//	POST /v1/ingest?name=N[&d0=…&d0s=…&memory=…&workers=…&groups=…]   CSV body → stored summary
//	                (workers defaults to all cores; results are
//	                bit-identical at any worker count)
//	POST /v1/ingest/shard?d0s=…[&memory=…&workers=…&groups=…]   CSV shard → .acfsum bytes (stateless; see shard.go)
//	PUT  /v1/summaries/{name}                                   .acfsum body → installed artifact
//	POST /v1/summaries/{name}/merge                             .acfsum shard body → merged artifact
//	POST /v1/summaries/{name}/query                             JSON options → rules
//	POST /v1/summaries/{name}/diff/{other}                      JSON options → rule diff name → other
//	GET  /v1/summaries[/{name}]                                 catalog inspection
//	GET  /metrics                                               expvar-style counters and gauges
//
// Query serving is built for repeated load: identical in-flight
// queries collapse into one execution (singleflight), finished
// responses live in an LRU byte-budget cache keyed by (summary
// version, canonical options) and invalidated by merge/re-ingest, the
// same cache memoizes each version's base rule set so a miss that
// differs from an earlier one only in query modes skips Phase II, and
// every request runs under a body-size limit and a timeout. A served
// query is bit-identical to `darminer ingest | query` over the same
// data — the differential tests in cmd/darminer pin this.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/distance"
)

// queryRequest is the JSON body of POST /v1/summaries/{name}/query.
// Every field is optional; absent fields take the library defaults
// (core.DefaultQueryOptions), so `{}` is the default query. Workers
// only sets execution parallelism — results are bit-identical at any
// count, which is why it is absent from the canonical cache key.
type queryRequest struct {
	Metric            *string  `json:"metric,omitempty"`
	FrequencyFraction *float64 `json:"frequencyFraction,omitempty"`
	MinClusterSize    *int     `json:"minClusterSize,omitempty"`
	DegreeFactor      *float64 `json:"degreeFactor,omitempty"`
	GraphFactor       *float64 `json:"graphFactor,omitempty"`
	MaxAntecedent     *int     `json:"maxAntecedent,omitempty"`
	MaxConsequent     *int     `json:"maxConsequent,omitempty"`
	GlobalRefine      *bool    `json:"globalRefine,omitempty"`
	PruneImages       *bool    `json:"pruneImages,omitempty"`
	// Query modes (see core.QueryOptions). Group filters are
	// normalized server-side (sorted, deduplicated), so two spellings
	// of one filter share a cache entry; sweep factors are not — their
	// order is part of the request contract.
	Measures         *bool     `json:"measures,omitempty"`
	AntecedentGroups []string  `json:"antecedentGroups,omitempty"`
	ConsequentGroups []string  `json:"consequentGroups,omitempty"`
	SweepFactors     []float64 `json:"sweepFactors,omitempty"`
	TopK             *int      `json:"topK,omitempty"`
	Workers          int       `json:"workers,omitempty"`
}

// parseQueryOptions decodes the options body of a query or diff
// request (an empty body is the default query) and resolves it. The
// body must be exactly one JSON object: anything but whitespace after
// it is an error, not a second document to ignore.
func parseQueryOptions(body []byte) (core.QueryOptions, error) {
	var qr queryRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&qr); err != nil {
			return core.QueryOptions{}, fmt.Errorf("parsing query options: %w", err)
		}
		if len(bytes.Trim(body[dec.InputOffset():], " \t\r\n")) > 0 {
			return core.QueryOptions{}, errors.New("parsing query options: trailing data after the JSON object")
		}
	}
	return qr.options()
}

// options resolves the request against the defaults and validates it.
func (qr queryRequest) options() (core.QueryOptions, error) {
	q := core.DefaultQueryOptions()
	if qr.Metric != nil {
		m, ok := distance.ParseClusterMetric(*qr.Metric)
		if !ok {
			var names []string
			for m := distance.D0; m <= distance.D4; m++ {
				names = append(names, m.String())
			}
			return q, fmt.Errorf("unknown metric %q (want one of %s)", *qr.Metric, strings.Join(names, ", "))
		}
		q.Metric = m
	}
	if qr.FrequencyFraction != nil {
		q.FrequencyFraction = *qr.FrequencyFraction
	}
	if qr.MinClusterSize != nil {
		q.MinClusterSize = *qr.MinClusterSize
	}
	if qr.DegreeFactor != nil {
		q.DegreeFactor = *qr.DegreeFactor
	}
	if qr.GraphFactor != nil {
		q.GraphFactor = *qr.GraphFactor
	}
	if qr.MaxAntecedent != nil {
		q.MaxAntecedent = *qr.MaxAntecedent
	}
	if qr.MaxConsequent != nil {
		q.MaxConsequent = *qr.MaxConsequent
	}
	if qr.GlobalRefine != nil {
		q.GlobalRefine = *qr.GlobalRefine
	}
	if qr.PruneImages != nil {
		q.PruneImages = *qr.PruneImages
	}
	if qr.Measures != nil {
		q.Measures = *qr.Measures
	}
	q.AntecedentGroups = qr.AntecedentGroups
	q.ConsequentGroups = qr.ConsequentGroups
	q.SweepFactors = qr.SweepFactors
	if qr.TopK != nil {
		q.TopK = *qr.TopK
	}
	q.Workers = qr.Workers
	core.NormalizeGroupFilters(&q)
	if err := q.Validate(); err != nil {
		return q, err
	}
	return q, nil
}

// ingestResponse acknowledges POST /v1/ingest.
type ingestResponse struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Tuples   int64  `json:"tuples"`
	Groups   int    `json:"groups"`
	Clusters int    `json:"clusters"`
	Bytes    int    `json:"bytes"`
}

// mergeResponse acknowledges POST /v1/summaries/{name}/merge.
type mergeResponse struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Tuples  int64  `json:"tuples"`
	Shards  int    `json:"shards"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}
