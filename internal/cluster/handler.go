package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"

	"repro/internal/server"
	"repro/pkg/client"
)

// Handler returns darc's route table: the cluster routes overlaid on
// the embedded dard server, which keeps serving every other endpoint
// (catalog, merge, diff, snapshot) untouched.
//
//	POST /v1/cluster/ingest?name=N[&d0=…&d0s=…&memory=…&workers=…&groups=…&shards=…]
//	     CSV body → sharded across the pool, merged, installed locally
//	GET  /v1/cluster/workers      pool membership and health
//	POST /v1/summaries/{name}/query
//	     local catalog first, fan-out to worker replicas otherwise
//	GET  /metrics                 local counters + cluster_* keys
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/ingest", c.handleClusterIngest)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/summaries/{name}/query", c.handleQuery)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.Handle("/", c.localH)
	return mux
}

// errBadIngest marks cluster-ingest failures that are the request's
// fault (unparseable CSV, bad groups spec, a shard every worker would
// reject) — answered 400 rather than 502.
var errBadIngest = errors.New("cluster: bad ingest request")

// clusterIngestResponse acknowledges POST /v1/cluster/ingest. The
// first six fields mirror the single-node ingest ack; the tail carries
// the dispatch provenance.
type clusterIngestResponse struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Tuples   int64  `json:"tuples"`
	Groups   int    `json:"groups"`
	Clusters int    `json:"clusters"`
	Bytes    int    `json:"bytes"`
	Shards   int    `json:"shards"`
	Retries  int64  `json:"retries"`
	Replicas int    `json:"replicas"`
}

func (c *Coordinator) handleClusterIngest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		c.writeErr(w, http.StatusBadRequest, "cluster ingest needs ?name=")
		return
	}
	var opt client.IngestOptions
	var err error
	if v := r.URL.Query().Get("d0"); v != "" {
		if opt.D0, err = strconv.ParseFloat(v, 64); err != nil {
			c.writeErr(w, http.StatusBadRequest, "bad d0 %q: %v", v, err)
			return
		}
	}
	if opt.D0s, err = server.ParseD0s(r.URL.Query().Get("d0s")); err != nil {
		c.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, p := range []struct {
		key string
		dst *int
	}{
		{"memory", &opt.Memory}, {"workers", &opt.Workers}, {"shards", &opt.Shards},
	} {
		if v := r.URL.Query().Get(p.key); v != "" {
			if *p.dst, err = strconv.Atoi(v); err != nil {
				c.writeErr(w, http.StatusBadRequest, "bad %s %q: %v", p.key, v, err)
				return
			}
		}
	}
	opt.Groups = r.URL.Query().Get("groups")

	body, status, err := server.ReadBody(w, r, c.cfg.MaxIngestBytes)
	if err != nil {
		c.writeErr(w, status, "%v", err)
		return
	}

	rep, err := c.IngestCSV(r.Context(), name, body, opt)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, errBadIngest) {
			status = http.StatusBadRequest
		}
		c.writeErr(w, status, "%v", err)
		return
	}
	c.writeJSON(w, clusterIngestResponse{
		Name: rep.Name, Version: rep.Version, Tuples: rep.Tuples,
		Groups: rep.Groups, Clusters: rep.Clusters, Bytes: rep.Bytes,
		Shards: rep.Shards, Retries: rep.Retries, Replicas: rep.Replicas,
	})
}

// workerInfo is one row of GET /v1/cluster/workers.
type workerInfo struct {
	ID         int    `json:"id"`
	Addr       string `json:"addr"`
	Healthy    bool   `json:"healthy"`
	Dispatched int64  `json:"dispatched"`
	Failures   int64  `json:"failures"`
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	rows := make([]workerInfo, 0, len(c.workers))
	for _, wk := range c.workers {
		rows = append(rows, workerInfo{
			ID: wk.id, Addr: wk.base, Healthy: wk.isHealthy(),
			Dispatched: wk.dispatched.Load(), Failures: wk.failures.Load(),
		})
	}
	c.writeJSON(w, rows)
}

// handleQuery routes a rule query: the local catalog answers if it
// holds the summary (the coordinator installs every merged artifact
// there), otherwise the request fans out to worker replicas — workers
// answering 404 are skipped, workers failing outright are marked down.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if c.local.HasSummary(name) {
		c.localH.ServeHTTP(w, r)
		return
	}
	c.metrics.FanoutQueries.Add(1)
	body, status, err := server.ReadBody(w, r, c.cfg.MaxQueryBytes)
	if err != nil {
		c.writeErr(w, status, "query body: %v", err)
		return
	}
	for _, wk := range c.candidates(name) {
		payload, meta, err := wk.client.QueryJSON(r.Context(), name, body)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) {
				if apiErr.Status == http.StatusNotFound {
					c.metrics.FanoutMisses.Add(1)
					continue
				}
				// The replica answered: pass its verdict through
				// (e.g. a 400 for malformed query options).
				c.writeErr(w, apiErr.Status, "%s", apiErr.Message)
				return
			}
			c.metrics.FanoutErrors.Add(1)
			if wk.setHealthy(false) {
				c.metrics.WorkerMarkdowns.Add(1)
			}
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		if meta.Version != "" {
			w.Header().Set("X-Dard-Summary-Version", meta.Version)
		}
		if meta.Cache != "" {
			w.Header().Set("X-Dard-Cache", meta.Cache)
		}
		w.Header().Set("X-Darc-Worker", wk.base)
		w.Write(payload) //nolint:errcheck // client went away; nothing to do
		return
	}
	c.writeErr(w, http.StatusNotFound, "unknown summary %q on this coordinator and every healthy worker", name)
}

// candidates orders the healthy workers for fan-out: a deterministic
// rotation keyed by summary name spreads replica load while keeping
// the order stable for any one name.
func (c *Coordinator) candidates(name string) []*worker {
	h := fnv.New32a()
	io.WriteString(h, name) //nolint:errcheck // fnv never fails
	start := int(h.Sum32() % uint32(len(c.workers)))
	out := make([]*worker, 0, len(c.workers))
	for i := 0; i < len(c.workers); i++ {
		wk := c.workers[(start+i)%len(c.workers)]
		if wk.isHealthy() {
			out = append(out, wk)
		}
	}
	return out
}

// handleMetrics merges the cluster_* counters into the embedded
// server's snapshot and renders the combined flat JSON document
// (encoding/json emits map keys sorted, so scrapes stay diff-friendly).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.local.MetricsSnapshot()
	for k, v := range c.metrics.snapshot(len(c.workers), c.healthyCount()) {
		snap[k] = v
	}
	c.writeJSON(w, snap)
}

// writeJSON renders a 200 JSON body, two-space indented like the
// embedded server's responses.
func (c *Coordinator) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// writeErr renders the uniform JSON error body the whole API uses.
func (c *Coordinator) writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}
