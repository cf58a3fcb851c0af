package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/summary"
)

// Config sizes the server. The zero value of every field selects a
// production default; negative budgets mean "unlimited" for the
// catalog and "disabled" for the result cache.
type Config struct {
	// DataDir holds the catalog's .acfsum artifacts. Created if absent.
	DataDir string
	// CatalogBytes caps the decoded summaries held in memory (LRU;
	// artifacts stay on disk and reload on demand). 0 = 1 GiB, < 0 =
	// unlimited.
	CatalogBytes int64
	// CacheBytes caps the rendered-response result cache. 0 = 64 MiB,
	// < 0 = disabled.
	CacheBytes int64
	// QueryTimeout bounds one query execution; a request that exceeds
	// it is answered 504 while the execution runs on so its result can
	// still land in the cache. 0 = 30s.
	QueryTimeout time.Duration
	// MaxIngestBytes limits ingest and merge request bodies. 0 = 256 MiB.
	MaxIngestBytes int64
	// MaxQueryBytes limits query request bodies. 0 = 1 MiB.
	MaxQueryBytes int64
	// Storage selects the backend under the catalog: "flat" (the
	// default — one .acfsum file per summary, the original layout) or
	// "segment" (WAL + segment store; see internal/storage).
	Storage string
	// Backend, when non-nil, is used instead of opening one from
	// DataDir/Storage. Tests inject stores through this.
	Backend storage.Backend
	// RestoreFrom, when non-nil, streams a snapshot archive into the
	// (empty) backend before the catalog opens.
	RestoreFrom io.Reader
}

func (c Config) withDefaults() Config {
	if c.CatalogBytes == 0 {
		c.CatalogBytes = 1 << 30
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxIngestBytes == 0 {
		c.MaxIngestBytes = 256 << 20
	}
	if c.MaxQueryBytes == 0 {
		c.MaxQueryBytes = 1 << 20
	}
	return c
}

// Server is the dard daemon: catalog + cache + flight dedup + metrics
// behind a net/http handler. Construct with New, mount Handler on an
// http.Server, and drain with that server's Shutdown.
type Server struct {
	cfg     Config
	store   storage.Backend
	catalog *catalog
	cache   *resultCache
	flights flightGroup
	metrics *Metrics

	// testHookExec, when set, runs at the start of every query
	// execution (inside the singleflight). Tests use it to hold a
	// flight open; production leaves it unset. Atomic because tests
	// swap it while an abandoned (timed-out) flight may still be
	// running.
	testHookExec atomic.Pointer[func()]
	// testHookBase, when set, runs before every base build (inside the
	// base flight), as testHookExec does for executions.
	testHookBase atomic.Pointer[func()]
}

var errUnknownSummary = errors.New("server: unknown summary")

// New opens the catalog under cfg.DataDir and returns the server plus
// human-readable startup notes (quarantined artifacts, ignored files)
// for the daemon to log.
func New(cfg Config) (*Server, []string, error) {
	cfg = cfg.withDefaults()
	m := &Metrics{}
	store, storeNote, err := openBackend(cfg)
	if err != nil {
		return nil, nil, err
	}
	var notes []string
	if storeNote != "" {
		notes = append(notes, storeNote)
	}
	if cfg.RestoreFrom != nil {
		if err := store.Restore(cfg.RestoreFrom); err != nil {
			store.Close() //nolint:errcheck
			return nil, nil, fmt.Errorf("server: restoring snapshot: %w", err)
		}
		notes = append(notes, "restored catalog from snapshot archive")
	}
	catBudget := cfg.CatalogBytes
	if catBudget < 0 {
		catBudget = 0 // catalog treats <= 0 as unlimited
	}
	cat, catNotes, err := openCatalog(store, catBudget, m)
	if err != nil {
		store.Close() //nolint:errcheck
		return nil, nil, err
	}
	notes = append(notes, catNotes...)
	cacheBudget := cfg.CacheBytes
	if cacheBudget < 0 {
		cacheBudget = 0 // cache treats <= 0 as disabled
	}
	return &Server{cfg: cfg, store: store, catalog: cat, cache: newResultCache(cacheBudget), metrics: m}, notes, nil
}

// openBackend resolves Config into a storage.Backend plus a startup
// note naming what was opened.
func openBackend(cfg Config) (storage.Backend, string, error) {
	if cfg.Backend != nil {
		return cfg.Backend, "", nil
	}
	switch cfg.Storage {
	case "", "flat":
		store, err := storage.OpenFlat(cfg.DataDir, storage.FlatOptions{Ext: sumExt})
		if err != nil {
			return nil, "", err
		}
		return store, fmt.Sprintf("storage: flat backend over %s", cfg.DataDir), nil
	case "segment":
		store, err := storage.OpenSegment(cfg.DataDir, storage.SegmentOptions{})
		if err != nil {
			return nil, "", err
		}
		st := store.Stats()
		return store, fmt.Sprintf("storage: segment backend over %s (replayed %d WAL files, %d records)",
			cfg.DataDir, st.WALReplays, st.WALRecordsReplayed), nil
	default:
		return nil, "", fmt.Errorf("server: unknown storage backend %q (want flat or segment)", cfg.Storage)
	}
}

// Close releases the storage backend. In-flight requests should be
// drained (http.Server.Shutdown) first.
func (s *Server) Close() error { return s.store.Close() }

// Metrics exposes the counter bag (tests assert on it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot returns the flat counter+gauge map that GET /metrics
// renders. The darc coordinator merges its cluster_* keys into this
// before serving a combined scrape document.
func (s *Server) MetricsSnapshot() map[string]int64 { return s.metrics.snapshot(s.gauges()) }

// HasSummary reports whether the catalog holds an artifact under name.
// The darc coordinator uses it to route queries: local catalog first,
// fan-out to worker replicas otherwise.
func (s *Server) HasSummary(name string) bool {
	_, ok := s.catalog.version(name)
	return ok
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/ingest/shard", s.handleShardIngest)
	mux.HandleFunc("GET /v1/summaries", s.handleList)
	mux.HandleFunc("GET /v1/summaries/{name}", s.handleDetail)
	mux.HandleFunc("PUT /v1/summaries/{name}", s.handleInstall)
	mux.HandleFunc("POST /v1/summaries/{name}/merge", s.handleMerge)
	mux.HandleFunc("POST /v1/summaries/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/summaries/{name}/diff/{other}", s.handleDiff)
	mux.HandleFunc("POST /v1/admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	return mux
}

// gauges computes the point-in-time values merged into /metrics.
func (s *Server) gauges() map[string]int64 {
	summaries, loaded, loadedBytes := s.catalog.stats()
	entries, cacheBytes := s.cache.stats()
	bases, baseBytes := s.cache.baseStats()
	st := s.store.Stats()
	return map[string]int64{
		"catalog_summaries":            int64(summaries),
		"catalog_loaded":               int64(loaded),
		"catalog_loaded_bytes":         loadedBytes,
		"cache_entries":                int64(entries),
		"cache_bytes":                  cacheBytes,
		"cache_base_entries":           int64(bases),
		"cache_base_bytes":             baseBytes,
		"storage_records":              st.Records,
		"storage_live_bytes":           st.LiveBytes,
		"storage_garbage_bytes":        st.GarbageBytes,
		"storage_segments":             st.Segments,
		"storage_wal_replays":          st.WALReplays,
		"storage_wal_records_replayed": st.WALRecordsReplayed,
		"storage_compactions_total":    st.Compactions,
		"storage_last_compaction_us":   st.LastCompactionUs,
		"storage_quarantined":          st.Quarantined,
	}
}

// handleSnapshot streams the whole catalog as a portable snapshot
// archive (POST /v1/admin/snapshot). The archive is a point-in-time
// record set and restores into an empty data dir of either backend via
// `dard -restore`.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.metrics.SnapshotRequests.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="dard-snapshot.darsnap"`)
	if err := s.store.Snapshot(w); err != nil {
		// Headers are gone; all we can do is cut the stream short (the
		// archive's end frame makes the truncation detectable) and count.
		s.metrics.Errors.Add(1)
	}
}

// writeError renders the uniform JSON error body and counts it.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.Errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck
}

// readBody reads a size-limited request body (ReadBody), answering
// overruns 413 and other failures 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, status, err := ReadBody(w, r, limit)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return nil, false
	}
	return body, true
}

// pathName validates the {name} path segment.
func (s *Server) pathName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if !summaryName.MatchString(name) {
		s.writeError(w, http.StatusBadRequest, "summary name %q must match %s", name, summaryName)
		return "", false
	}
	return name, true
}

// parseIngest reads what both ingest endpoints share: the Phase I
// options in the query string (d0, d0s, memory, workers, groups) and the
// CSV body, which errors call what. ?d0s= pins one threshold per group
// and overrides d0; otherwise d0=0 derives per-group thresholds from the
// data, exactly like the CLI. With wide set, the body parses and the
// thresholds derive at the Phase I width, otherwise on one core (see
// DESIGN.md §14 for why the shard endpoint stays narrow); no result
// byte depends on it. On failure it has written the error response and
// returns ok=false.
func (s *Server) parseIngest(w http.ResponseWriter, r *http.Request, what string, wide bool) (rel *relation.Relation, part *relation.Partitioning, opt core.Options, ok bool) {
	q := r.URL.Query()
	var d0 float64
	var memory int
	var err error
	if v := q.Get("d0"); v != "" {
		if d0, err = strconv.ParseFloat(v, 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad d0 %q: %v", v, err)
			return nil, nil, opt, false
		}
	}
	pinned, err := ParseD0s(q.Get("d0s"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, opt, false
	}
	if v := q.Get("memory"); v != "" {
		if memory, err = strconv.Atoi(v); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad memory %q: %v", v, err)
			return nil, nil, opt, false
		}
	}
	// Absent workers means "use the machine": Phase I runs
	// min(workers, groups) insert lanes, the handler's own goroutine
	// among them, and is bit-identical at any worker count, so defaulting
	// to all cores changes latency only; ?workers=1 still runs the one-lane
	// scan. A larger count is clamped to GOMAXPROCS, which for the same
	// reason changes no result byte: the pipeline spawns one goroutine
	// per lane beyond the caller's (up to one per attribute group), so an
	// unbounded count would let one request start a goroutine per column
	// and run more of them than the machine has cores.
	workers := runtime.GOMAXPROCS(0)
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad workers %q: %v", v, err)
			return nil, nil, opt, false
		}
		workers = min(n, workers)
	}

	body, ok := s.readBody(w, r, s.cfg.MaxIngestBytes)
	if !ok {
		return nil, nil, opt, false
	}
	width := 1
	if wide {
		width = workers
	}
	rel, _, err = relation.ParseCSV(body, width)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing CSV %s: %v", what, err)
		return nil, nil, opt, false
	}
	part, err = relation.ParseGroupsSpec(rel.Schema(), q.Get("groups"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, opt, false
	}

	opt = core.DefaultOptions()
	opt.DiameterThreshold = d0
	opt.MemoryLimit = memory
	opt.Workers = workers
	switch {
	case pinned != nil:
		opt.DiameterThresholds = pinned
	case d0 == 0:
		suggested, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{Workers: width})
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "deriving thresholds: %v", err)
			return nil, nil, opt, false
		}
		opt.DiameterThresholds = suggested
	}
	return rel, part, opt, true
}

// handleIngest streams a CSV relation through the shared Phase I
// ingester and installs the resulting summary in the catalog under
// ?name=. Ingest-time options ride in the query string (d0, d0s, memory,
// workers, groups), mirroring `darminer ingest`; see parseIngest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.IngestRequests.Add(1)
	name := r.URL.Query().Get("name")
	if !summaryName.MatchString(name) {
		s.writeError(w, http.StatusBadRequest, "ingest needs ?name= matching %s", summaryName)
		return
	}
	rel, part, opt, ok := s.parseIngest(w, r, "relation", true)
	if !ok {
		return
	}
	sum, err := core.Ingest(rel, part, opt)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	encoded, err := summary.Encode(sum)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding summary: %v", err)
		return
	}
	version, err := s.catalog.put(name, sum, encoded)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.cache.invalidate(name)
	s.metrics.IngestedTuples.Add(sum.Tuples)

	clusters := 0
	for _, g := range sum.Groups {
		clusters += len(g.Clusters)
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Name: name, Version: version, Tuples: sum.Tuples,
		Groups: len(sum.Groups), Clusters: clusters, Bytes: len(encoded),
	})
}

// handleMerge folds an uploaded .acfsum shard into the named artifact
// via ACF additivity, persists the result, bumps the version and
// invalidates cached queries.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	s.metrics.MergeRequests.Add(1)
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	body, ok := s.readBody(w, r, s.cfg.MaxIngestBytes)
	if !ok {
		return
	}
	shard, err := summary.Decode(body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, summary.ErrVersion) {
			status = http.StatusUnsupportedMediaType
		}
		s.writeError(w, status, "decoding shard: %v", err)
		return
	}
	// The whole load→fold→store cycle runs under the catalog's per-name
	// write lock: two coordinators folding shards into one summary
	// serialize here, so neither merge is lost (the race test pins this).
	var conflict error
	merged, version, err := s.catalog.modify(name, func(base *summary.Summary) (*summary.Summary, []byte, error) {
		m, err := summary.Merge(base, shard)
		if err != nil {
			conflict = err
			return nil, nil, err
		}
		encoded, err := summary.Encode(m)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding merged summary: %w", err)
		}
		return m, encoded, nil
	})
	if err != nil {
		if conflict != nil {
			s.writeError(w, http.StatusConflict, "merge: %v", conflict)
			return
		}
		s.writeCatalogError(w, name, err)
		return
	}
	s.cache.invalidate(name)
	s.writeJSON(w, http.StatusOK, mergeResponse{
		Name: name, Version: version, Tuples: merged.Tuples, Shards: merged.Shards,
	})
}

// handleQuery answers a rule query from the named summary. Identical
// in-flight queries collapse into one execution; finished responses are
// served from the result cache byte-for-byte. The response body is
// exactly the document `darminer query -json` prints for the same
// summary and options.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.QueryRequests.Add(1)
	start := time.Now()
	name, ok := s.pathName(w, r)
	if !ok {
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

	version, exists := s.catalog.version(name)
	if !exists {
		s.writeError(w, http.StatusNotFound, "unknown summary %q", name)
		return
	}
	key := cacheKey(name, version, q.CanonicalKey())
	if frame, body, hit := s.cache.getAnswer(key); hit {
		s.metrics.QueryCacheHits.Add(1)
		s.metrics.QueryLatencyUsSum.Add(time.Since(start).Microseconds())
		s.serveResult(w, version, "hit", frame, body)
		return
	}
	s.metrics.QueryCacheMisses.Add(1)

	// Run the (flight-deduplicated) execution off this goroutine so the
	// request honors its deadline even though the engine itself is not
	// preemptible: on timeout the client gets a 504 while the execution
	// runs on and parks its result in the cache for the next request.
	type flightResult struct {
		val    flightValue
		shared bool
		err    error
	}
	ch := make(chan flightResult, 1)
	go func() {
		val, shared, err := s.runQueryFlight(key, name, q)
		ch <- flightResult{val: val, shared: shared, err: err}
	}()

	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		s.metrics.QueryLatencyUsSum.Add(time.Since(start).Microseconds())
		if res.err != nil {
			s.writeCatalogError(w, name, res.err)
			return
		}
		mode := "miss"
		if res.shared {
			s.metrics.QueryShared.Add(1)
			mode = "shared"
		}
		s.serveResult(w, res.val.version, mode, res.val.frame, res.val.body)
	case <-timer.C:
		s.metrics.QueryTimeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "query exceeded the %v execution budget; retry to pick up the cached result", s.cfg.QueryTimeout)
	case <-r.Context().Done():
		s.metrics.QueryTimeouts.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "client went away: %v", r.Context().Err())
	}
}

// runQueryFlight executes one deduplicated query: the base's frame
// from the memo (queryBase) and this answer's body. The cache entry is
// written under the version actually loaded from the catalog (a merge
// may land between the handler's probe and the load), so a cached body
// is always the product of the version in its key.
func (s *Server) runQueryFlight(key, name string, q core.QueryOptions) (flightValue, bool, error) {
	return s.flights.Do(key, func() (flightValue, error) {
		if h := s.testHookExec.Load(); h != nil {
			(*h)()
		}
		sum, v, err := s.catalog.get(name)
		if err != nil {
			return flightValue{}, err
		}
		s.metrics.QueryExecutions.Add(1)
		base, frame, err := s.queryBase(name, v, sum, q)
		if base == nil {
			return flightValue{}, err
		}
		res, modeErr := base.WithQueryModes(q, sum.GroupIndex)
		if modeErr != nil {
			return flightValue{}, modeErr
		}
		if err != nil { // the frame failed: its clusters block comes first in the document
			return flightValue{}, err
		}
		body, err := frame.Body(res)
		if err != nil {
			return flightValue{}, err
		}
		s.cache.putAnswer(cacheKey(name, v, q.CanonicalKey()), baseCacheKey(name, v, q), body)
		return flightValue{frame: frame, body: body, version: v}, nil
	})
}

// queryBase returns the base rule set (core.QueryBase) of q over
// version v of the named summary and its frame (core.NewFrame, with
// cluster descriptions from the summary's recorded schema). It runs in
// a flight keyed by the base's memo key, so concurrent misses sharing a
// base build it once; the flight takes base and frame from the memo
// when an earlier miss on that version built them, and otherwise builds
// them — never under the cache mutex — and memoizes them. When only the
// frame fails, it returns the base with the frame's error, and the memo
// keeps both, so that a mode's error still answers first, as when one
// pass rendered the whole document, and no later miss on the base runs
// Phase II again.
func (s *Server) queryBase(name string, v uint64, sum *summary.Summary, q core.QueryOptions) (*core.Result, *core.Frame, error) {
	key := baseCacheKey(name, v, q)
	built := false // set only when this caller's own flight built the base
	val, _, err := s.flights.Do(key, func() (flightValue, error) {
		if base, frame, err := s.cache.getBase(key); base != nil {
			return flightValue{base: base, frame: frame}, err
		}
		if h := s.testHookBase.Load(); h != nil {
			(*h)()
		}
		base, err := core.QueryBase(sum, q)
		if err != nil {
			return flightValue{}, err
		}
		built = true
		frame, err := renderFrame(sum, base)
		s.cache.putBase(key, base, frame, err)
		return flightValue{base: base, frame: frame}, err
	})
	if val.base == nil {
		return nil, nil, err
	}
	if built {
		s.metrics.QueryBaseBuilds.Add(1)
	} else {
		s.metrics.QueryBaseReuses.Add(1)
	}
	return val.base, val.frame, err
}

// renderFrame renders base's frame as `darminer query -json` renders
// its document. Cluster descriptions come from the summary's recorded
// schema — an empty relation over it serves as the value formatter, as
// on the CLI path.
func renderFrame(sum *summary.Summary, base *core.Result) (*core.Frame, error) {
	schema, err := sum.Schema()
	if err != nil {
		return nil, err
	}
	part, err := sum.Partitioning(schema)
	if err != nil {
		return nil, err
	}
	return core.NewFrame(base, relation.NewRelation(schema), part)
}

// serveResult writes a successful query response: the frame's head,
// the answer's body and the frame's tail, with their total length
// announced.
func (s *Server) serveResult(w http.ResponseWriter, version uint64, cacheMode string, frame *core.Frame, body []byte) {
	head, tail := frame.Head(), frame.Tail()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(body)+len(tail)))
	w.Header().Set("X-Dard-Summary-Version", strconv.FormatUint(version, 10))
	w.Header().Set("X-Dard-Cache", cacheMode)
	for _, part := range [][]byte{head, body, tail} {
		if _, err := w.Write(part); err != nil {
			return // client went away; nothing to do
		}
	}
}

// writeCatalogError maps catalog and execution failures onto HTTP
// statuses. core.ErrBadQuery covers option/summary mismatches only
// detectable at execution time (a group filter naming a group this
// summary does not have) — the client's fault, a 400.
func (s *Server) writeCatalogError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, errUnknownSummary):
		s.writeError(w, http.StatusNotFound, "unknown summary %q", name)
	case errors.Is(err, core.ErrBadQuery):
		s.writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, summary.ErrCorrupt), errors.Is(err, summary.ErrVersion):
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleList serves GET /v1/summaries.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.metrics.ListRequests.Add(1)
	s.writeJSON(w, http.StatusOK, s.catalog.list())
}

// summaryDetail is the GET /v1/summaries/{name} document.
type summaryDetail struct {
	entryInfo
	GroupDetails []groupDetail `json:"groupDetails"`
}

type groupDetail struct {
	Name      string  `json:"name"`
	Nominal   bool    `json:"nominal"`
	D0        float64 `json:"d0"`
	Threshold float64 `json:"threshold"`
	Rebuilds  int     `json:"rebuilds"`
	Clusters  int     `json:"clusters"`
}

// handleDetail loads the named summary (counting as a use for LRU
// purposes) and returns its full provenance.
func (s *Server) handleDetail(w http.ResponseWriter, r *http.Request) {
	s.metrics.ListRequests.Add(1)
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	sum, version, err := s.catalog.get(name)
	if err != nil {
		s.writeCatalogError(w, name, err)
		return
	}
	detail := summaryDetail{GroupDetails: make([]groupDetail, 0, len(sum.Groups))}
	for _, row := range s.catalog.list() {
		if row.Name == name {
			detail.entryInfo = row
			break
		}
	}
	detail.Version = version
	for _, g := range sum.Groups {
		detail.GroupDetails = append(detail.GroupDetails, groupDetail{
			Name: g.Name, Nominal: g.Nominal, D0: g.D0, Threshold: g.Threshold,
			Rebuilds: g.Rebuilds, Clusters: len(g.Clusters),
		})
	}
	s.writeJSON(w, http.StatusOK, detail)
}

// writeJSON renders a 2xx JSON body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}
