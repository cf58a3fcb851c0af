package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/summary"
)

// newTestServer builds a Server over a temp data dir and mounts it on
// an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, notes, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, n := range notes {
		t.Logf("startup note: %s", n)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// salaryCSV is the CLI golden dataset (Age, Salary interval; Dept
// nominal).
func salaryCSV(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "cmd", "darminer", "testdata", "golden_input.csv"))
	if err != nil {
		t.Fatalf("reading salary dataset: %v", err)
	}
	return b
}

// kitchenCSV generates the mixed-schema dataset of the kitchen-sink
// integration test: a nominal segment, a two-attribute geo group and an
// interval spend, two well-separated populations, seeded so every run
// produces the same bytes.
func kitchenCSV() []byte {
	var b bytes.Buffer
	b.WriteString("Segment:nominal,Lat:interval,Lon:interval,Spend:interval\n")
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 800; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "Premium,%.6f,%.6f,%.2f\n",
				40.0+rng.NormFloat64()*0.01, -83.0+rng.NormFloat64()*0.01, 900+rng.NormFloat64()*40)
		} else {
			fmt.Fprintf(&b, "Basic,%.6f,%.6f,%.2f\n",
				41.5+rng.NormFloat64()*0.01, -81.5+rng.NormFloat64()*0.01, 120+rng.NormFloat64()*20)
		}
	}
	return b.Bytes()
}

// stripDurations drops the wall-clock lines ("durationMs": …) from an
// exported JSON document — the only nondeterministic bytes in it.
func stripDurations(b []byte) []byte {
	lines := strings.Split(string(b), "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, `"durationMs"`) {
			continue
		}
		out = append(out, l)
	}
	return []byte(strings.Join(out, "\n"))
}

func postIngest(t *testing.T, ts *httptest.Server, name, params string, csv []byte) map[string]any {
	t.Helper()
	url := ts.URL + "/v1/ingest?name=" + name
	if params != "" {
		url += "&" + params
	}
	resp, err := http.Post(url, "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("POST ingest: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ingest: status %d: %s", resp.StatusCode, body)
	}
	var ack map[string]any
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	return ack
}

func postQuery(t *testing.T, ts *httptest.Server, name, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/summaries/"+name+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST query: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading query response: %v", err)
	}
	return resp, b
}

// cliQueryBytes reproduces the `darminer ingest | darminer query -json`
// pipeline in-process: CSV → Phase I with derived thresholds → encode →
// strict decode (the disk round trip) → Phase II → exported JSON. The
// differential tests pin the server's responses to these bytes.
func cliQueryBytes(t *testing.T, csv []byte, groups string, workers int) []byte {
	t.Helper()
	rel, err := relation.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), groups)
	if err != nil {
		t.Fatalf("ParseGroupsSpec: %v", err)
	}
	opt := core.DefaultOptions()
	opt.DiameterThreshold = 0
	opt.Workers = workers
	suggested, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		t.Fatalf("SuggestThresholds: %v", err)
	}
	opt.DiameterThresholds = suggested
	sum, err := core.Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	encoded, err := summary.Encode(sum)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := summary.Decode(encoded)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	q := core.DefaultQueryOptions()
	q.Workers = workers
	res, err := core.QuerySummary(decoded, q)
	if err != nil {
		t.Fatalf("QuerySummary: %v", err)
	}
	schema, err := decoded.Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	qpart, err := decoded.Partitioning(schema)
	if err != nil {
		t.Fatalf("Partitioning: %v", err)
	}
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, res, relation.NewRelation(schema), qpart); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestServedQueryMatchesCLI is the differential acceptance test: for
// the salary and kitchen-sink datasets, at 1 and 4 workers, a query
// served over HTTP is bit-identical (wall-clock lines aside) to the
// `darminer ingest | query` pipeline over the same CSV.
func TestServedQueryMatchesCLI(t *testing.T) {
	datasets := []struct {
		name   string
		csv    []byte
		groups string
	}{
		{"salary", salaryCSV(t), ""},
		{"kitchen", kitchenCSV(), "Lat+Lon"},
	}
	_, ts := newTestServer(t, Config{})
	for _, ds := range datasets {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", ds.name, workers), func(t *testing.T) {
				name := fmt.Sprintf("%s-w%d", ds.name, workers)
				params := fmt.Sprintf("workers=%d", workers)
				if ds.groups != "" {
					params += "&groups=" + url.QueryEscape(ds.groups)
				}
				postIngest(t, ts, name, params, ds.csv)
				resp, served := postQuery(t, ts, name, fmt.Sprintf(`{"workers":%d}`, workers))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("query status %d: %s", resp.StatusCode, served)
				}
				want := cliQueryBytes(t, ds.csv, ds.groups, workers)
				if got, wantS := string(stripDurations(served)), string(stripDurations(want)); got != wantS {
					t.Errorf("served query diverges from the CLI pipeline\nserved:\n%s\nCLI:\n%s", got, wantS)
				}
			})
		}
	}
}

// TestWorkerCountInvariance double-checks determinism through the
// server: the same summary queried at 1 and 4 workers yields the same
// rules, and both hit the same cache entry (workers are excluded from
// the canonical key).
func TestWorkerCountInvariance(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postIngest(t, ts, "s", "", salaryCSV(t))
	resp1, b1 := postQuery(t, ts, "s", `{"workers":1}`)
	resp4, b4 := postQuery(t, ts, "s", `{"workers":4}`)
	if resp1.StatusCode != 200 || resp4.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp4.StatusCode)
	}
	if !bytes.Equal(b1, b4) {
		t.Errorf("workers=1 and workers=4 served different bytes")
	}
	if got := resp4.Header.Get("X-Dard-Cache"); got != "hit" {
		t.Errorf("workers=4 X-Dard-Cache = %q, want \"hit\" (workers must not fragment the cache)", got)
	}
	if hits := srv.Metrics().QueryCacheHits.Load(); hits != 1 {
		t.Errorf("QueryCacheHits = %d, want 1", hits)
	}
}

// TestCacheHitAndMergeInvalidation walks the cache lifecycle: miss,
// byte-identical hit, then a shard merge that bumps the version,
// invalidates the entry, and changes the answer.
func TestCacheHitAndMergeInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	csv := salaryCSV(t)
	postIngest(t, ts, "s", "", csv)

	respMiss, missBody := postQuery(t, ts, "s", "{}")
	if respMiss.Header.Get("X-Dard-Cache") != "miss" {
		t.Fatalf("first query X-Dard-Cache = %q, want miss", respMiss.Header.Get("X-Dard-Cache"))
	}
	respHit, hitBody := postQuery(t, ts, "s", "{}")
	if respHit.Header.Get("X-Dard-Cache") != "hit" {
		t.Fatalf("second query X-Dard-Cache = %q, want hit", respHit.Header.Get("X-Dard-Cache"))
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Errorf("cache hit returned different bytes than the miss that populated it")
	}
	if respMiss.Header.Get("X-Dard-Summary-Version") != "1" {
		t.Errorf("version header %q, want 1 (first ingest of a fresh name)", respMiss.Header.Get("X-Dard-Summary-Version"))
	}

	// Merge an identically-ingested shard: tuple counts double.
	shard := encodeShard(t, csv, "")
	resp, err := http.Post(ts.URL+"/v1/summaries/s/merge", "application/octet-stream", bytes.NewReader(shard))
	if err != nil {
		t.Fatalf("POST merge: %v", err)
	}
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status %d: %s", resp.StatusCode, ack)
	}
	var m mergeResponse
	if err := json.Unmarshal(ack, &m); err != nil {
		t.Fatalf("merge response: %v", err)
	}
	if m.Shards != 2 {
		t.Errorf("merged shards = %d, want 2", m.Shards)
	}

	respAfter, afterBody := postQuery(t, ts, "s", "{}")
	if respAfter.Header.Get("X-Dard-Cache") != "miss" {
		t.Errorf("post-merge query X-Dard-Cache = %q, want miss (merge must invalidate)", respAfter.Header.Get("X-Dard-Cache"))
	}
	if respAfter.Header.Get("X-Dard-Summary-Version") != "2" {
		t.Errorf("post-merge version header %q, want 2", respAfter.Header.Get("X-Dard-Summary-Version"))
	}
	var before, after struct {
		Tuples int `json:"tuples"`
	}
	if err := json.Unmarshal(missBody, &before); err != nil {
		t.Fatalf("parsing pre-merge result: %v", err)
	}
	if err := json.Unmarshal(afterBody, &after); err != nil {
		t.Fatalf("parsing post-merge result: %v", err)
	}
	if after.Tuples != 2*before.Tuples {
		t.Errorf("post-merge tuples = %d, want %d", after.Tuples, 2*before.Tuples)
	}
	if inv := srv.cache; inv != nil {
		if n, _ := inv.stats(); n != 1 {
			t.Errorf("cache entries after merge+requery = %d, want 1 (stale entry evicted)", n)
		}
	}
}

// encodeShard ingests a CSV with derived thresholds and returns the
// encoded artifact — a mergeable shard.
func encodeShard(t *testing.T, csv []byte, groups string) []byte {
	t.Helper()
	rel, err := relation.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), groups)
	if err != nil {
		t.Fatalf("ParseGroupsSpec: %v", err)
	}
	opt := core.DefaultOptions()
	opt.DiameterThreshold = 0
	suggested, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		t.Fatalf("SuggestThresholds: %v", err)
	}
	opt.DiameterThresholds = suggested
	sum, err := core.Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	b, err := summary.Encode(sum)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

// TestSingleflightCollapsesIdenticalQueries holds an execution open
// until seven more identical requests have joined the flight, then
// releases it: exactly one execution serves all eight responses, and
// every response names the catalog versions its body was rendered
// from, whether it ran the flight or joined it — for a query and for a
// diff, which share the flight machinery.
func TestSingleflightCollapsesIdenticalQueries(t *testing.T) {
	opts := core.DefaultQueryOptions().CanonicalKey()
	for _, tc := range []struct {
		name, path string
		key        string
		versions   map[string]string // response header → catalog version
	}{
		{"query", "/v1/summaries/s/query", cacheKey("s", 1, opts),
			map[string]string{"X-Dard-Summary-Version": "1"}},
		{"diff", "/v1/summaries/s/diff/t", diffCacheKey("s", 1, "t", 2, opts),
			map[string]string{"X-Dard-Summary-Version": "1", "X-Dard-Other-Version": "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			csv := salaryCSV(t)
			postIngest(t, ts, "s", "", csv)
			postIngest(t, ts, "t", "", csv)
			postIngest(t, ts, "t", "", csv)
			if vs, _ := srv.catalog.version("s"); vs != 1 {
				t.Fatalf("version of s = %d, want 1", vs)
			}
			if vt, _ := srv.catalog.version("t"); vt != 2 {
				t.Fatalf("version of t = %d, want 2", vt)
			}

			entered := make(chan struct{})
			release := make(chan struct{})
			var once bool
			hook := func() {
				if !once {
					once = true
					close(entered)
				}
				<-release
			}
			srv.testHookExec.Store(&hook)

			const clients = 8
			type result struct {
				status int
				header http.Header
				body   []byte
			}
			results := make(chan result, clients)
			for i := 0; i < clients; i++ {
				go func() {
					resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader("{}"))
					if err != nil {
						results <- result{body: []byte(err.Error())}
						return
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					results <- result{resp.StatusCode, resp.Header, b}
				}()
			}
			<-entered
			deadline := time.Now().Add(10 * time.Second)
			for srv.flights.pending(tc.key) < clients-1 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d clients joined the flight", srv.flights.pending(tc.key), clients-1)
				}
				time.Sleep(time.Millisecond)
			}
			close(release)

			var bodies [][]byte
			for i := 0; i < clients; i++ {
				r := <-results
				if r.status != http.StatusOK {
					t.Fatalf("client got status %d: %s", r.status, r.body)
				}
				for h, want := range tc.versions {
					if got := r.header.Get(h); got != want {
						t.Errorf("client got %s %q, want %q", h, got, want)
					}
				}
				bodies = append(bodies, r.body)
			}
			for i := 1; i < clients; i++ {
				if !bytes.Equal(bodies[0], bodies[i]) {
					t.Errorf("client %d received different bytes", i)
				}
			}
			m := srv.Metrics()
			if got := m.QueryExecutions.Load(); got != 1 {
				t.Errorf("QueryExecutions = %d, want 1", got)
			}
			if got := m.QueryShared.Load(); got != clients-1 {
				t.Errorf("QueryShared = %d, want %d", got, clients-1)
			}
			if got := m.QueryCacheMisses.Load(); got != clients {
				t.Errorf("QueryCacheMisses = %d, want %d", got, clients)
			}
		})
	}
}

// postQueryQuiet is postQuery without the testing.T plumbing, for use
// inside goroutines.
func postQueryQuiet(ts *httptest.Server, name, body string) (int, []byte) {
	resp, err := http.Post(ts.URL+"/v1/summaries/"+name+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestQueryTimeout pins the 504 path: an execution that outlives the
// budget times the request out, but the flight keeps running and its
// result serves the next request from the cache.
func TestQueryTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryTimeout: 30 * time.Millisecond})
	postIngest(t, ts, "s", "", salaryCSV(t))

	release := make(chan struct{})
	hook := func() { <-release }
	srv.testHookExec.Store(&hook)
	status, body := postQueryQuiet(ts, "s", "{}")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", status, body)
	}
	if got := srv.Metrics().QueryTimeouts.Load(); got != 1 {
		t.Errorf("QueryTimeouts = %d, want 1", got)
	}

	close(release)
	srv.testHookExec.Store(nil)
	// Wait for the result to land in the cache, not for the execution
	// count: that counts an execution as it starts, so a follow-up sent
	// on it can still join the running flight and read "shared".
	deadline := time.Now().Add(10 * time.Second)
	for n, _ := srv.cache.stats(); n == 0; n, _ = srv.cache.stats() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never cached its result")
		}
		time.Sleep(time.Millisecond)
	}
	// The abandoned flight's result must now be a cache hit.
	resp, b := postQuery(t, ts, "s", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Dard-Cache"); got != "hit" {
		t.Errorf("follow-up X-Dard-Cache = %q, want hit", got)
	}
}

// TestConcurrentClients is the acceptance concurrency test: eight
// goroutines issue a mix of cached and uncached queries against two
// summaries while a merge lands mid-stream. Run under -race; afterward
// /metrics must show cache hits and a coherent request ledger.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := salaryCSV(t)
	postIngest(t, ts, "a", "", csv)
	postIngest(t, ts, "b", "", kitchenCSV())

	queries := []string{
		"{}",
		`{"frequencyFraction":0.05}`,
		`{"degreeFactor":1.5}`,
		`{"maxAntecedent":2}`,
	}
	shard := encodeShard(t, csv, "")

	const clients = 8
	errs := make(chan error, clients+1)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		go func(i int) {
			<-start
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			for j := 0; j < 6; j++ {
				status, body := postQueryQuiet(ts, name, queries[(i+j)%len(queries)])
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d query %d: status %d: %s", i, j, status, body)
					return
				}
			}
			errs <- nil
		}(i)
	}
	go func() {
		<-start
		resp, err := http.Post(ts.URL+"/v1/summaries/a/merge", "application/octet-stream", bytes.NewReader(shard))
		if err != nil {
			errs <- fmt.Errorf("merge: %v", err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("merge status %d: %s", resp.StatusCode, body)
			return
		}
		errs <- nil
	}()
	close(start)
	for i := 0; i < clients+1; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// Scrape /metrics over HTTP, as a client would.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if snap["query_cache_hits_total"] == 0 {
		t.Errorf("no cache hits observed on /metrics after %d clients × 6 queries", clients)
	}
	answered := snap["query_cache_hits_total"] + snap["query_cache_misses_total"]
	if want := int64(clients * 6); answered != want {
		t.Errorf("hits+misses = %d, want %d (every query resolves as exactly one)", answered, want)
	}
	if snap["merge_requests_total"] != 1 {
		t.Errorf("merge_requests_total = %d, want 1", snap["merge_requests_total"])
	}
	if snap["errors_total"] != 0 {
		t.Errorf("errors_total = %d, want 0", snap["errors_total"])
	}
}

// TestRequestValidation sweeps the 4xx surface.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueryBytes: 256})
	postIngest(t, ts, "s", "", salaryCSV(t))

	cases := []struct {
		name, method, url, body string
		want                    int
	}{
		{"unknown summary", "POST", "/v1/summaries/nosuch/query", "{}", 404},
		{"bad name", "POST", "/v1/summaries/..%2fetc/query", "{}", 400},
		{"bad option value", "POST", "/v1/summaries/s/query", `{"frequencyFraction":-3}`, 400},
		{"unknown option", "POST", "/v1/summaries/s/query", `{"bogus":1}`, 400},
		{"bad metric", "POST", "/v1/summaries/s/query", `{"metric":"D9"}`, 400},
		{"oversized body", "POST", "/v1/summaries/s/query", `{"workers":1,   ` + strings.Repeat(" ", 300) + "}", 413},
		{"ingest without name", "POST", "/v1/ingest", "Age:interval\n1\n", 400},
		{"merge garbage", "POST", "/v1/summaries/s/merge", "not an acfsum", 400},
		{"detail of unknown", "GET", "/v1/summaries/nosuch", "", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("building request: %v", err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("do: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not the uniform error document", body)
			}
		})
	}
}

// TestListAndDetail exercises catalog inspection.
func TestListAndDetail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postIngest(t, ts, "beta", "", salaryCSV(t))
	postIngest(t, ts, "alpha", "groups="+url.QueryEscape("Lat+Lon"), kitchenCSV())

	resp, err := http.Get(ts.URL + "/v1/summaries")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	defer resp.Body.Close()
	var rows []entryInfo
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("parsing list: %v", err)
	}
	if len(rows) != 2 || rows[0].Name != "alpha" || rows[1].Name != "beta" {
		t.Fatalf("list = %+v, want [alpha beta] sorted", rows)
	}
	if rows[1].Tuples == 0 || rows[1].Clusters == 0 {
		t.Errorf("list row carries no provenance: %+v", rows[1])
	}

	dresp, err := http.Get(ts.URL + "/v1/summaries/alpha")
	if err != nil {
		t.Fatalf("GET detail: %v", err)
	}
	defer dresp.Body.Close()
	var detail summaryDetail
	if err := json.NewDecoder(dresp.Body).Decode(&detail); err != nil {
		t.Fatalf("parsing detail: %v", err)
	}
	if detail.Name != "alpha" || len(detail.GroupDetails) == 0 {
		t.Fatalf("detail = %+v, want alpha with group provenance", detail)
	}
	foundGeo := false
	for _, g := range detail.GroupDetails {
		if strings.Contains(g.Name, "Lat") || strings.Contains(g.Name, "geo") {
			foundGeo = true
		}
	}
	if !foundGeo {
		t.Errorf("detail groups %+v do not mention the multi-attribute geo group", detail.GroupDetails)
	}
}

// TestCatalogPersistence proves artifacts survive a restart: a second
// Server over the same data dir serves the same query bytes without
// re-ingesting.
func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{DataDir: dir})
	postIngest(t, ts1, "s", "", salaryCSV(t))
	resp1, b1 := postQuery(t, ts1, "s", "{}")
	if resp1.StatusCode != 200 {
		t.Fatalf("first server query: %d", resp1.StatusCode)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp2, b2 := postQuery(t, ts2, "s", "{}")
	if resp2.StatusCode != 200 {
		t.Fatalf("restarted server query: %d: %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(stripDurations(b1), stripDurations(b2)) {
		t.Errorf("restarted server served different rules from the same artifact")
	}
}

// TestIngestDefaultWorkers pins the ?workers= default: omitting the
// parameter must use every core (GOMAXPROCS) rather than the serial
// path, and — because the pipeline is bit-identical at any worker
// count — produce exactly the bytes an explicit workers=1 ingest does.
func TestIngestDefaultWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := kitchenCSV()
	postIngest(t, ts, "defaulted", "groups="+url.QueryEscape("Lat+Lon"), csv)
	postIngest(t, ts, "serial", "workers=1&groups="+url.QueryEscape("Lat+Lon"), csv)
	resp, def := postQuery(t, ts, "defaulted", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, def)
	}
	resp, ser := postQuery(t, ts, "serial", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, ser)
	}
	if got, want := string(stripDurations(def)), string(stripDurations(ser)); got != want {
		t.Errorf("defaulted-workers ingest diverges from workers=1\ndefault:\n%s\nserial:\n%s", got, want)
	}
}

// TestIngestWorkersClamped pins the upper bound on ?workers= at both
// ingest endpoints: the lane pipeline spawns min(workers, groups) − 1
// goroutines (core's TestLaneGoroutines), so without the clamp
// workers=1000000 on this 200-column body would start 199 goroutines
// where the default request starts at most GOMAXPROCS − 1. The test
// checks the worker count parseIngest, shared by both endpoints, hands
// Phase I, and that such a request allocates within 1.25× of the
// default one; keep the body narrow.
func TestIngestWorkersClamped(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	const cols, rows = 200, 20
	var b bytes.Buffer
	for c := 0; c < cols; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "c%d:interval", c)
	}
	b.WriteByte('\n')
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", rng.Intn(100))
		}
		b.WriteByte('\n')
	}
	body := b.Bytes()

	alloc := func(url string) uint64 {
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", url, rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, u := range []string{"/v1/ingest?name=wide&d0=1", "/v1/ingest/shard?d0=1"} {
		alloc(u) // warm-up
		def := alloc(u)
		huge := alloc(u + "&workers=1000000")
		t.Logf("POST %s: default %d B, workers=1000000 %d B", u, def, huge)
		if float64(huge) > 1.25*float64(def) {
			t.Errorf("POST %s: workers=1000000 allocated %d B, default %d B; want at most 1.25×", u, huge, def)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/ingest?name=wide&d0=1&workers=1000000", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	_, _, opt, ok := srv.parseIngest(rec, req, "relation", true)
	if !ok {
		t.Fatalf("parseIngest: status %d: %s", rec.Code, rec.Body)
	}
	if procs := runtime.GOMAXPROCS(0); opt.Workers != procs {
		t.Errorf("workers=1000000 reached Phase I as Workers=%d; want GOMAXPROCS = %d", opt.Workers, procs)
	}
}

// overflowCSV leads with 40 rows whose squared sums overflow to +Inf,
// then ordinary rows: every centroid distance an ACF-tree descent
// computes against the first clusters is +Inf or NaN.
func overflowCSV() []byte {
	var b bytes.Buffer
	b.WriteString("A:interval,B:interval\n")
	for i := 0; i < 40; i++ {
		b.WriteString("1e160,1e160\n")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", rng.Intn(50), rng.Intn(50))
	}
	return b.Bytes()
}

// TestIngestRejectsNonFiniteThresholds: a d0 or a ?d0s= entry that is
// NaN, infinite or negative is a client error on both ingest endpoints.
// Accepted, a NaN d0 put every tuple in its own cluster and stored a
// summary whose JSON rendering failed after the 200 header, and a bad
// ?d0s= entry silently fell back to threshold 0.
func TestIngestRejectsNonFiniteThresholds(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := salaryCSV(t) // three groups: Age, Salary, Dept
	var urls []string
	for _, d0 := range []string{"NaN", "Inf", "-Inf"} {
		urls = append(urls, "/v1/ingest?name=bad&d0="+d0, "/v1/ingest/shard?d0="+d0)
	}
	for _, d0s := range []string{"NaN,1,0", "1,NaN,0", "-1,1,0", "1,-0.5,0", "Inf,1,0", "1,1,-Inf"} {
		urls = append(urls, "/v1/ingest?name=bad&d0s="+d0s, "/v1/ingest/shard?d0s="+d0s)
	}
	for _, u := range urls {
		resp, err := http.Post(ts.URL+u, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", u, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("DiameterThreshold")) {
			t.Errorf("POST %s: status %d, want 400 naming the threshold (body %.120q)", u, resp.StatusCode, b)
		}
	}
	if _, ok := srv.catalog.version("bad"); ok {
		t.Error("a rejected ingest installed a summary")
	}
}

// TestIngestPinsD0s: ?d0s= pins one threshold per group on
// POST /v1/ingest as it does on the shard endpoint, so the stored
// summary records exactly the pinned vector (GET /v1/summaries/{name},
// groupDetails[].d0) instead of thresholds derived from the data, and
// its nonzero entries override a scalar ?d0= (a zero entry falls back
// to it). A vector that cannot pin the groups is a client error.
func TestIngestPinsD0s(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := salaryCSV(t) // three groups: Age, Salary, Dept (nominal)
	for _, tc := range []struct {
		url    string
		pinned []float64
	}{
		{"/v1/ingest?name=pinned&d0s=3,2500,0", []float64{3, 2500, 0}},
		{"/v1/ingest?name=pinned&d0=7&d0s=3,2500,0", []float64{3, 2500, 7}},
	} {
		u, pinned := tc.url, tc.pinned
		resp, err := http.Post(ts.URL+u, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", u, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", u, resp.StatusCode, b)
		}
		resp, err = http.Get(ts.URL + "/v1/summaries/pinned")
		if err != nil {
			t.Fatalf("GET detail: %v", err)
		}
		var detail summaryDetail
		err = json.NewDecoder(resp.Body).Decode(&detail)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding detail: %v", err)
		}
		if len(detail.GroupDetails) != len(pinned) {
			t.Fatalf("POST %s: %d groups, want %d", u, len(detail.GroupDetails), len(pinned))
		}
		for g, gd := range detail.GroupDetails {
			if gd.D0 != pinned[g] {
				t.Errorf("POST %s: group %s d0 = %v, want the pinned %v", u, gd.Name, gd.D0, pinned[g])
			}
		}
	}
	for _, d0s := range []string{"NaN,1", "1,2", "1,2,3,4", "1,x,0"} {
		resp, err := http.Post(ts.URL+"/v1/ingest?name=bad&d0s="+d0s, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST d0s=%s: %v", d0s, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/ingest?d0s=%s: status %d, want 400", d0s, resp.StatusCode)
		}
	}
}

// TestIngestRejectsOverflowingSums pins the answer to a relation whose
// sums overflow: both ingest endpoints answer 400 at the serial and the
// pipelined worker counts, with or without a d0, nothing lands in the
// catalog, and the server keeps serving. A panic in Phase I would not
// do: net/http recovers it on the serial path, but on a pipeline lane
// goroutine it kills the process.
func TestIngestRejectsOverflowingSums(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := overflowCSV()
	for _, u := range []string{
		"/v1/ingest?name=big&workers=1",
		"/v1/ingest?name=big&workers=2",
		"/v1/ingest?name=big&workers=2&d0=0.1",
		"/v1/ingest/shard?workers=1",
		"/v1/ingest/shard?workers=2&d0=0.1",
	} {
		resp, err := http.Post(ts.URL+u, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", u, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("overflow")) {
			t.Fatalf("POST %s: status %d, want 400 naming the overflow (body %s)", u, resp.StatusCode, b)
		}
	}
	if _, ok := srv.catalog.version("big"); ok {
		t.Fatal("a failed ingest installed a summary")
	}
	postIngest(t, ts, "ok", "workers=2", salaryCSV(t))
	if resp, b := postQuery(t, ts, "ok", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the rejected ingests: status %d: %s", resp.StatusCode, b)
	}
}
