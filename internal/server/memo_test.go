package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

// renderQuery is the memo-free reference a served body is checked
// against: a fresh core.QuerySummary, rendered in one core.WriteJSON
// pass over the summary's recorded schema, as `darminer query -json`
// renders it.
func renderQuery(sum *summary.Summary, q core.QueryOptions) ([]byte, error) {
	res, err := core.QuerySummary(sum, q)
	if err != nil {
		return nil, err
	}
	schema, err := sum.Schema()
	if err != nil {
		return nil, err
	}
	part, err := sum.Partitioning(schema)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, res, relation.NewRelation(schema), part); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// installMergedWBCD installs, under name, a 4-shard merge of a small
// WBCD-like relation: thresholds derived once over the whole relation
// and pinned for every row-range shard, as darc does.
func installMergedWBCD(t *testing.T, srv *Server, name string) {
	t.Helper()
	cfg := datagen.DefaultWBCDConfig()
	cfg.Attrs, cfg.CentersPerAttr, cfg.Tuples = 9, 12, 2000
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), "")
	if err != nil {
		t.Fatal(err)
	}
	d0s, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	per := rel.Len() / shards
	var sums []*summary.Summary
	var ids []string
	for i := 0; i < shards; i++ {
		sub := relation.NewRelation(rel.Schema())
		for r := i * per; r < (i+1)*per; r++ {
			sub.MustAppend(rel.Tuple(r))
		}
		opt := core.DefaultOptions()
		opt.DiameterThresholds = d0s
		sum, err := core.Ingest(sub, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		ids = append(ids, fmt.Sprintf("%s/shard-%d", name, i))
	}
	merged, err := summary.MergeAll(sums, ids)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := summary.Encode(merged)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.InstallSummary(name, encoded); err != nil {
		t.Fatal(err)
	}
}

// modeDocs is the memo differential's document table: Measures × group
// filters × SweepFactors × TopK × degreeFactor, plus one D1 and one
// graphFactor document. first and last name two of the summary's
// attribute groups.
func modeDocs(first, last string) []string {
	var docs []string
	filters := []string{
		"",
		fmt.Sprintf(`"antecedentGroups":[%q]`, first),
		fmt.Sprintf(`"consequentGroups":[%q]`, last),
		fmt.Sprintf(`"antecedentGroups":[%q],"consequentGroups":[%q]`, first, last),
	}
	for _, degree := range []string{"", `"degreeFactor":0.5`, `"degreeFactor":0.75`} {
		for _, measures := range []string{"", `"measures":true`} {
			for _, filter := range filters {
				for _, sweep := range []string{"", `"sweepFactors":[0.25,0.5]`} {
					for _, topK := range []string{"", `"topK":3`} {
						var fields []string
						for _, f := range []string{degree, measures, filter, sweep, topK} {
							if f != "" {
								fields = append(fields, f)
							}
						}
						docs = append(docs, "{"+strings.Join(fields, ",")+"}")
					}
				}
			}
		}
	}
	return append(docs, `{"metric":"D1","topK":5}`, `{"graphFactor":1.5,"measures":true}`)
}

// sibling returns a document with doc's base options but different
// modes (topK 997 appears nowhere in the table), so serving it first
// leaves doc's base memoized and doc's own answer uncached.
func sibling(doc string) string {
	var m map[string]any
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		panic(err)
	}
	m["topK"] = 997
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// scrape reads the server's /metrics document.
func scrape(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return snap
}

// TestMemoDifferential serves every document of the mode table as a
// miss over a memoized base and pins its bytes to the memo-free
// reference (a fresh core.QuerySummary per document), on a kitchen-sink
// relation with a nominal group and on a 4-shard merged WBCD-like
// summary.
func TestMemoDifferential(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postIngest(t, ts, "kitchen", "groups="+url.QueryEscape("Lat+Lon"), kitchenCSV())
	installMergedWBCD(t, srv, "wbcd")

	for _, name := range []string{"kitchen", "wbcd"} {
		t.Run(name, func(t *testing.T) {
			sum, version, err := srv.catalog.get(name)
			if err != nil {
				t.Fatal(err)
			}
			first, last := sum.Groups[0].Name, sum.Groups[len(sum.Groups)-1].Name
			for _, doc := range modeDocs(first, last) {
				q, err := parseQueryOptions([]byte(doc))
				if err != nil {
					t.Fatalf("%s: %v", doc, err)
				}
				if resp, body := postQuery(t, ts, name, sibling(doc)); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: sibling query: %d: %s", doc, resp.StatusCode, body)
				}
				before := srv.Metrics().QueryBaseBuilds.Load()
				resp, body := postQuery(t, ts, name, doc)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d: %s", doc, resp.StatusCode, body)
				}
				if got := resp.Header.Get("X-Dard-Cache"); got != "miss" {
					t.Fatalf("%s: X-Dard-Cache %q, want miss", doc, got)
				}
				if got := resp.Header.Get("X-Dard-Summary-Version"); got != strconv.FormatUint(version, 10) {
					t.Fatalf("%s: version %s, want %d", doc, got, version)
				}
				if srv.Metrics().QueryBaseBuilds.Load() != before {
					t.Fatalf("%s: rebuilt a base its sibling had memoized", doc)
				}
				want, err := renderQuery(sum, q)
				if err != nil {
					t.Fatalf("%s: reference: %v", doc, err)
				}
				if !bytes.Equal(stripDurations(body), stripDurations(want)) {
					t.Fatalf("%s: served bytes differ from a fresh QuerySummary:\n got:\n%s\nwant:\n%s", doc, body, want)
				}
			}

			// Measures annotate a copy: a plain document served after a
			// measures one on the same base carries none.
			postQuery(t, ts, name, `{"measures":true,"degreeFactor":0.6}`)
			_, plain := postQuery(t, ts, name, `{"degreeFactor":0.6}`)
			if bytes.Contains(plain, []byte(`"measures"`)) {
				t.Errorf("plain query after a measures query on one base carries measures")
			}
		})
	}
}

// TestMemoCollapsesConcurrentBaseBuilds holds the base build open until
// every other distinct-mode miss on the same version has joined its
// flight: N executions, one base build, N-1 reuses, all as /metrics
// reports them.
func TestMemoCollapsesConcurrentBaseBuilds(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postIngest(t, ts, "s", "", salaryCSV(t))

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func() {
		once.Do(func() { close(entered) })
		<-release
	}
	srv.testHookBase.Store(&hook)
	releaseBuild := sync.OnceFunc(func() { close(release) })
	defer releaseBuild() // a failed wait still lets the flight finish

	const clients = 6
	statuses := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			status, _ := postQueryQuiet(ts, "s", fmt.Sprintf(`{"topK":%d}`, i+1))
			statuses <- status
		}()
	}
	<-entered
	key := baseCacheKey("s", 1, core.DefaultQueryOptions())
	deadline := time.Now().Add(10 * time.Second)
	for srv.flights.pending(key) < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d misses joined the base flight", srv.flights.pending(key), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	releaseBuild()
	for i := 0; i < clients; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("client got status %d", status)
		}
	}

	snap := scrape(t, ts)
	for metric, want := range map[string]int64{
		"query_executions_total":  clients,
		"query_base_builds_total": 1,
		"query_base_reuses_total": clients - 1,
		"cache_entries":           clients,
		"cache_base_entries":      1,
	} {
		if snap[metric] != want {
			t.Errorf("%s = %d, want %d", metric, snap[metric], want)
		}
	}
	if snap["cache_base_bytes"] <= 0 {
		t.Errorf("cache_base_bytes = %d, want the memoized base's weight", snap["cache_base_bytes"])
	}
}

// TestMemoStaysInsideCacheBudget queries one version with a run of
// distinct graphFactor values — a new base each — under a budget a few
// bases wide: bodies and bases together never exceed it.
func TestMemoStaysInsideCacheBudget(t *testing.T) {
	probe, pts := newTestServer(t, Config{})
	postIngest(t, pts, "s", "", kitchenCSV())
	postQuery(t, pts, "s", "{}")
	_, baseWeight := probe.cache.baseStats()
	_, bodyWeight := probe.cache.stats()
	budget := 3*baseWeight + 2*bodyWeight

	srv, ts := newTestServer(t, Config{CacheBytes: budget})
	postIngest(t, ts, "s", "", kitchenCSV())
	for i := 0; i < 12; i++ {
		doc := fmt.Sprintf(`{"graphFactor":%g}`, 1+0.25*float64(i))
		if resp, body := postQuery(t, ts, "s", doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", doc, resp.StatusCode, body)
		}
		snap := scrape(t, ts)
		if used := snap["cache_bytes"] + snap["cache_base_bytes"]; used > budget {
			t.Fatalf("after %s the cache holds %d bytes, over its %d budget", doc, used, budget)
		}
	}
	if got := srv.Metrics().QueryBaseBuilds.Load(); got != 12 {
		t.Errorf("query_base_builds_total = %d, want 12 (one per graphFactor)", got)
	}
}

// TestMemoReingestRace re-ingests two different relations alternately
// under one name while two readers query a mix of documents. Every
// body must be the reference answer for the relation its
// X-Dard-Summary-Version names: a base memoized for one version must
// never answer a query on another.
func TestMemoReingestRace(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	relations := [][]byte{jobsCSV(false), jobsCSV(true)}
	docs := []string{
		`{}`, `{"topK":2}`, `{"measures":true}`, `{"consequentGroups":["Salary"]}`,
		`{"degreeFactor":0.5,"sweepFactors":[0.25,0.5]}`, `{"measures":true,"antecedentGroups":["Job"]}`,
	}

	// The reference answers: each relation through the same ingest
	// pipeline, queried memo-free.
	want := make([]map[string][]byte, len(relations))
	for i, csv := range relations {
		sum, err := summary.Decode(encodeShard(t, csv, ""))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = map[string][]byte{}
		for _, doc := range docs {
			q, err := parseQueryOptions([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			body, err := renderQuery(sum, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i][doc] = stripDurations(body)
		}
	}

	type served struct {
		doc     string
		version string
		body    []byte
	}
	var (
		mu       sync.Mutex
		versions = map[string]int{} // catalog version → relation index
		bodies   []served
		done     = make(chan struct{})
		wg       sync.WaitGroup
	)
	ack := postIngest(t, ts, "s", "", relations[0])
	versions[fmt.Sprint(ack["version"])] = 0

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				doc := docs[i%len(docs)]
				resp, err := http.Post(ts.URL+"/v1/summaries/s/query", "application/json", strings.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", doc, resp.StatusCode, buf.Bytes())
					return
				}
				mu.Lock()
				bodies = append(bodies, served{doc, resp.Header.Get("X-Dard-Summary-Version"), buf.Bytes()})
				mu.Unlock()
			}
		}()
	}
	stopReaders := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopReaders() // a failed ingest still stops the readers
	for i := 1; i <= 12; i++ {
		ack := postIngest(t, ts, "s", "", relations[i%2])
		mu.Lock()
		versions[fmt.Sprint(ack["version"])] = i % 2
		mu.Unlock()
	}
	stopReaders()

	if len(bodies) == 0 {
		t.Fatal("readers served nothing")
	}
	for _, b := range bodies {
		rel, ok := versions[b.version]
		if !ok {
			t.Fatalf("%s: served version %q was never ingested", b.doc, b.version)
		}
		if !bytes.Equal(stripDurations(b.body), want[rel][b.doc]) {
			t.Fatalf("%s at version %s: body is not relation %d's answer", b.doc, b.version, rel)
		}
	}
	t.Logf("%d bodies over %d versions; %d base builds, %d reuses", len(bodies), len(versions),
		srv.Metrics().QueryBaseBuilds.Load(), srv.Metrics().QueryBaseReuses.Load())
}

// TestOptionBodiesRejectTrailingData: a query or diff options body is
// exactly one JSON object. A second object, garbage or a stray bracket
// after it is a 400, not ignored; whitespace after it is fine. An
// unknown metric's error names every metric the engine accepts.
func TestOptionBodiesRejectTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postIngest(t, ts, "s", "", salaryCSV(t))
	for _, path := range []string{"/v1/summaries/s/query", "/v1/summaries/s/diff/s"} {
		for _, tc := range []struct {
			body   string
			status int
			errHas string
		}{
			{`{"topK":1}`, http.StatusOK, ""},
			{"{\"topK\":1} \n\t\r\n", http.StatusOK, ""},
			{"", http.StatusOK, ""},
			{`{"topK":1}{"topK":50}`, http.StatusBadRequest, "trailing data"},
			{`{"topK":1} garbage`, http.StatusBadRequest, "trailing data"},
			{`{"topK":1}]`, http.StatusBadRequest, "trailing data"},
			{`{"metric":"D3"}`, http.StatusOK, ""},
			{`{"metric":"D9"}`, http.StatusBadRequest, "D0, D1, D2, D3, D4"},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != tc.status || !strings.Contains(buf.String(), tc.errHas) {
				t.Errorf("%s %q: %d %s, want %d containing %q", path, tc.body, resp.StatusCode, buf.Bytes(), tc.status, tc.errHas)
			}
		}
	}
}

// TestCachedBodiesAreTight checks that the result cache holds what
// cache_bytes and cache_base_bytes count: every answer body and every
// frame it stores has at most allocator rounding past its length (an
// eighth, or one 8 KiB page), not the spare capacity of a buffer the
// render grew into. It runs over the salary golden dataset, the
// kitchen-sink data and a 20K-tuple WBCD summary, at topK 0 and 10 and
// with measures and a sweep: nine answers over three memoized bases.
func TestCachedBodiesAreTight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postIngest(t, ts, "salary", "", salaryCSV(t))
	postIngest(t, ts, "kitchen", "", kitchenCSV())
	installWBCD20K(t, srv, "wbcd")

	for _, name := range []string{"salary", "kitchen", "wbcd"} {
		for _, doc := range []string{`{}`, `{"topK":10}`, `{"measures":true,"sweepFactors":[0.5,1]}`} {
			if resp, body := postQuery(t, ts, name, doc); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d %s", name, doc, resp.StatusCode, body)
			}
		}
	}
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	tight := func(what, key string, length, capacity int) {
		if slack := max(length/8, 8<<10); capacity > length+slack {
			t.Errorf("cached %s %q: cap %d for %d bytes (slack %d)", what, key, capacity, length, slack)
		}
	}
	answers, frames := 0, 0
	for key, e := range srv.cache.m {
		if e.base != nil {
			frames++
			f := e.frame
			tight("frame", key, len(f.Head())+len(f.Tail()), cap(f.Head())+cap(f.Tail()))
			continue
		}
		answers++
		tight("answer body", key, len(e.body), cap(e.body))
	}
	if answers != 9 || frames != 3 {
		t.Errorf("cache holds %d answers and %d frames, want 9 and 3", answers, frames)
	}
}
