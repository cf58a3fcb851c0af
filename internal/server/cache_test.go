package server

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

// heldBytes is what the cache really holds: every answer's and diff's
// body, every base's weight without its frame, and each distinct frame
// once.
func heldBytes(c *resultCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	frames := map[*core.Frame]bool{}
	var n int64
	for _, e := range c.m {
		n += int64(len(e.body))
		if e.base != nil {
			n += baseBytes(e.base)
		}
		if e.frame != nil && !frames[e.frame] {
			frames[e.frame] = true
			n += int64(e.frame.Size())
		}
	}
	return n
}

// salaryFrame returns the salary summary's default base and its frame.
func salaryFrame(t *testing.T) (*core.Result, *core.Frame) {
	t.Helper()
	sum, err := summary.Decode(encodeShard(t, salaryCSV(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.QueryBase(sum, core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := renderFrame(sum, base)
	if err != nil {
		t.Fatal(err)
	}
	return base, frame
}

// TestCacheAnswerLeansOnItsBase: an answer is served inside its base's
// frame, so storing or hitting it refreshes the base after it, and LRU
// evicts the answer first; an answer is not stored without its base,
// nor where it would not fit beside it.
func TestCacheAnswerLeansOnItsBase(t *testing.T) {
	base, frame := salaryFrame(t)
	budget := baseBytes(base) + int64(frame.Size()) + 100
	const answer, baseKey = "s\x001\x00a", "s\x001\x00base\x00x"

	// Stored after its base, the answer is still older than the base:
	// the first eviction takes it.
	c := newResultCache(budget)
	c.putBase(baseKey, base, frame, nil)
	c.putAnswer(answer, baseKey, make([]byte, 40))
	c.put("d1", make([]byte, 50))
	c.put("d2", make([]byte, 50))
	if _, _, ok := c.getAnswer(answer); ok {
		t.Error("storing d2 kept the answer, whose base was used after it")
	}
	if got, _, _ := c.getBase(baseKey); got != base {
		t.Error("storing d2 evicted the base before its answer")
	}

	// A hit refreshes the answer and then its base, so d1 goes first.
	c = newResultCache(budget)
	c.putBase(baseKey, base, frame, nil)
	c.putAnswer(answer, baseKey, make([]byte, 40))
	c.put("d1", make([]byte, 50))
	if got, body, ok := c.getAnswer(answer); !ok || got != frame || len(body) != 40 {
		t.Fatalf("answer: hit %v, frame %p (want %p), %d bytes (want 40)", ok, got, frame, len(body))
	}
	c.put("d2", make([]byte, 50))
	if _, ok := c.get("d1"); ok {
		t.Error("storing d2 kept d1, though the answer and its base were used after it")
	}
	if _, _, ok := c.getAnswer(answer); !ok {
		t.Error("storing d2 evicted the answer or its base")
	}

	c = newResultCache(budget)
	c.putAnswer(answer, baseKey, make([]byte, 40))
	c.putBase(baseKey, base, frame, nil)
	c.putAnswer("s\x001\x00b", baseKey, make([]byte, 101))
	if n, _ := c.stats(); n != 0 {
		t.Errorf("%d answers stored without their base or beyond it; want none", n)
	}
	if got, _, _ := c.getBase(baseKey); got != base {
		t.Error("an answer too big to sit beside its base evicted the base")
	}
}

// installWBCD20K installs, under name, a 20K-tuple WBCD-like summary
// ingested with derived thresholds.
func installWBCD20K(t *testing.T, srv *Server, name string) {
	t.Helper()
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 20000
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part := relation.SingletonPartitioning(rel.Schema())
	opt := core.DefaultOptions()
	if opt.DiameterThresholds, err = core.SuggestThresholds(rel, part, core.AdvisorOptions{}); err != nil {
		t.Fatal(err)
	}
	sum, err := core.Ingest(rel, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := summary.Encode(sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.InstallSummary(name, encoded); err != nil {
		t.Fatal(err)
	}
}

// TestCacheAnswerWeighsItsBody: on the 20K WBCD summary a topK 10
// answer is mostly its base's clusters block, which the base entry
// holds; the answer adds less than an eighth of its document to
// cache_bytes, and the frame is in cache_base_bytes.
func TestCacheAnswerWeighsItsBody(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	installWBCD20K(t, srv, "wbcd")
	resp, doc := postQuery(t, ts, "wbcd", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, doc)
	}
	before := scrape(t, ts)
	resp, doc = postQuery(t, ts, "wbcd", `{"topK":10}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dard-Cache") != "miss" {
		t.Fatalf("status %d, cache %q: %s", resp.StatusCode, resp.Header.Get("X-Dard-Cache"), doc)
	}
	if resp.ContentLength != int64(len(doc)) {
		t.Errorf("Content-Length %d for a %d-byte document", resp.ContentLength, len(doc))
	}
	after := scrape(t, ts)
	added := after["cache_bytes"] - before["cache_bytes"]
	if after["cache_entries"] != before["cache_entries"]+1 || added <= 0 || 8*added >= int64(len(doc)) {
		t.Errorf("the topK 10 answer added %d entries and %d bytes for its %d-byte document, want 1 and under an eighth",
			after["cache_entries"]-before["cache_entries"], added, len(doc))
	}
	if frame := int64(len(doc)) - added; after["cache_base_bytes"] < frame {
		t.Errorf("cache_base_bytes %d does not hold the %d-byte frame", after["cache_base_bytes"], frame)
	}
	if _, hit := postQuery(t, ts, "wbcd", `{"topK":10}`); !bytes.Equal(hit, doc) {
		t.Error("the hit's bytes differ from the miss's")
	}
}

// TestCacheEvictionPressure queries two summaries in turn under a
// budget that holds one base with a few answers, so each summary's
// queries evict the other's base and answers while those answers are
// still being asked for. After every request the bytes the cache holds
// (each distinct frame once) stay inside the budget, and every served
// body is a fresh QuerySummary's document; then the same holds with a
// reader on each summary at once.
func TestCacheEvictionPressure(t *testing.T) {
	probe, pts := newTestServer(t, Config{})
	installMergedWBCD(t, probe, "wbcd")
	postQuery(t, pts, "wbcd", `{}`)
	_, baseWeight := probe.cache.baseStats()
	budget := baseWeight + baseWeight/2

	srv, ts := newTestServer(t, Config{CacheBytes: budget})
	installMergedWBCD(t, srv, "wbcd")
	postIngest(t, ts, "kitchen", "", kitchenCSV())
	docs := []string{`{}`, `{"topK":3}`, `{"measures":true}`, `{"topK":10,"sweepFactors":[0.5,1]}`, `{"degreeFactor":0.75}`}
	want := map[string][]byte{}
	for _, name := range []string{"wbcd", "kitchen"} {
		sum, _, err := srv.catalog.get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			q, err := parseQueryOptions([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			body, err := renderQuery(sum, q)
			if err != nil {
				t.Fatal(err)
			}
			want[name+doc] = stripDurations(body)
		}
	}
	modes := map[string]int{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		name := []string{"wbcd", "kitchen"}[i/3%2]
		doc := docs[rng.Intn(len(docs))]
		resp, body := postQuery(t, ts, name, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", name, doc, resp.StatusCode, body)
		}
		modes[resp.Header.Get("X-Dard-Cache")]++
		if !bytes.Equal(stripDurations(body), want[name+doc]) {
			t.Fatalf("request %d, %s %s: served bytes differ from a fresh QuerySummary", i, name, doc)
		}
		if held := heldBytes(srv.cache); held > budget {
			t.Fatalf("request %d: the cache holds %d bytes, over its %d budget", i, held, budget)
		}
	}
	builds := srv.Metrics().QueryBaseBuilds.Load()
	if modes["hit"] == 0 || builds <= 4 {
		t.Errorf("no pressure: %v responses, %d base builds", modes, builds)
	}
	t.Logf("%v responses, %d base builds over a %d-byte budget", modes, builds, budget)

	// Two readers on different summaries at once, so bases are evicted
	// and rebuilt while the other reader's answers are being stored:
	// the budget holds at every moment the mutex is free.
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r, name := range []string{"wbcd", "kitchen"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				doc := docs[(r+i)%len(docs)]
				status, body := postQueryQuiet(ts, name, doc)
				if status != http.StatusOK || !bytes.Equal(stripDurations(body), want[name+doc]) {
					t.Errorf("concurrent %s %s: status %d, or bytes differ from a fresh QuerySummary", name, doc, status)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		if held := heldBytes(srv.cache); held > budget {
			t.Fatalf("with two readers the cache holds %d bytes, over its %d budget", held, budget)
		}
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCacheDisabledServesWholeDocuments: with the cache disabled
// (-cache-bytes < 0) every query is a miss that builds its base and
// frame afresh, holds nothing, and serves the memo-free reference's
// bytes with their length announced.
func TestCacheDisabledServesWholeDocuments(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheBytes: -1})
	postIngest(t, ts, "s", "", salaryCSV(t))
	sum, _, err := srv.catalog.get("s")
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{`{}`, `{"topK":2}`, `{}`, `{"measures":true,"topK":2}`}
	for _, doc := range docs {
		q, err := parseQueryOptions([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		want, err := renderQuery(sum, q)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postQuery(t, ts, "s", doc)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dard-Cache") != "miss" || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: status %d, cache %q, Content-Length %d for %d bytes", doc, resp.StatusCode, resp.Header.Get("X-Dard-Cache"), resp.ContentLength, len(body))
		}
		if !bytes.Equal(stripDurations(body), stripDurations(want)) {
			t.Fatalf("%s: served bytes differ from a fresh QuerySummary", doc)
		}
	}
	snap := scrape(t, ts)
	for _, g := range []string{"cache_entries", "cache_bytes", "cache_base_entries", "cache_base_bytes"} {
		if snap[g] != 0 {
			t.Errorf("%s = %d with the cache disabled", g, snap[g])
		}
	}
	if got := snap["query_base_builds_total"]; got != int64(len(docs)) {
		t.Errorf("query_base_builds_total = %d, want %d (nothing memoized)", got, len(docs))
	}
}

// TestQueryFrameFailure: an installed summary one of whose clusters
// has an infinite squared sum (ingest and merge never write one, but an
// install does not check) renders a non-finite box in the clusters
// block, so every query's frame fails. A query with an unknown group
// filter still answers its own 400 first, as when one pass rendered the
// whole document, and the others answer the frame's error, WriteJSON's;
// Phase II runs once for all of them, since the memo keeps the base
// with its frame's error.
func TestQueryFrameFailure(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sum, err := summary.Decode(encodeShard(t, salaryCSV(t), ""))
	if err != nil {
		t.Fatal(err)
	}
	big := sum.Groups[0].Clusters[0]
	for _, a := range sum.Groups[0].Clusters {
		if a.N > big.N {
			big = a
		}
	}
	big.SS[big.Own] = math.Inf(1)
	encoded, err := summary.Encode(sum)
	if err != nil {
		t.Fatal(err)
	}
	_, version, err := srv.InstallSummary("inf", encoded)
	if err != nil {
		t.Fatal(err)
	}
	_, want := renderQuery(sum, core.DefaultQueryOptions())
	if want == nil {
		t.Fatal("the summary renders; want a non-finite clusters block")
	}
	for _, c := range []struct {
		doc    string
		status int
		msg    string
	}{
		{`{"antecedentGroups":["Nope"]}`, http.StatusBadRequest, "unknown attribute group"},
		{`{}`, http.StatusInternalServerError, want.Error()},
		{`{"topK":1,"measures":true}`, http.StatusInternalServerError, want.Error()},
		{`{"consequentGroups":["Nope"],"topK":1}`, http.StatusBadRequest, "unknown attribute group"},
	} {
		resp, body := postQuery(t, ts, "inf", c.doc)
		if resp.StatusCode != c.status || !bytes.Contains(body, []byte(c.msg)) {
			t.Errorf("%s: status %d, body %s; want %d naming %q", c.doc, resp.StatusCode, body, c.status, c.msg)
		}
	}
	base, frame, err := srv.cache.getBase(baseCacheKey("inf", version, core.DefaultQueryOptions()))
	if base == nil || frame != nil || err == nil || err.Error() != want.Error() {
		t.Errorf("memo: base %p, frame %p, error %v; want the base and the frame's error", base, frame, err)
	}
	snap := scrape(t, ts)
	if snap["query_base_builds_total"] != 1 || snap["query_base_reuses_total"] != 3 || snap["cache_entries"] != 0 {
		t.Errorf("base builds %d, reuses %d, cached answers %d; want 1, 3 and 0",
			snap["query_base_builds_total"], snap["query_base_reuses_total"], snap["cache_entries"])
	}
}
