package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/summary"
	"repro/pkg/client"
)

// testCSV generates a seeded mixed nominal/interval dataset — the
// cluster differential fixtures.
func testCSV(seed int64, rows int) []byte {
	rng := rand.New(rand.NewSource(seed))
	segs := []string{"urban", "suburb", "rural"}
	var b bytes.Buffer
	b.WriteString("Segment:nominal,Lat:interval,Lon:interval,Spend:interval\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.2f\n",
			segs[rng.Intn(len(segs))],
			40+rng.Float64()*2, -75+rng.Float64()*2, 20+rng.Float64()*80)
	}
	return b.Bytes()
}

// emptyNominalCSV is testCSV with the first row's Segment cell empty
// and every fifth row's Segment set to "0": two distinct nominal values
// that must stay distinct wherever the rows travel.
func emptyNominalCSV(seed int64, rows int) []byte {
	lines := strings.SplitAfter(string(testCSV(seed, rows)), "\n")
	for i := 1; i <= rows; i++ {
		_, rest, _ := strings.Cut(lines[i], ",")
		switch {
		case i == 1:
			lines[i] = "," + rest
		case i%5 == 0:
			lines[i] = "0," + rest
		}
	}
	return []byte(strings.Join(lines, ""))
}

// newDard spins up one in-process dard worker.
func newDard(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, _, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// newCoordinator builds a coordinator over fresh local state and the
// given worker URLs, with test-friendly (fast) failure timings.
func newCoordinator(t *testing.T, addrs []string, mutate func(*Config)) (*Coordinator, string) {
	t.Helper()
	dataDir := t.TempDir()
	local, _, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		t.Fatalf("server.New(local): %v", err)
	}
	t.Cleanup(func() { local.Close() })
	cfg := Config{
		Workers:        addrs,
		MaxAttempts:    3,
		ShardTimeout:   30 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffCap:     5 * time.Millisecond,
		HealthInterval: 5 * time.Millisecond,
		ProbeTimeout:   time.Second,
		ProbeBudget:    2,
		Seed:           42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg, local)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return coord, dataDir
}

// readArtifact loads the merged .acfsum the flat backend persisted.
func readArtifact(t *testing.T, dataDir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, name+".acfsum"))
	if err != nil {
		t.Fatalf("reading merged artifact: %v", err)
	}
	return b
}

// localReference computes the coordinator's contract result without
// any HTTP: plan the same shards, run Phase I per shard under the same
// pinned thresholds, fold with MergeAll in shard order.
func localReference(t *testing.T, csv []byte, groups string, shards int, name string) []byte {
	t.Helper()
	rel, ends, err := relation.ParseCSV(csv, 1)
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), groups)
	if err != nil {
		t.Fatalf("ParseGroupsSpec: %v", err)
	}
	d0s, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		t.Fatalf("SuggestThresholds: %v", err)
	}
	plan, err := planShards(csv, ends, shards)
	if err != nil {
		t.Fatalf("planShards: %v", err)
	}
	sums := make([]*summary.Summary, len(plan))
	ids := make([]string, len(plan))
	for i, shardCSV := range plan {
		srel, err := relation.ReadCSV(bytes.NewReader(shardCSV))
		if err != nil {
			t.Fatalf("shard ReadCSV: %v", err)
		}
		spart, err := relation.ParseGroupsSpec(srel.Schema(), groups)
		if err != nil {
			t.Fatalf("shard ParseGroupsSpec: %v", err)
		}
		opt := core.DefaultOptions()
		// Zero the scalar: a recorded nominal-group D0 falls back to
		// it, and the cluster protocol runs shards with d0 unset.
		opt.DiameterThreshold = 0
		opt.DiameterThresholds = d0s
		sum, err := core.Ingest(srel, spart, opt)
		if err != nil {
			t.Fatalf("shard Ingest: %v", err)
		}
		sums[i] = sum
		ids[i] = shardID(name, i)
	}
	merged, err := summary.MergeAll(sums, ids)
	if err != nil {
		t.Fatalf("MergeAll: %v", err)
	}
	encoded, err := summary.Encode(merged)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return encoded
}

// stripVolatile drops the wall-clock and artifact-size lines from a
// query JSON document: durations differ run to run, and a merged
// summary's recorded byte size legitimately differs from a single-pass
// one (shard counts and rebuild totals sum under Merge). Everything
// else — every rule, measure, cluster and bound — must match exactly.
func stripVolatile(b []byte) []byte {
	lines := strings.Split(string(b), "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, `"durationMs"`) || strings.Contains(l, `"bytes"`) {
			continue
		}
		out = append(out, l)
	}
	return []byte(strings.Join(out, "\n"))
}

// postQuery runs a query through an http.Handler without a listener.
func postQuery(t *testing.T, h http.Handler, name, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/summaries/"+name+"/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, payload
}

// TestDifferentialWorkerCounts is the cluster determinism contract:
// for three seeds, a coordinator-sharded ingest over 1, 2 and 4
// workers produces byte-identical merged artifacts — equal to the
// no-HTTP shard+MergeAll reference — and byte-identical query JSON
// (modulo wall-clock lines), no matter the pool size or scheduling.
//
// The merged summary is a pure function of (data, thresholds, shard
// plan). It is NOT the single-pass summary once the plan has more than
// one shard: ACF additivity (Thm 5.2) makes the merged statistics
// exact, but cluster boundaries reflect where Phase I saw the rows, so
// a 4-shard fold carries finer clusters than one pass over everything.
// TestSingleShardMatchesSingleNode pins the plan-granularity boundary:
// with one shard the cluster output IS the single-node output.
func TestDifferentialWorkerCounts(t *testing.T) {
	const shards, rows = 4, 240
	const groups = "Lat+Lon"
	for _, seed := range []int64{1, 7, 99} {
		csv := testCSV(seed, rows)
		want := localReference(t, csv, groups, shards, "diff")

		var firstQuery []byte
		for _, workers := range []int{1, 2, 4} {
			addrs := make([]string, workers)
			for i := range addrs {
				_, ts := newDard(t)
				addrs[i] = ts.URL
			}
			coord, dataDir := newCoordinator(t, addrs, nil)
			rep, err := coord.IngestCSV(context.Background(), "diff", csv,
				client.IngestOptions{Groups: groups, Shards: shards})
			if err != nil {
				t.Fatalf("seed %d workers %d: IngestCSV: %v", seed, workers, err)
			}
			if rep.Shards != shards || rep.Tuples != rows {
				t.Errorf("seed %d workers %d: report %+v, want %d shards %d tuples", seed, workers, rep, shards, rows)
			}
			got := readArtifact(t, dataDir, "diff")
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d workers %d: merged artifact differs from the shard+MergeAll reference (%d vs %d bytes)",
					seed, workers, len(got), len(want))
			}
			qresp, clusterQuery := postQuery(t, coord.Handler(), "diff", "{}")
			if qresp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d workers %d: query status %d: %s", seed, workers, qresp.StatusCode, clusterQuery)
			}
			if firstQuery == nil {
				firstQuery = clusterQuery
			} else if !bytes.Equal(stripVolatile(clusterQuery), stripVolatile(firstQuery)) {
				t.Errorf("seed %d workers %d: query JSON differs from the 1-worker run", seed, workers)
			}
		}
	}
}

// TestSingleShardMatchesSingleNode pins the boundary of the contract
// above: a cluster ingest planned as ONE shard is byte-identical to a
// plain single-node dard ingest — same artifact, same query JSON
// (modulo wall-clock lines). Granularity differences only ever come
// from the shard plan, never from the cluster machinery itself. The
// second input holds an empty nominal value beside the value "0": a
// shard must carry both through to the worker as the distinct values
// the single node sees.
func TestSingleShardMatchesSingleNode(t *testing.T) {
	const groups = "Lat+Lon"
	for _, tc := range []struct {
		name string
		csv  []byte
	}{
		{"mixed", testCSV(7, 240)},
		{"empty nominal", emptyNominalCSV(7, 240)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Single-node reference through the full HTTP stack.
			_, single := newDard(t)
			resp, err := http.Post(single.URL+"/v1/ingest?name=one&groups="+url.QueryEscape(groups), "text/csv", bytes.NewReader(tc.csv))
			if err != nil {
				t.Fatalf("single-node ingest: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single-node ingest status %d", resp.StatusCode)
			}
			sresp, err := http.Post(single.URL+"/v1/summaries/one/query", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatalf("single-node query: %v", err)
			}
			singleQuery, _ := io.ReadAll(sresp.Body)
			sresp.Body.Close()

			_, ts := newDard(t)
			coord, dataDir := newCoordinator(t, []string{ts.URL}, nil)
			if _, err := coord.IngestCSV(context.Background(), "one", tc.csv,
				client.IngestOptions{Groups: groups, Shards: 1}); err != nil {
				t.Fatalf("IngestCSV: %v", err)
			}
			if got, want := readArtifact(t, dataDir, "one"), localReference(t, tc.csv, groups, 1, "one"); !bytes.Equal(got, want) {
				t.Errorf("single-shard artifact differs from the direct full-relation ingest (%d vs %d bytes)", len(got), len(want))
			}
			qresp, clusterQuery := postQuery(t, coord.Handler(), "one", "{}")
			if qresp.StatusCode != http.StatusOK {
				t.Fatalf("cluster query status %d: %s", qresp.StatusCode, clusterQuery)
			}
			if !bytes.Equal(stripVolatile(clusterQuery), stripVolatile(singleQuery)) {
				t.Errorf("single-shard cluster query JSON differs from single-node dard (%d vs %d bytes)",
					len(clusterQuery), len(singleQuery))
			}
		})
	}
}

// flakyWorker wraps a dard handler and dies on the first shard
// request: the connection is aborted mid-flight and every subsequent
// request (health probes included) is aborted too — a worker crash.
type flakyWorker struct {
	inner http.Handler
	dead  atomic.Bool
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/ingest/shard" {
		f.dead.Store(true)
	}
	if f.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	f.inner.ServeHTTP(w, r)
}

// TestRequeueAfterWorkerDeath kills a worker on its first shard and
// requires the ingest to finish anyway — shards requeued onto the
// surviving worker, merged artifact still byte-identical to the
// reference — with the markdown and requeue visible in the metrics.
func TestRequeueAfterWorkerDeath(t *testing.T) {
	const shards = 4
	csv := testCSV(7, 240)
	want := localReference(t, csv, "Lat+Lon", shards, "kill")

	srv, _, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer srv.Close()
	killed := httptest.NewServer(&flakyWorker{inner: srv.Handler()})
	defer killed.Close()
	_, healthy := newDard(t)

	coord, dataDir := newCoordinator(t, []string{killed.URL, healthy.URL}, nil)
	rep, err := coord.IngestCSV(context.Background(), "kill", csv,
		client.IngestOptions{Groups: "Lat+Lon", Shards: shards})
	if err != nil {
		t.Fatalf("IngestCSV with a dying worker: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("report shows no retries despite a worker death")
	}
	got := readArtifact(t, dataDir, "kill")
	if !bytes.Equal(got, want) {
		t.Errorf("artifact after requeue differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	m := coord.Metrics()
	if m.ShardsRequeued.Load() < 1 {
		t.Errorf("ShardsRequeued = %d, want >= 1", m.ShardsRequeued.Load())
	}
	if m.WorkerMarkdowns.Load() < 1 {
		t.Errorf("WorkerMarkdowns = %d, want >= 1", m.WorkerMarkdowns.Load())
	}
}

// TestPartialFailurePolicy: with every worker dead the ingest must
// fail outright and install nothing — never a silently short merge.
func TestPartialFailurePolicy(t *testing.T) {
	dead1 := httptest.NewServer(http.NewServeMux())
	dead2 := httptest.NewServer(http.NewServeMux())
	dead1.Close()
	dead2.Close()

	coord, _ := newCoordinator(t, []string{dead1.URL, dead2.URL}, nil)
	_, err := coord.IngestCSV(context.Background(), "doomed", testCSV(1, 40),
		client.IngestOptions{Groups: "Lat+Lon", Shards: 2})
	if err == nil {
		t.Fatal("ingest with no live workers succeeded")
	}
	if coord.Local().HasSummary("doomed") {
		t.Error("a failed ingest left a summary in the local catalog")
	}
	if got := coord.Metrics().IngestFailures.Load(); got != 1 {
		t.Errorf("IngestFailures = %d, want 1", got)
	}
}

// TestShardRejectionAborts: a worker answering 4xx means the shard
// itself is bad — the ingest aborts without retrying it anywhere.
func TestShardRejectionAborts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/ingest/shard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":"synthetic rejection"}`)
	})
	rejecter := httptest.NewServer(mux)
	defer rejecter.Close()

	coord, _ := newCoordinator(t, []string{rejecter.URL}, nil)
	_, err := coord.IngestCSV(context.Background(), "rejected", testCSV(1, 40),
		client.IngestOptions{Groups: "Lat+Lon", Shards: 2})
	if err == nil {
		t.Fatal("ingest with a rejecting worker succeeded")
	}
	if !strings.Contains(err.Error(), "synthetic rejection") {
		t.Errorf("error %q does not carry the worker's message", err)
	}
	if got := coord.Metrics().ShardsRetried.Load(); got != 0 {
		t.Errorf("ShardsRetried = %d, want 0 (4xx must not retry)", got)
	}
}

// TestOverflowingShardAborts: a body whose values overflow float64
// aborts the cluster ingest without retrying or installing anything,
// and both workers keep serving. With derived thresholds the
// coordinator's SuggestThresholds rejects it before dispatch; with
// pinned ones the worker holding those rows answers 400.
func TestOverflowingShardAborts(t *testing.T) {
	_, w1 := newDard(t)
	_, w2 := newDard(t)
	coord, dataDir := newCoordinator(t, []string{w1.URL, w2.URL}, nil)
	var body bytes.Buffer
	body.WriteString("A:interval,B:interval\n")
	for i := 0; i < 40; i++ {
		body.WriteString("1e160,1e160\n")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&body, "%d,%d\n", rng.Intn(50), rng.Intn(50))
	}
	_, err := coord.IngestCSV(context.Background(), "big", body.Bytes(), client.IngestOptions{Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("ingest error %v, want the workers' overflow rejection", err)
	}
	if got := coord.Metrics().ShardsRetried.Load(); got != 0 {
		t.Errorf("ShardsRetried = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "big.acfsum")); !os.IsNotExist(err) {
		t.Errorf("a failed ingest left an artifact: %v", err)
	}
	if _, err := coord.IngestCSV(context.Background(), "ok", testCSV(1, 40),
		client.IngestOptions{Groups: "Lat+Lon", Shards: 2}); err != nil {
		t.Fatalf("ingest after the rejected one: %v", err)
	}
}

// TestClusterIngestPinsD0s: ?d0s= on POST /v1/cluster/ingest pins the
// thresholds every shard runs under, so the merged summary records
// exactly the pinned vector instead of one derived from the data, and a
// vector the workers reject fails the ingest with 400, installing
// nothing.
func TestClusterIngestPinsD0s(t *testing.T) {
	_, w1 := newDard(t)
	_, w2 := newDard(t)
	coord, dataDir := newCoordinator(t, []string{w1.URL, w2.URL}, nil)
	ingest := func(name, d0s string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/ingest?name="+name+"&shards=2&d0s="+d0s,
			bytes.NewReader(testCSV(11, 200)))
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := ingest("pinned", "0,0.25,0.5,7"); rec.Code != http.StatusOK {
		t.Fatalf("cluster ingest: status %d: %s", rec.Code, rec.Body)
	}
	sum, err := summary.Decode(readArtifact(t, dataDir, "pinned"))
	if err != nil {
		t.Fatalf("decoding merged artifact: %v", err)
	}
	pinned := []float64{0, 0.25, 0.5, 7} // Segment (nominal), Lat, Lon, Spend
	if len(sum.Groups) != len(pinned) {
		t.Fatalf("merged summary has %d groups, want %d", len(sum.Groups), len(pinned))
	}
	for g, sg := range sum.Groups {
		if sg.D0 != pinned[g] {
			t.Errorf("merged group %s D0 = %v, want the pinned %v", sg.Name, sg.D0, pinned[g])
		}
	}
	for _, d0s := range []string{"NaN,1,1,1", "1,x,1,1"} {
		if rec := ingest("bad", d0s); rec.Code != http.StatusBadRequest {
			t.Errorf("cluster ingest d0s=%s: status %d, want 400: %s", d0s, rec.Code, rec.Body)
		}
	}
	if _, err := os.Stat(filepath.Join(dataDir, "bad.acfsum")); !os.IsNotExist(err) {
		t.Errorf("a rejected ingest left an artifact: %v", err)
	}
}

// TestClusterIngestOversizedBody: a cluster ingest body past darc's
// MaxIngestBytes is answered 413 and installs nothing; one within it
// still ingests.
func TestClusterIngestOversizedBody(t *testing.T) {
	_, w1 := newDard(t)
	body := testCSV(11, 200)
	coord, dataDir := newCoordinator(t, []string{w1.URL}, func(cfg *Config) {
		cfg.MaxIngestBytes = int64(len(body))
	})
	for _, c := range []struct {
		name string
		body []byte
		want int
	}{
		{"fits", body, http.StatusOK},
		{"big", append(append([]byte(nil), body...), body[len(body)-20:]...), http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/ingest?name="+c.name, bytes.NewReader(c.body))
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%d-byte body under a %d-byte limit: status %d, want %d: %s", len(c.body), len(body), rec.Code, c.want, rec.Body)
		}
	}
	if _, err := os.Stat(filepath.Join(dataDir, "big.acfsum")); !os.IsNotExist(err) {
		t.Errorf("an oversized ingest left an artifact: %v", err)
	}
}

// TestBackoffBoundsAndSeed pins the backoff envelope (positive, capped)
// and its reproducibility: same seed, same jitter schedule.
func TestBackoffBoundsAndSeed(t *testing.T) {
	_, ts := newDard(t)
	mk := func() *Coordinator {
		c, _ := newCoordinator(t, []string{ts.URL}, func(cfg *Config) {
			cfg.BackoffBase = 10 * time.Millisecond
			cfg.BackoffCap = 80 * time.Millisecond
			cfg.Seed = 7
		})
		return c
	}
	c1, c2 := mk(), mk()
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := c1.backoffFor(attempt)
		if d1 <= 0 || d1 > 80*time.Millisecond {
			t.Errorf("attempt %d: backoff %v outside (0, cap]", attempt, d1)
		}
		if ceil := 10 * time.Millisecond << (attempt - 1); time.Duration(ceil) < 80*time.Millisecond && d1 > ceil {
			t.Errorf("attempt %d: backoff %v exceeds exponential ceiling %v", attempt, d1, ceil)
		}
		if d2 := c2.backoffFor(attempt); d1 != d2 {
			t.Errorf("attempt %d: same seed drew %v vs %v", attempt, d1, d2)
		}
	}
}

// TestReplicationAndFanout: with Replicate on, the merged artifact
// lands on every worker, the coordinator serves local queries, and a
// summary present only on workers is served by fan-out, whose query
// body darc bounds as dard does: past MaxQueryBytes it answers 413.
func TestReplicationAndFanout(t *testing.T) {
	w1srv, w1 := newDard(t)
	w2srv, w2 := newDard(t)
	coord, _ := newCoordinator(t, []string{w1.URL, w2.URL}, func(cfg *Config) {
		cfg.Replicate = true
		cfg.MaxQueryBytes = 1 << 10
	})
	csv := testCSV(5, 120)
	rep, err := coord.IngestCSV(context.Background(), "repl", csv,
		client.IngestOptions{Groups: "Lat+Lon", Shards: 2})
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	if rep.Replicas != 2 {
		t.Errorf("Replicas = %d, want 2", rep.Replicas)
	}
	if !w1srv.HasSummary("repl") || !w2srv.HasSummary("repl") {
		t.Fatal("replication did not install the artifact on both workers")
	}

	// A summary only the workers hold is served by fan-out with the
	// worker attribution header.
	cl, err := client.New(w2.URL)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	if _, err := cl.Ingest(context.Background(), "remote", testCSV(9, 60), client.IngestOptions{Groups: "Lat+Lon"}); err != nil {
		t.Fatalf("worker-direct ingest: %v", err)
	}
	h := coord.Handler()
	resp, payload := postQuery(t, h, "remote", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-out query status %d: %s", resp.StatusCode, payload)
	}
	if resp.Header.Get("X-Darc-Worker") == "" {
		t.Error("fan-out response missing X-Darc-Worker attribution")
	}
	direct, _, err := cl.QueryJSON(context.Background(), "remote", []byte("{}"))
	if err != nil {
		t.Fatalf("direct worker query: %v", err)
	}
	if !bytes.Equal(stripVolatile(payload), stripVolatile(direct)) {
		t.Error("fan-out response differs from the worker's own answer")
	}
	if coord.Metrics().FanoutQueries.Load() == 0 {
		t.Error("FanoutQueries not counted")
	}
	if resp, payload := postQuery(t, h, "remote", `{"topK": 1}`+strings.Repeat(" ", 1<<10)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized fan-out query body: status %d, want 413: %s", resp.StatusCode, payload)
	}

	// Unknown everywhere → 404 after visiting the replicas.
	resp, payload = postQuery(t, h, "nosuch", "{}")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query for unknown summary: status %d: %s", resp.StatusCode, payload)
	}
	if coord.Metrics().FanoutMisses.Load() == 0 {
		t.Error("FanoutMisses not counted")
	}
	_ = w1srv
}

// TestWorkersEndpoint pins the pool-membership document.
func TestWorkersEndpoint(t *testing.T) {
	_, w1 := newDard(t)
	_, w2 := newDard(t)
	coord, _ := newCoordinator(t, []string{w1.URL, w2.URL}, nil)

	req := httptest.NewRequest(http.MethodGet, "/v1/cluster/workers", nil)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var rows []workerInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("decoding workers: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d workers listed, want 2", len(rows))
	}
	for i, row := range rows {
		if row.ID != i || !row.Healthy {
			t.Errorf("row %d = %+v, want ID %d healthy", i, row, i)
		}
	}
}

// TestMetricsEnvelope: darc's /metrics is one flat JSON object of
// integers carrying both the embedded server's keys and every
// cluster_* key.
func TestMetricsEnvelope(t *testing.T) {
	_, w1 := newDard(t)
	coord, _ := newCoordinator(t, []string{w1.URL}, nil)
	if _, err := coord.IngestCSV(context.Background(), "m", testCSV(2, 60),
		client.IngestOptions{Groups: "Lat+Lon", Shards: 2}); err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics document is not flat string→int64 JSON: %v", err)
	}
	for _, key := range []string{
		"cluster_ingests_total", "cluster_ingest_failures_total",
		"cluster_shards_dispatched_total", "cluster_shards_retried_total",
		"cluster_shards_requeued_total", "cluster_worker_markdowns_total",
		"cluster_worker_markups_total", "cluster_probe_failures_total",
		"cluster_fanout_queries_total", "cluster_fanout_misses_total",
		"cluster_fanout_errors_total", "cluster_replica_pushes_total",
		"cluster_replica_push_failures_total", "cluster_shard_us_sum",
		"cluster_merge_us_sum", "cluster_workers_total", "cluster_workers_healthy",
		// And the embedded server's keys ride along.
		"ingest_requests_total", "shard_ingest_requests_total", "catalog_summaries",
		"query_base_builds_total", "query_base_reuses_total", "cache_base_entries", "cache_base_bytes",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics document missing %q", key)
		}
	}
	if snap["cluster_ingests_total"] != 1 {
		t.Errorf("cluster_ingests_total = %d, want 1", snap["cluster_ingests_total"])
	}
	if snap["cluster_shards_dispatched_total"] != 2 {
		t.Errorf("cluster_shards_dispatched_total = %d, want 2", snap["cluster_shards_dispatched_total"])
	}
	if snap["cluster_workers_total"] != 1 || snap["cluster_workers_healthy"] != 1 {
		t.Errorf("worker gauges = %d/%d, want 1/1",
			snap["cluster_workers_healthy"], snap["cluster_workers_total"])
	}
}

// TestProbeRecovery: a worker that fails once and comes back is marked
// down, probed, marked up and reused within one ingest.
func TestProbeRecovery(t *testing.T) {
	srv, _, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer srv.Close()
	inner := srv.Handler()
	var failOnce atomic.Bool
	failOnce.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ingest/shard" && failOnce.CompareAndSwap(true, false) {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	coord, dataDir := newCoordinator(t, []string{flaky.URL}, nil)
	csv := testCSV(11, 120)
	if _, err := coord.IngestCSV(context.Background(), "flaky", csv,
		client.IngestOptions{Groups: "Lat+Lon", Shards: 3}); err != nil {
		t.Fatalf("IngestCSV over a once-flaky worker: %v", err)
	}
	want := localReference(t, csv, "Lat+Lon", 3, "flaky")
	if got := readArtifact(t, dataDir, "flaky"); !bytes.Equal(got, want) {
		t.Error("artifact after probe recovery differs from the reference")
	}
	m := coord.Metrics()
	if m.WorkerMarkdowns.Load() != 1 || m.WorkerMarkups.Load() != 1 {
		t.Errorf("markdowns/markups = %d/%d, want 1/1",
			m.WorkerMarkdowns.Load(), m.WorkerMarkups.Load())
	}
}

// badCellCSV is testCSV with row's Spend cell (an interval) set to
// cell.
func badCellCSV(seed int64, rows, row int, cell string) []byte {
	lines := strings.SplitAfter(string(testCSV(seed, rows)), "\n")
	fields := strings.Split(lines[row+1], ",")
	fields[3] = cell + "\n"
	lines[row+1] = strings.Join(fields, ",")
	return []byte(strings.Join(lines, ""))
}

// outsideSample returns the last row below below of an n-row body that
// the advisor does not sample, so darc's plan never parses it; n must
// exceed the advisor's sample size.
func outsideSample(n, below int) int {
	picked := core.AdvisorRows(n, core.AdvisorOptions{})
	for r := below - 1; ; r-- {
		if !slices.Contains(picked, r) {
			return r
		}
	}
}

// shardLineRange is how darc names the body lines of the shard holding
// row: shards of per rows after a one-line header, row r on line r+2.
func shardLineRange(row, per int) string {
	first := row/per*per + 2
	return fmt.Sprintf("lines %d–%d of the body", first, first+per-1)
}

// TestClusterIngestRejections: darc parses only the advisor's sample of
// a cluster ingest body, so a bad body is rejected either by darc's
// plan (its header, a row's field count, a sampled row, the advisor,
// the groups spec) or by the worker that parses the bad row. Either
// way POST /v1/cluster/ingest answers 400, nothing is installed on darc
// or either worker, no shard is retried and the ingest counts as
// failed. A row outside the sample is named by the worker and shard
// that rejected it and the body lines the shard holds; a sampled one by
// its line in the body.
func TestClusterIngestRejections(t *testing.T) {
	const rows, shards = 1000, 4
	w1srv, w1 := newDard(t)
	w2srv, w2 := newDard(t)
	coord, _ := newCoordinator(t, []string{w1.URL, w2.URL}, nil)
	sampled := core.AdvisorRows(rows, core.AdvisorOptions{})[100]
	per := rows / shards
	outside, nanRow := outsideSample(rows, rows), outsideSample(rows, rows-per)
	short := outsideSample(rows, per+per/2) // darc's line scan, not a worker, must catch its field count
	quoted := strings.Replace(string(badCellCSV(3, 40, 10, "y")), "urban", `"urban"`, 1)
	for _, tc := range []struct {
		name, groups string
		body         []byte
		want         []string // substrings of the error
	}{
		{"header", "", []byte("A:interval,B:bogus\n1,2\n3,4\n"), []string{"header column 1"}},
		{"fields", "", badCellCSV(3, rows, short, "1,2"), []string{fmt.Sprintf("line %d", short+2), "wrong number of fields"}},
		{"sampled", "", badCellCSV(3, rows, sampled, "x"), []string{fmt.Sprintf("line %d", sampled+2), `"Spend"`}},
		{"outside", "", badCellCSV(3, rows, outside, "x"),
			[]string{fmt.Sprintf("rejected shard %d", outside/per), shardLineRange(outside, per), `"Spend"`}},
		{"nan", "", badCellCSV(3, rows, nanRow, "NaN"),
			[]string{fmt.Sprintf("rejected shard %d", nanRow/per), shardLineRange(nanRow, per), "non-finite"}},
		{"quoted", "", []byte(quoted), []string{"line 12", `"Spend"`}},
		{"one row", "", testCSV(3, 1), []string{"at least 2 tuples"}},
		{"groups", "Lat+Nope", testCSV(3, rows), []string{"Nope"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := strings.ReplaceAll(tc.name, " ", "-")
			target := fmt.Sprintf("/v1/cluster/ingest?name=%s&shards=%d&groups=%s", name, shards, url.QueryEscape(tc.groups))
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(tc.body))
			rec := httptest.NewRecorder()
			coord.Handler().ServeHTTP(rec, req)
			var resp struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusBadRequest || err != nil {
				t.Fatalf("status %d, want 400 with a JSON error: %s", rec.Code, rec.Body)
			}
			for _, want := range tc.want {
				if !strings.Contains(resp.Error, want) {
					t.Errorf("error %q does not name %q", resp.Error, want)
				}
			}
			if strings.Contains(resp.Error, "rejected shard") && !strings.Contains(resp.Error, w1.URL) && !strings.Contains(resp.Error, w2.URL) {
				t.Errorf("error %q names neither worker", resp.Error)
			}
			for who, srv := range map[string]*server.Server{"darc": coord.Local(), "worker 1": w1srv, "worker 2": w2srv} {
				if n := srv.MetricsSnapshot()["catalog_summaries"]; n != 0 {
					t.Errorf("%s holds %d summaries after a rejected ingest", who, n)
				}
			}
		})
	}
	m := coord.Metrics()
	if got := m.ShardsRetried.Load(); got != 0 {
		t.Errorf("ShardsRetried = %d, want 0 (a rejected body is never retried)", got)
	}
	if got := m.IngestFailures.Load(); got != 8 {
		t.Errorf("IngestFailures = %d, want 8", got)
	}
}
