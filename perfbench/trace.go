package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
)

// span is one timed call into a layer. Spans of one operation share
// Op; Parent is the span that caused this one (0 for an operation's
// root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; writeSpans saves them when the run
// ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu     sync.Mutex
	spans  []span
	allocs []float64 // bytes allocated per core.ingest call
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64 { return t.next.Add(1) }

// begin opens a span and returns its id and the function that closes
// it.
func (t *tracer) begin(name string, op, parent int64) (int64, func()) {
	id := t.id()
	start := time.Since(t.epoch)
	return id, func() { t.add(span{name, op, id, parent, int64(start), int64(time.Since(t.epoch))}) }
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// steps records the replay's direct layer calls under parent. Phase I
// calls also record the bytes they allocate.
func (t *tracer) steps(op, parent int64) stepFn {
	return func(name string) func() {
		_, done := t.begin(name, op, parent)
		if name != "core.ingest" {
			return done
		}
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		return func() {
			done()
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			t.mu.Lock()
			t.allocs = append(t.allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
			t.mu.Unlock()
		}
	}
}

// find returns the spans of op named name, optionally only the
// children of parent (parent < 0 means any).
func (t *tracer) find(op int64, name string, parent int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op && s.Name == name && (parent < 0 || s.Parent == parent) {
			out = append(out, s)
		}
	}
	return out
}

// total sums span durations; covered measures the wall time their
// union covers, for spans that run in parallel.
func total(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

func covered(ss []span) time.Duration {
	ss = append([]span(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var d time.Duration
	var end int64 = -1
	for _, s := range ss {
		start := max(s.Start, end)
		if s.End > start {
			d += time.Duration(s.End - start)
			end = s.End
		}
	}
	return d
}

// Span context crosses HTTP hops in a header, so a darc request's
// shard and replica calls land under the right parent.
const spanHeader = "Perfbench-Span"

type spanRef struct{ op, id int64 }
type spanKey struct{}

func withSpan(ctx context.Context, op, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

// spanTransport stamps the caller's span on outgoing requests.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d.%d", ref.op, ref.id))
	}
	return s.base.RoundTrip(r)
}

func parseSpanHeader(v string) spanRef {
	a, b, _ := strings.Cut(v, ".")
	op, _ := strconv.ParseInt(a, 10, 64)
	id, _ := strconv.ParseInt(b, 10, 64)
	return spanRef{op, id}
}

// node is one in-process daemon of the replay: a server handler behind
// a middleware that records a span per request (named by route) plus
// the time the handler spent reading the request body and writing the
// response, which belong to the HTTP layer.
type node struct {
	t     *tracer
	h     http.Handler
	route func(*http.Request) string
	cur   atomic.Pointer[spanRef] // request in progress, parent of storage spans
	srv   *httptest.Server

	mu       sync.Mutex
	captured []shardCall // shard ingests served, in completion order
}

// shardCall is one shard ingest a worker served: the start of the CSV
// it was sent and the artifact it returned.
type shardCall struct{ prefix, artifact []byte }

// shardPrefix is how much of a shard's CSV identifies it: the header
// plus its first rows.
const shardPrefix = 4096

func newNode(t *tracer, h http.Handler, route func(*http.Request) string) *node {
	n := &node{t: t, h: h, route: route}
	n.srv = httptest.NewServer(n)
	return n
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := parseSpanHeader(r.Header.Get(spanHeader))
	name := n.route(r)
	id, done := n.t.begin(name, parent.op, parent.id)
	ref := &spanRef{parent.op, id}
	n.cur.Store(ref)
	capture := name == "cluster.shard_ingest"
	body := &timedBody{rc: r.Body, capture: capture}
	r.Body = body
	tw := &timedWriter{ResponseWriter: w, capture: capture}
	n.h.ServeHTTP(tw, r.WithContext(withSpan(r.Context(), ref.op, ref.id)))
	done()
	// A store call made outside any request (the replay installing an
	// artifact) must not land under this one.
	n.cur.CompareAndSwap(ref, nil)
	// A body span lasts the time spent inside Read or Write and ends when
	// the last call returned, so a handler that reads its whole body
	// first starts its own work at the span's end.
	for _, io := range []struct {
		name string
		last time.Time
		d    time.Duration
	}{{"http.read_body", body.last, body.d}, {"http.write_body", tw.last, tw.d}} {
		if io.d > 0 {
			end := io.last.Sub(n.t.epoch)
			n.t.add(span{io.name, ref.op, n.t.id(), id, int64(end - io.d), int64(end)})
		}
	}
	if capture {
		n.mu.Lock()
		n.captured = append(n.captured, shardCall{body.prefix, tw.buf})
		n.mu.Unlock()
	}
}

func (n *node) takeCaptured() []shardCall {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.captured
	n.captured = nil
	return c
}

type timedBody struct {
	rc      io.ReadCloser
	last    time.Time // when the latest Read returned
	d       time.Duration
	capture bool
	prefix  []byte
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.rc.Read(p)
	b.last = time.Now()
	b.d += b.last.Sub(t0)
	if b.capture && len(b.prefix) < shardPrefix {
		b.prefix = append(b.prefix, p[:min(n, shardPrefix-len(b.prefix))]...)
	}
	return n, err
}

func (b *timedBody) Close() error { return b.rc.Close() }

type timedWriter struct {
	http.ResponseWriter
	last    time.Time // when the latest Write returned
	d       time.Duration
	capture bool
	buf     []byte
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.capture {
		w.buf = append(w.buf, p...)
	}
	t0 := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.last = time.Now()
	w.d += w.last.Sub(t0)
	return n, err
}

// tracedStore records a span per Put, under the request that caused
// it.
type tracedStore struct {
	storage.Backend
	n    *node
	last []byte // bytes of the latest Put
}

func (s *tracedStore) Put(name string, data []byte) (uint64, error) {
	var parent spanRef
	if p := s.n.cur.Load(); p != nil {
		parent = *p
	}
	_, done := s.n.t.begin("storage.flat.put", parent.op, parent.id)
	defer done()
	s.last = data
	return s.Backend.Put(name, data)
}

// newDard starts an in-process dard over a flat store in dir; route
// names its requests' spans. A non-nil wrap builds the served handler
// around the server (darc's coordinator).
func newDard(t *tracer, dir string, route func(*http.Request) string, wrap func(*server.Server) (http.Handler, error)) (*server.Server, *node, *tracedStore, error) {
	flat, err := storage.OpenFlat(dir, storage.FlatOptions{Ext: ".acfsum"})
	if err != nil {
		return nil, nil, nil, err
	}
	store := &tracedStore{Backend: flat}
	srv, _, err := server.New(server.Config{DataDir: dir, Backend: store})
	if err != nil {
		flat.Close()
		return nil, nil, nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		if h, err = wrap(srv); err != nil {
			srv.Close()
			return nil, nil, nil, err
		}
	}
	n := newNode(t, h, route)
	store.n = n
	return srv, n, store, nil
}

func dardRoute(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/ingest":
		return "server.ingest_handler"
	case r.URL.Path == "/v1/ingest/shard":
		return "cluster.shard_ingest"
	case strings.HasSuffix(r.URL.Path, "/query"):
		return "server.query"
	case r.Method == http.MethodPut:
		return "cluster.replicate"
	}
	return "server.other"
}

func darcRoute(r *http.Request) string {
	if r.URL.Path == "/v1/cluster/ingest" {
		return "cluster.ingest_csv"
	}
	return dardRoute(r)
}

// sink answers dard's ingest and query routes with HTTP work only: it
// reads the whole body as the server does, acknowledges an ingest
// with a fixed ack and answers a query on summary "n<bytes>" with that
// many bytes. Timing pkg/client against it prices the HTTP layer of
// the same request. Like dard serving a cached result, it writes a
// buffer it already holds: allocating the answer per request biased
// the transfer of large answers upward.
func sink() *httptest.Server {
	var mu sync.Mutex
	var zeros []byte
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body) //nolint:errcheck // only the transfer is timed
		w.Header().Set("Content-Type", "application/json")
		if name, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/summaries/"), "/query"); ok {
			n, _ := strconv.Atoi(strings.TrimPrefix(name, "n"))
			w.Header().Set("X-Dard-Summary-Version", "1")
			mu.Lock()
			defer mu.Unlock()
			if len(zeros) < n {
				zeros = make([]byte, n)
			}
			w.Write(zeros[:n]) //nolint:errcheck // only the transfer is timed
			return
		}
		io.WriteString(w, `{"name": "sink", "version": 1, "tuples": 1, "groups": 1, "clusters": 1, "bytes": 1}`) //nolint:errcheck
	}))
}

// writeSpans saves the trace, stamped, next to the run's other files.
func (b *bench) writeSpans() error {
	t := b.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	doc, err := json.Marshal(map[string]any{"stamp": b.stamp, "spans": t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.workDir, fmt.Sprintf("trace-%s-%d.json", b.cfg.workload, b.cfg.seed))
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "# %d spans written to %s\n", len(t.spans), path)
	return nil
}
