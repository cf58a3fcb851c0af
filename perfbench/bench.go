package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/client"
)

// spec names a metric of BENCHMARK.json with its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ingest_tuples_per_s", "tuples/s"},
	{"time_to_rules_s", "s"},
	{"restart_to_query_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_miss_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"store_bytes_per_tuple", "B"},
}

// measured is one metric value with its sample count and provenance.
type measured struct {
	value float64
	unit  string
	n     int
	note  string
}

func medianOf(xs []float64, unit string) measured {
	q1, _, q3 := quartiles(xs)
	return measured{value: median(xs), unit: unit, n: len(xs), note: fmt.Sprintf("median (quartiles %.4g, %.4g)", q1, q3)}
}

// meanOf suits CPU figures: /proc counts in 10 ms ticks, so per-op
// deltas are quantized and only their sum is exact.
func meanOf(xs []float64, unit string) measured {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return measured{value: sum / float64(max(len(xs), 1)), unit: unit, n: len(xs), note: "mean"}
}

func tailOf(xs []float64, p float64, unit string) measured {
	v, used := tail(xs, p)
	return measured{value: v, unit: unit, n: len(xs), note: fmt.Sprintf("p%.4g", used)}
}

// outcome is what an untraced workload run hands to the report and to
// the traced replay.
type outcome struct {
	e2e map[string]measured
	// scraped holds the query-serving daemon's /metrics after the timed
	// phase; cpu the per-role process CPU figures.
	scraped map[string]int64
	cpu     map[string]measured
	// client-observed medians of the untraced run, printed beside the
	// traced ones so the tracing overhead shows.
	untraced map[string]float64
	// inputs of the replay: the first relation the workload ingested,
	// the ingest memory budget and the query documents it sent, in order.
	csv    []byte
	memory int
	docs   []int
}

// bench is the state of one invocation.
type bench struct {
	cfg   config
	work  string
	out   io.Writer
	fleet *fleet
	hc    *http.Client
	uni   *universe
	stamp map[string]any

	attempted, failed atomic.Int64
	tracer            *tracer
}

func newBench(cfg config, work string, out io.Writer) (*bench, error) {
	logs := filepath.Join(work, "logs")
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return nil, err
	}
	uni, err := newUniverse()
	if err != nil {
		return nil, err
	}
	// At most nproc connections: the load generator never has more
	// requests in flight than the box has cores.
	nproc := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
	}}
	return &bench{cfg: cfg, work: work, out: out, fleet: newFleet(cfg.binDir, logs), hc: hc, uni: uni}, nil
}

func (b *bench) dir(parts ...string) string {
	return filepath.Join(append([]string{b.work}, parts...)...)
}

func (b *bench) client(d *daemon) *client.Client {
	c, err := client.NewWithHTTP(d.url, b.hc)
	if err != nil {
		panic(err) // the URL comes from the daemon's own log line
	}
	return c
}

// requestTimeout bounds one request; a closed loop never waits longer.
const requestTimeout = 120 * time.Second

// fail counts one failed operation or output mismatch and logs it.
func (b *bench) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed.Add(int64(n))
	fmt.Fprintf(os.Stderr, "perfbench: FAIL (%d): %s\n", n, fmt.Sprintf(format, args...))
}

type ingestFn func(ctx context.Context, name string, csv []byte, opt client.IngestOptions) (client.IngestResult, error)

// ingest runs one timed ingest request.
func (b *bench) ingest(ctx context.Context, do ingestFn, name string, csv []byte, opt client.IngestOptions) (client.IngestResult, time.Duration, error) {
	b.attempted.Add(1)
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	ack, err := do(rctx, name, csv, opt)
	d := time.Since(t0)
	if err != nil {
		b.fail(1, "ingest %s: %v", name, err)
	}
	return ack, d, err
}

// queryResp is one served query.
type queryResp struct {
	body    []byte
	version uint64
	cache   string
	latency time.Duration
	end     time.Time
}

// query runs one timed query; doc < 0 is the default query (no body).
func (b *bench) query(ctx context.Context, c *client.Client, name string, doc int) (queryResp, error) {
	var opts []byte
	if doc >= 0 {
		opts = b.uni.bodies[doc]
	}
	b.attempted.Add(1)
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	body, meta, err := c.QueryJSON(rctx, name, opts)
	end := time.Now()
	lat := end.Sub(t0)
	if err != nil {
		b.fail(1, "query %s doc %d: %v", name, doc, err)
		return queryResp{}, err
	}
	v, err := strconv.ParseUint(meta.Version, 10, 64)
	if err != nil {
		b.fail(1, "query %s: bad version header %q", name, meta.Version)
		return queryResp{}, err
	}
	return queryResp{body: body, version: v, cache: meta.Cache, latency: lat, end: end}, nil
}

// rulesAfter issues the default query until it is answered from at
// least version, as a dashboard polling for fresh rules would.
func (b *bench) rulesAfter(ctx context.Context, c *client.Client, name string, version uint64) (queryResp, error) {
	for try := 0; try < 5; try++ {
		r, err := b.query(ctx, c, name, -1)
		if err != nil {
			return r, err
		}
		if r.version >= version {
			return r, nil
		}
	}
	b.fail(1, "%s never served version %d", name, version)
	return queryResp{}, fmt.Errorf("%s never served version %d", name, version)
}

// latencies collects the client-observed timings of a timed phase.
type latencies struct {
	start, deadline time.Time // the timed phase

	mu           sync.Mutex
	ingestS      []float64 // ingest request wall time
	ttrS         []float64 // ingest start to first rules on its version
	queryMs      []float64
	missMs       []float64
	hitMs        []float64
	inWindow     int       // queries completed before the deadline
	lastInWindow time.Time // when the last of them completed
	rssMiB       []float64 // peak RSS per window
}

// startPhase opens the timed phase; call it before any client runs.
func (l *latencies) startPhase(start time.Time, seconds float64) {
	l.start = start
	l.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
}

// queriesPerS is the rate of the queries completed inside the timed
// phase, over the time it took to complete them: a phase that fits 8.9
// slow queries reads 8.9/s-worth, not 8 or 9.
func (l *latencies) queriesPerS() measured {
	if l.inWindow == 0 {
		return measured{value: math.NaN(), unit: "1/s", note: "no query completed in the phase"}
	}
	s := l.lastInWindow.Sub(l.start).Seconds()
	return measured{value: float64(l.inWindow) / s, unit: "1/s", n: l.inWindow, note: fmt.Sprintf("completed in %.3gs", s)}
}

func (l *latencies) addQuery(r queryResp) {
	ms := float64(r.latency) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !r.end.After(l.deadline) {
		l.inWindow++
		if r.end.After(l.lastInWindow) {
			l.lastInWindow = r.end
		}
	}
	l.queryMs = append(l.queryMs, ms)
	if r.cache == "hit" {
		l.hitMs = append(l.hitMs, ms)
	} else {
		l.missMs = append(l.missMs, ms)
	}
}

func (l *latencies) addIngest(ingest, ttr time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ingestS = append(l.ingestS, ingest.Seconds())
	l.ttrS = append(l.ttrS, ttr.Seconds())
}

// endToEnd assembles the end-to-end metrics shared by every workload.
func (l *latencies) endToEnd(setupS, restartS []float64, tuples int, storeBytesPerTuple float64) map[string]measured {
	tput := make([]float64, len(l.ingestS))
	for i, s := range l.ingestS {
		tput[i] = float64(tuples) / s
	}
	return map[string]measured{
		"setup_s":               medianOf(setupS, "s"),
		"ingest_tuples_per_s":   medianOf(tput, "tuples/s"),
		"time_to_rules_s":       medianOf(l.ttrS, "s"),
		"restart_to_query_s":    medianOf(restartS, "s"),
		"query_p50_ms":          medianOf(l.queryMs, "ms"),
		"query_p99_ms":          tailOf(l.queryMs, 99, "ms"),
		"query_miss_p50_ms":     medianOf(l.missMs, "ms"),
		"queries_per_s":         l.queriesPerS(),
		"peak_rss_mb":           {value: median(l.rssMiB), unit: "MiB", n: len(l.rssMiB), note: "median over windows of max VmHWM over daemons"},
		"store_bytes_per_tuple": {value: storeBytesPerTuple, unit: "B", n: 1, note: "data-dir bytes / live tuples"},
	}
}

// peakWindow starts a peak-RSS window over live daemons: it resets
// their VmHWM, and the returned function records the largest VmHWM
// among them since. One window per ingest step (or per second of a
// query phase), reduced to the median, keeps a single garbage
// collection that lands late from deciding the run's figure.
func (l *latencies) peakWindow(ds ...*daemon) func() {
	for _, d := range ds {
		resetPeakRSS(d.pid()) //nolint:errcheck // a failed reset only widens the window
	}
	return func() {
		var peak float64
		for _, d := range ds {
			v, err := peakRSSMiB(d.pid())
			if err != nil {
				return
			}
			peak = max(peak, v)
		}
		l.mu.Lock()
		l.rssMiB = append(l.rssMiB, peak)
		l.mu.Unlock()
	}
}

// sampleWindows records fifteen peak-RSS windows per timed phase until
// stop closes; the partial last window is dropped.
func (l *latencies) sampleWindows(stop <-chan struct{}, ds ...*daemon) {
	window := l.deadline.Sub(l.start) / 15
	for {
		record := l.peakWindow(ds...)
		select {
		case <-stop:
			return
		case <-time.After(window):
			record()
		}
	}
}

// cpuOf sums the CPU seconds of live daemons.
func cpuOf(ds ...*daemon) float64 {
	var total float64
	for _, d := range ds {
		if s, err := cpuSeconds(d.pid()); err == nil {
			total += s
		}
	}
	return total
}

// storeBytes sums the data-dir bytes of daemons.
func storeBytes(ds ...*daemon) (int64, error) {
	var total int64
	for _, d := range ds {
		n, err := dirBytes(d.dataDir)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// scrape reads a daemon's flat /metrics document.
func (b *bench) scrape(ctx context.Context, d *daemon) (map[string]int64, error) {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	return b.client(d).Metrics(rctx)
}
