package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/pkg/client"
)

const (
	// ingestReps and clusterReps are the traced ingests per run; each
	// ingests the workload's first relation with its rows rotated.
	ingestReps  = 5
	clusterReps = 2
	// queryTargets caps the traced queries: each runs missReps times as
	// a miss and hitReps more times as a hit. A hit is under a
	// millisecond, so its attribution needs many samples.
	queryTargets = 8
	missReps     = 3
	hitReps      = 10
	// storeRecords is K in the storage replay: K new names, then the
	// same K names again as overwrites.
	storeRecords = 4
	// attributionTolerance bounds the median residual / client-observed
	// time of every op type: the layer times must account for the time a
	// client sees to within this share. A miss is reported, not counted
	// as a failure: it judges the benchmark's instrument, not the
	// program's outputs.
	attributionTolerance = 0.25
)

// attributedOps are the op types whose layers must add up.
var attributedOps = []string{"ingest", "query_hit", "query_miss", "cluster_ingest"}

// perLayer lists the metrics a --trace 1 run reports in its result
// line. The report also prints cluster.retries, which reads 0 on every
// workload by construction (the replay's in-process workers never
// fail), so it is left out here.
var perLayer = []spec{
	{"relation.read_csv_ms", "ms"},
	{"relation.read_csv_mb_per_s", "MB/s"},
	{"core.suggest_thresholds_ms", "ms"},
	{"core.ingest_ms", "ms"},
	{"core.ingest_tuples_per_s", "tuples/s"},
	{"core.ingest_serial_ms", "ms"},
	{"core.ingest_speedup", "ratio"},
	{"core.ingest_alloc_b_per_tuple", "B"},
	{"cftree.rebuilds", "count"},
	{"summary.clusters", "count"},
	{"summary.encode_ms", "ms"},
	{"summary.decode_ms", "ms"},
	{"summary.acfsum_bytes", "B"},
	{"summary.merge_all_ms", "ms"},
	{"summary.merged_clusters", "count"},
	{"storage.flat.put_ms", "ms"},
	{"storage.segment.put_ms", "ms"},
	{"storage.flat.reopen_ms", "ms"},
	{"storage.segment.reopen_ms", "ms"},
	{"storage.flat.disk_bytes_per_live_byte", "ratio"},
	{"storage.segment.disk_bytes_per_live_byte", "ratio"},
	{"core.query_ms", "ms"},
	{"core.query_comparisons", "count"},
	{"core.rules", "count"},
	{"core.write_json_ms", "ms"},
	{"core.write_json_bytes", "B"},
	{"server.ingest_handler_ms", "ms"},
	{"server.ingest_overhead_ms", "ms"},
	{"server.query_hit_us", "us"},
	{"server.query_miss_overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.query_shared", "count"},
	{"http.ingest_transfer_ms", "ms"},
	{"http.query_transfer_us", "us"},
	{"cluster.ingest_csv_ms", "ms"},
	{"cluster.plan_shards_ms", "ms"},
	{"cluster.shard_ingest_ms", "ms"},
	{"cluster.install_ms", "ms"},
	{"cluster.replicate_ms", "ms"},
	{"cluster.unattributed_ms", "ms"},
	{"dard.cpu_s_per_ingest", "s"},
	{"dard.cpu_ms_per_query", "ms"},
	{"attribution.residual_frac.ingest", "ratio"},
	{"attribution.residual_frac.query_hit", "ratio"},
	{"attribution.residual_frac.query_miss", "ratio"},
	{"attribution.residual_frac.cluster_ingest", "ratio"},
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay holds the state of one traced run.
type replay struct {
	b      *bench
	t      *tracer
	hc     *http.Client
	sink   *client.Client
	layers map[string]measured
	series map[string][]float64 // per-op samples, reduced to medians at the end
}

func (r *replay) sample(name string, v float64) { r.series[name] = append(r.series[name], v) }

// spanMs is the total duration of op's spans named name, in ms.
func (r *replay) spanMs(op int64, name string) float64 { return msOf(total(r.t.find(op, name, -1))) }

// ioMs is the request-body and response-body time of one handler span.
func (r *replay) ioMs(op, handler int64) float64 {
	return msOf(total(r.t.find(op, "http.read_body", handler)) + total(r.t.find(op, "http.write_body", handler)))
}

// transfer times one request to the sink inside op: the HTTP layer of
// the op's own request, measured on its own.
func (r *replay) transfer(ctx context.Context, name string, op int64, call func(context.Context, *client.Client) error) (float64, error) {
	id, done := r.t.begin(name, op, 0)
	t0 := time.Now()
	err := call(withSpan(ctx, op, id), r.sink)
	d := time.Since(t0)
	done()
	return msOf(d), err
}

// residual records one op's attribution: the share of the
// client-observed time the layers leave unexplained, negative when they
// sum to more than the client saw. Per op it is noisy, since the HTTP
// layer is timed on a request of its own; the metric is the magnitude
// of the median, so a lower figure is always a closer account.
func (r *replay) residual(op string, clientMs, layersMs float64) {
	r.sample("op."+op+"_residual", (clientMs-layersMs)/clientMs)
}

// traced replays the workload's operations in process with a span
// around every call into a layer and returns the per-layer metrics.
func (b *bench) traced(ctx context.Context, out *outcome) (map[string]measured, error) {
	t := newTracer()
	b.tracer = t
	hc := &http.Client{Transport: spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	defer hc.CloseIdleConnections()
	sk := sink()
	defer sk.Close()
	sc, err := client.NewWithHTTP(sk.URL, hc)
	if err != nil {
		return nil, err
	}
	r := &replay{b: b, t: t, hc: hc, sink: sc, layers: make(map[string]measured), series: make(map[string][]float64)}

	arts, last, err := r.ingests(ctx, out)
	if err != nil {
		return nil, err
	}
	if b.cfg.workload != "cluster_mixed" {
		if err := r.dardQueries(ctx, out, arts, last); err != nil {
			return nil, err
		}
	}
	if err := r.phaseI(out); err != nil {
		return nil, err
	}
	if err := r.storage(arts[last].enc); err != nil {
		return nil, err
	}
	if err := r.cluster(ctx, out); err != nil {
		return nil, err
	}

	for name, xs := range r.series {
		unit := ""
		for _, s := range perLayer {
			if s.name == name {
				unit = s.unit
			}
		}
		r.layers[name] = medianOf(xs, unit)
	}
	for _, op := range attributedOps {
		m := r.layers["op."+op+"_residual"]
		r.layers["attribution.residual_frac."+op] = measured{value: math.Abs(m.value), unit: "ratio", n: m.n, note: "|signed median|"}
	}
	hits, misses := out.scraped["query_cache_hits_total"], out.scraped["query_cache_misses_total"]
	r.layers["server.cache_hit_ratio"] = measured{value: float64(hits) / float64(max(hits+misses, 1)), unit: "ratio", n: int(hits + misses), note: "scraped"}
	r.layers["server.query_shared"] = measured{value: float64(out.scraped["query_shared_total"]), unit: "count", n: 1, note: "scraped"}
	for name, m := range out.cpu {
		r.layers[name] = m
	}
	r.reportAttribution(out)
	return r.layers, nil
}

// reportAttribution prints, per op type, the client-observed time, the
// sum of the layer times and their residual against the tolerance, and
// the traced client times beside the untraced run's.
func (r *replay) reportAttribution(out *outcome) {
	for _, op := range attributedOps {
		clientMs := median(r.series["op."+op+"_ms"])
		frac := median(r.series["op."+op+"_residual"])
		verdict := "within"
		if math.Abs(frac) > attributionTolerance {
			verdict = "OUTSIDE"
			fmt.Fprintf(os.Stderr, "perfbench: attribution: layers of %s leave %.1f%% of the client-observed time unattributed\n", op, 100*frac)
		}
		fmt.Fprintf(r.b.out, "attribution %-15s client %10.4g ms  layers %10.4g ms  residual %+.4f (%s tolerance ±%.2f)\n",
			op, clientMs, clientMs*(1-frac), frac, verdict, attributionTolerance)
		if u, ok := out.untraced[op]; ok {
			fmt.Fprintf(r.b.out, "tracing overhead %-15s traced client %10.4g ms  untraced %10.4g ms\n", op, clientMs, u)
		}
	}
}

// artifact is a summary the replay stored: its encoded bytes and the
// summary the queries on it are checked against.
type artifact struct {
	sum *summary.Summary
	enc []byte
}

// ingests replays dard ingest ops: the real handler over HTTP, then an
// HTTP-only transfer of the same body, then the handler's layer calls
// made directly. It returns the stored artifacts and the last name.
func (r *replay) ingests(ctx context.Context, out *outcome) (map[string]artifact, string, error) {
	t := r.t
	srv, n, store, err := newDard(t, r.b.dir("trace", "dard"), dardRoute, nil)
	if err != nil {
		return nil, "", err
	}
	defer srv.Close()
	defer n.srv.Close()
	c, err := client.NewWithHTTP(n.srv.URL, r.hc)
	if err != nil {
		return nil, "", err
	}
	rows := indexCSV(out.csv)
	arts := make(map[string]artifact)
	var last string
	for rep := 0; rep < ingestReps; rep++ {
		csv := rows.rotated(nil, rep*len(rows.starts)/ingestReps)
		name := fmt.Sprintf("trace-%d", rep)
		runtime.GC()
		op := t.id()
		root, done := t.begin("op.ingest", op, 0)
		r.b.attempted.Add(1)
		ack, err := c.Ingest(withSpan(ctx, op, root), name, csv, client.IngestOptions{Memory: out.memory})
		done()
		if err != nil {
			r.b.fail(1, "traced ingest: %v", err)
			return nil, "", err
		}
		xfer, err := r.transfer(ctx, "http.ingest_transfer", op, func(ctx context.Context, s *client.Client) error {
			_, err := s.Ingest(ctx, name, csv, client.IngestOptions{Memory: out.memory})
			return err
		})
		if err != nil {
			return nil, "", err
		}
		// The replay, like the handler, starts on a collected heap rather
		// than on the garbage the handler left.
		runtime.GC()
		rid, rdone := t.begin("replay", op, 0)
		sum, enc, err := ingestReference(csv, out.memory, t.steps(op, rid))
		if err == nil {
			_, ddone := t.begin("summary.decode", op, rid)
			_, err = summary.Decode(enc)
			ddone()
		}
		rdone()
		if err != nil {
			return nil, "", err
		}
		r.b.checkAck("traced ingest", ack, sum)
		if !bytes.Equal(store.last, enc) {
			r.b.fail(1, "traced ingest stored an artifact that differs from the direct replay")
		}
		arts[name] = artifact{sum, enc}
		last = name

		handler := t.find(op, "server.ingest_handler", -1)
		if len(handler) != 1 {
			return nil, "", fmt.Errorf("traced ingest recorded %d handler spans", len(handler))
		}
		clientMs, handlerMs := r.spanMs(op, "op.ingest"), msOf(handler[0].dur())
		read, put := r.spanMs(op, "relation.read_csv"), r.spanMs(op, "storage.flat.put")
		inHandler := read + r.spanMs(op, "core.suggest_thresholds") + r.spanMs(op, "core.ingest") + r.spanMs(op, "summary.encode") + put
		r.sample("relation.read_csv_ms", read)
		r.sample("relation.read_csv_mb_per_s", float64(len(csv))/1e6/(read/1000))
		for _, l := range []string{"core.suggest_thresholds", "core.ingest", "summary.encode", "summary.decode"} {
			r.sample(l+"_ms", r.spanMs(op, l))
		}
		r.sample("server.ingest_handler_ms", handlerMs)
		r.sample("server.ingest_overhead_ms", handlerMs-r.ioMs(op, handler[0].ID)-inHandler)
		r.sample("http.ingest_transfer_ms", xfer)
		r.sample("op.ingest_ms", clientMs)
		r.residual("ingest", clientMs, xfer+inHandler)
		r.sample("cftree.rebuilds", float64(rebuilds(sum)))
		r.sample("summary.clusters", float64(clusterCount(sum)))
		r.sample("summary.acfsum_bytes", float64(len(enc)))
	}
	return arts, last, nil
}

func rebuilds(sum *summary.Summary) int {
	n := 0
	for _, g := range sum.Groups {
		n += g.Rebuilds
	}
	return n
}

// target is one replayed query: a summary and a document index (-1 is
// the default query).
type target struct {
	name string
	doc  int
}

// readTargets is the default query on name and the first distinct
// documents the workload's first reader sent, queryTargets in all.
func readTargets(name string, docs []int) []target {
	targets := []target{{name, -1}}
	seen := map[int]bool{-1: true}
	for _, d := range docs {
		if len(targets) == queryTargets {
			break
		}
		if !seen[d] {
			seen[d] = true
			targets = append(targets, target{name, d})
		}
	}
	return targets
}

// dardQueries replays the queries of bulk_ingest and query_mix against
// a fresh traced dard over the artifacts the ingests stored:
// bulk_ingest's default query after each ingest, query_mix's default
// query and reader documents.
func (r *replay) dardQueries(ctx context.Context, out *outcome, arts map[string]artifact, last string) error {
	srv, n, _, err := newDard(r.t, r.b.dir("trace", "dard"), dardRoute, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer n.srv.Close()
	c, err := client.NewWithHTTP(n.srv.URL, r.hc)
	if err != nil {
		return err
	}
	var targets []target
	if len(out.docs) == 0 {
		for rep := 0; rep < ingestReps; rep++ {
			targets = append(targets, target{fmt.Sprintf("trace-%d", rep), -1})
		}
	} else {
		targets = readTargets(last, out.docs)
	}
	return r.queries(ctx, srv, c, arts, targets)
}

// queries replays query ops through c: each target missReps times as a
// cache miss, then hitReps times as a hit. Before each miss the target's
// artifact is installed in srv, the server behind c: that drops its
// cached answers and leaves its summary resident, as after an ingest.
// The misses are repeated through core.QuerySummary and core.WriteJSON
// on the artifacts' summaries.
func (r *replay) queries(ctx context.Context, srv *server.Server, c *client.Client, arts map[string]artifact, targets []target) error {
	t := r.t
	for _, tg := range targets {
		var opts []byte
		if tg.doc >= 0 {
			opts = r.b.uni.bodies[tg.doc]
		}
		q, err := r.b.docOptions(tg.doc)
		if err != nil {
			return err
		}
		art := arts[tg.name]
		var served []byte
		for rep := 0; rep < missReps+hitReps; rep++ {
			kind := "hit"
			if rep < missReps {
				kind = "miss"
				if _, _, err := srv.InstallSummary(tg.name, art.enc); err != nil {
					return err
				}
			}
			if rep <= missReps {
				// Start each miss and the first hit on a collected heap, so
				// the replay's own garbage is not charged to them.
				runtime.GC()
			}
			op := t.id()
			root, done := t.begin("op.query_"+kind, op, 0)
			r.b.attempted.Add(1)
			body, meta, err := c.QueryJSON(withSpan(ctx, op, root), tg.name, opts)
			done()
			if err != nil {
				r.b.fail(1, "traced query: %v", err)
				return err
			}
			if meta.Cache != kind {
				return fmt.Errorf("traced query %s doc %d: want a cache %s, got %q", tg.name, tg.doc, kind, meta.Cache)
			}
			xfer, err := r.transfer(ctx, "http.query_transfer", op, func(ctx context.Context, s *client.Client) error {
				_, _, err := s.QueryJSON(ctx, fmt.Sprintf("n%d", len(body)), opts)
				return err
			})
			if err != nil {
				return err
			}
			handler := t.find(op, "server.query", -1)
			if len(handler) != 1 {
				return fmt.Errorf("traced query recorded %d handler spans", len(handler))
			}
			clientMs := r.spanMs(op, "op.query_"+kind)
			self := msOf(handler[0].dur()) - r.ioMs(op, handler[0].ID)
			r.sample("http.query_transfer_us", xfer*1000)
			r.sample("op.query_"+kind+"_ms", clientMs)
			if kind == "hit" {
				if !bytes.Equal(body, served) {
					r.b.fail(1, "cache hit for %s doc %d differs from the miss", tg.name, tg.doc)
				}
				r.sample("server.query_hit_us", self*1000)
				r.residual("query_hit", clientMs, xfer+self)
				continue
			}
			served = body
			runtime.GC()
			rid, rdone := t.begin("replay", op, 0)
			step := t.steps(op, rid)
			qdone := step("core.query")
			res, err := core.QuerySummary(art.sum, q)
			qdone()
			if err != nil {
				rdone()
				return err
			}
			wdone := step("core.write_json")
			want, err := renderResult(art.sum, res)
			wdone()
			rdone()
			if err != nil {
				return err
			}
			if !bytes.Equal(stripDurations(body), stripDurations(want)) {
				r.b.fail(1, "traced query %s doc %d differs from the reference", tg.name, tg.doc)
			}
			engine := r.spanMs(op, "core.query") + r.spanMs(op, "core.write_json")
			r.sample("core.query_ms", r.spanMs(op, "core.query"))
			r.sample("core.write_json_ms", r.spanMs(op, "core.write_json"))
			r.sample("server.query_miss_overhead_ms", self-engine)
			r.residual("query_miss", clientMs, xfer+engine)
			if tg.doc < 0 {
				r.sample("core.query_comparisons", float64(res.PhaseII.Comparisons))
				r.sample("core.rules", float64(len(res.Rules)))
				r.sample("core.write_json_bytes", float64(len(want)))
			}
		}
	}
	return nil
}

// phaseI measures Phase I on one core against every core on the
// workload's first relation. Workers never exceeds NumCPU.
func (r *replay) phaseI(out *outcome) error {
	rel, err := relation.ReadCSV(bytes.NewReader(out.csv))
	if err != nil {
		return err
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), "")
	if err != nil {
		return err
	}
	d0s, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		return err
	}
	opt := ingestOptions(out.memory, d0s, 1)
	t0 := time.Now()
	if _, err := core.Ingest(rel, part, opt); err != nil {
		return err
	}
	serial := msOf(time.Since(t0))
	parallel := median(r.series["core.ingest_ms"])
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	label := fmt.Sprintf("Workers=1 vs Workers=%d (NumCPU %d, GOMAXPROCS %d)", procs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r.layers["core.ingest_serial_ms"] = measured{value: serial, unit: "ms", n: 1, note: "Workers=1"}
	r.layers["core.ingest_speedup"] = measured{value: serial / parallel, unit: "ratio", n: 1, note: label}
	r.layers["core.ingest_tuples_per_s"] = measured{value: float64(rel.Len()) / (parallel / 1000), unit: "tuples/s", n: len(r.series["core.ingest_ms"]), note: "median"}
	r.layers["core.ingest_alloc_b_per_tuple"] = measured{value: median(r.t.allocs) / float64(rel.Len()), unit: "B", n: len(r.t.allocs), note: "TotalAlloc delta"}
	return nil
}

// storage replays the bulk_ingest record sequence into both backends:
// storeRecords new names, then the same names again as overwrites.
// It times each Put and each reopen (startup scan or WAL replay) and
// measures disk bytes per live byte after the store closes.
func (r *replay) storage(record []byte) error {
	type backend interface {
		Put(string, []byte) (uint64, error)
		Close() error
	}
	open := map[string]func(string) (backend, error){
		"flat":    func(dir string) (backend, error) { return storage.OpenFlat(dir, storage.FlatOptions{}) },
		"segment": func(dir string) (backend, error) { return storage.OpenSegment(dir, storage.SegmentOptions{}) },
	}
	for _, kind := range []string{"flat", "segment"} {
		dir := r.b.dir("trace", "store-"+kind)
		s, err := open[kind](dir)
		if err != nil {
			return err
		}
		var puts []float64
		for i := 0; i < 2*storeRecords; i++ {
			t0 := time.Now()
			if _, err := s.Put(fmt.Sprintf("bulk-%04d", i%storeRecords), record); err != nil {
				s.Close()
				return err
			}
			puts = append(puts, msOf(time.Since(t0)))
		}
		if err := s.Close(); err != nil {
			return err
		}
		disk, err := dirBytes(dir)
		if err != nil {
			return err
		}
		var reopens []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s, err := open[kind](dir)
			if err != nil {
				return err
			}
			reopens = append(reopens, msOf(time.Since(t0)))
			if err := s.Close(); err != nil {
				return err
			}
		}
		prefix := "storage." + kind + "."
		r.layers[prefix+"put_ms"] = medianOf(puts, "ms")
		r.layers[prefix+"reopen_ms"] = medianOf(reopens, "ms")
		r.layers[prefix+"disk_bytes_per_live_byte"] = measured{
			value: float64(disk) / float64(storeRecords*len(record)), unit: "ratio", n: 1,
			note: fmt.Sprintf("%d bytes on disk after %d puts", disk, 2*storeRecords)}
	}
	return nil
}

// cluster replays cluster ingests through an in-process darc over two
// in-process workers, then repeats darc's own layer calls directly on
// the shard artifacts the workers returned. On cluster_mixed it goes on
// to replay the reader's queries through that darc, on the merged
// summary the workload's reader queries.
func (r *replay) cluster(ctx context.Context, out *outcome) error {
	t := r.t
	var workers []*node
	for i := 1; i <= 2; i++ {
		srv, n, _, err := newDard(t, r.b.dir("trace", fmt.Sprint("worker", i)), dardRoute, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		defer n.srv.Close()
		workers = append(workers, n)
	}
	srv, dn, store, err := newDard(t, r.b.dir("trace", "darc"), darcRoute, func(local *server.Server) (http.Handler, error) {
		coord, err := cluster.New(cluster.Config{
			Workers: []string{workers[0].srv.URL, workers[1].srv.URL}, Shards: clusterShards, Replicate: true, HTTPClient: r.hc,
		}, local)
		if err != nil {
			return nil, err
		}
		return coord.Handler(), nil
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	defer dn.srv.Close()
	installer, _, err := server.New(server.Config{DataDir: r.b.dir("trace", "install")})
	if err != nil {
		return err
	}
	defer installer.Close()
	c, err := client.NewWithHTTP(dn.srv.URL, r.hc)
	if err != nil {
		return err
	}

	const name = "trace-cluster"
	var enc []byte
	for rep := 0; rep < clusterReps; rep++ {
		runtime.GC()
		op := t.id()
		root, done := t.begin("op.cluster_ingest", op, 0)
		r.b.attempted.Add(1)
		ack, err := c.ClusterIngest(withSpan(ctx, op, root), name, out.csv, client.IngestOptions{Memory: clusterMemory})
		done()
		if err != nil {
			r.b.fail(1, "traced cluster ingest: %v", err)
			return err
		}
		xfer, err := r.transfer(ctx, "http.cluster_transfer", op, func(ctx context.Context, s *client.Client) error {
			_, err := s.ClusterIngest(ctx, name, out.csv, client.IngestOptions{Memory: clusterMemory})
			return err
		})
		if err != nil {
			return err
		}
		rid, rdone := t.begin("replay", op, 0)
		step := t.steps(op, rid)
		var merged *summary.Summary
		merged, enc, err = replayDarc(out.csv, name, append(workers[0].takeCaptured(), workers[1].takeCaptured()...), step)
		if err == nil {
			idone := step("cluster.install")
			_, _, err = installer.InstallSummary(name, enc)
			idone()
		}
		rdone()
		if err != nil {
			return err
		}
		r.b.checkAck("traced cluster ingest", ack, merged)
		if !bytes.Equal(store.last, enc) {
			r.b.fail(1, "darc installed an artifact that differs from the direct fold of its shards")
		}

		handler := t.find(op, "cluster.ingest_csv", -1)
		if len(handler) != 1 {
			return fmt.Errorf("traced cluster ingest recorded %d handler spans", len(handler))
		}
		h := handler[0]
		read := t.find(op, "http.read_body", h.ID)
		shardSpans := t.find(op, "cluster.shard_ingest", h.ID)
		if len(read) != 1 || len(shardSpans) == 0 {
			return fmt.Errorf("traced cluster ingest recorded %d body reads and %d shard ingests", len(read), len(shardSpans))
		}
		// darc's work before dispatch is timed on darc's own spans: from
		// the end of its body read to the first shard request a worker
		// serves. Less the parse and the thresholds, replayed directly,
		// that is its shard plan.
		firstShard := shardSpans[0].Start
		for _, sp := range shardSpans {
			firstShard = min(firstShard, sp.Start)
		}
		preDispatch := msOf(time.Duration(firstShard - read[0].End))
		clientMs := r.spanMs(op, "op.cluster_ingest")
		shards := msOf(covered(shardSpans))
		replicate := msOf(covered(t.find(op, "cluster.replicate", h.ID)))
		darc := preDispatch + shards + r.spanMs(op, "summary.decode") + r.spanMs(op, "summary.merge_all") +
			r.spanMs(op, "summary.encode") + r.spanMs(op, "cluster.install") + replicate
		r.sample("cluster.ingest_csv_ms", msOf(h.dur()))
		r.sample("cluster.plan_shards_ms", preDispatch-r.spanMs(op, "relation.read_csv")-r.spanMs(op, "core.suggest_thresholds"))
		r.sample("cluster.shard_ingest_ms", shards)
		r.sample("cluster.install_ms", r.spanMs(op, "cluster.install"))
		r.sample("cluster.replicate_ms", replicate)
		r.sample("cluster.unattributed_ms", msOf(h.dur())-r.ioMs(op, h.ID)-darc)
		r.sample("summary.merge_all_ms", r.spanMs(op, "summary.merge_all"))
		r.sample("summary.merged_clusters", float64(clusterCount(merged)))
		r.sample("op.cluster_ingest_ms", clientMs)
		r.residual("cluster_ingest", clientMs, xfer+darc)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	r.layers["cluster.retries"] = measured{value: float64(m["cluster_shards_retried_total"]), unit: "count", n: clusterReps, note: "scraped from the traced darc"}
	if r.b.cfg.workload != "cluster_mixed" {
		return nil
	}
	served, err := summary.Decode(enc)
	if err != nil {
		return err
	}
	return r.queries(ctx, srv, c, map[string]artifact{name: {served, enc}}, readTargets(name, out.docs))
}

// replayDarc repeats darc's side of a cluster ingest through the
// layers' public functions: parse and derive thresholds, then decode and
// fold the shard artifacts the workers returned (placed in plan order by
// the start of the CSV each was cut from) and encode the merge.
func replayDarc(csv []byte, name string, calls []shardCall, step stepFn) (*summary.Summary, []byte, error) {
	_, plan, err := planCluster(csv, clusterShards, step)
	if err != nil {
		return nil, nil, err
	}
	if len(calls) != len(plan) {
		return nil, nil, fmt.Errorf("workers answered %d shard ingests for %d shards", len(calls), len(plan))
	}
	ordered := make([][]byte, len(plan))
	for _, sc := range calls {
		for i, shardCSV := range plan {
			if ordered[i] == nil && bytes.HasPrefix(shardCSV, sc.prefix) {
				ordered[i] = sc.artifact
				break
			}
		}
	}
	for i, a := range ordered {
		if a == nil {
			return nil, nil, fmt.Errorf("no worker returned shard %d", i)
		}
	}
	return foldShards(name, ordered, step)
}
