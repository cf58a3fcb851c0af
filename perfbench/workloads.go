package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/summary"
	"repro/pkg/client"
)

const (
	// dataSeed is the generator seed of every relation. The workload seed
	// drives the order of the ingests and the queries instead: the
	// summaries' size, and with it each query's cost, moves with the data
	// far more than any two commits differ. Single-pass summaries of five
	// seeds ranged from 363 to 537 KB; under cluster_mixed's budget the
	// merged cluster count ranged from 1935 to 2336 and a query's cost by
	// ±20%.
	dataSeed = 1
	// bulkBases is how many relations bulk_ingest generates, and
	// bulkPool how many distinct bodies it cuts from them by fixed row
	// rotations, so no step pays generation inside the run. Row order
	// moves a summary's cluster count, and with it the cost of Phase I
	// and of the default query, by about 10%. The pool is therefore the
	// same for every seed, the seed picks where the cycle starts, and a
	// run's steps cover the pool about once: with seed-drawn rotations a
	// run's figures were a matter of which rotations it drew.
	bulkBases = 2
	bulkPool  = 8
	// clusterShards and clusterMemory are cluster_mixed's shard count
	// and per-shard Phase I budget: 25K-tuple shards under 1 MiB, so
	// threshold rebuilds fire.
	clusterShards = 4
	clusterMemory = 1 << 20
	// cpuProbeQueries is how many sequential queries measure the
	// coordinator's CPU per query after cluster_mixed's timed phase.
	cpuProbeQueries = 20
)

// setupLoop performs the workload's set-up cfg.setups times, each over
// fresh data dirs, stopping all but the last set of daemons, and
// returns the set-up times.
func (b *bench) setupLoop(setup func(i int) ([]*daemon, error)) ([]*daemon, []float64, error) {
	var ds []*daemon
	var times []float64
	for i := 0; i < b.cfg.setups; i++ {
		for _, d := range ds {
			if err := b.fleet.stop(d); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if ds, err = setup(i); err != nil {
			return nil, nil, err
		}
		times = append(times, elapsedS(t0))
	}
	return ds, times, nil
}

// restartLoop stops d and execs it again over the same data dir
// cfg.restarts times, timing each from exec to the first served
// default query, on names in turn. It returns the running daemon.
func (b *bench) restartLoop(ctx context.Context, d *daemon, names []string) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < b.cfg.restarts; i++ {
		if err := b.fleet.stop(d); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		next, err := b.fleet.start(ctx, d.role, d.bin, d.dataDir, d.extra...)
		if err != nil {
			return nil, nil, err
		}
		d = next
		if _, err := b.query(ctx, b.client(d), names[i%len(names)], -1); err != nil {
			return nil, nil, err
		}
		times = append(times, elapsedS(t0))
	}
	return d, times, nil
}

// artifactPath is where a flat-storage daemon keeps name.
func artifactPath(d *daemon, name string) string {
	return filepath.Join(d.dataDir, name+".acfsum")
}

func readArtifact(d *daemon, name string) (*summary.Summary, []byte, error) {
	raw, err := os.ReadFile(artifactPath(d, name))
	if err != nil {
		return nil, nil, err
	}
	sum, err := summary.Decode(raw)
	return sum, raw, err
}

// docOptions resolves a document index (-1 is the default query).
func (b *bench) docOptions(doc int) (core.QueryOptions, error) {
	if doc < 0 {
		return core.DefaultQueryOptions(), nil
	}
	return b.uni.docs[doc].options()
}

// verifyQueries checks every served body against the reference over
// the artifacts the daemon holds.
func (b *bench) verifyQueries(log *bodyLog, artifacts map[string]*summary.Summary) {
	bad, err := log.verify(func(k bodyKey) ([]byte, error) {
		sum := artifacts[k.summary]
		if sum == nil {
			return nil, fmt.Errorf("no artifact for %s", k.summary)
		}
		q, err := b.docOptions(k.doc)
		if err != nil {
			return nil, err
		}
		body, _, err := renderQuery(sum, q)
		return body, err
	}, 2)
	b.fail(bad, "served query bodies differ from the reference: %v", err)
}

// checkAck compares an ingest acknowledgement with the reference
// summary it must describe.
func (b *bench) checkAck(what string, ack client.IngestResult, ref *summary.Summary) {
	if ack.Tuples != ref.Tuples || ack.Clusters != clusterCount(ref) {
		b.fail(1, "%s ack says %d tuples, %d clusters; reference has %d, %d",
			what, ack.Tuples, ack.Clusters, ref.Tuples, clusterCount(ref))
	}
}

// bulkIngest: one client POSTs a distinct relation per step, then asks
// for its rules at once; afterwards dard is restarted over the
// populated data dir.
func (b *bench) bulkIngest(ctx context.Context) (*outcome, error) {
	var bases []csvRows
	for i := 0; i < bulkBases; i++ {
		csv, err := wbcdCSV(b.cfg.tuples, dataSeed+int64(i))
		if err != nil {
			return nil, err
		}
		bases = append(bases, indexCSV(csv))
	}
	// body names one pool entry: a base relation and its row rotation.
	type body struct{ base, rows int }
	entry := func(j int) body {
		base := j % bulkBases
		return body{base, (j / bulkBases) * len(bases[base].starts) / (bulkPool / bulkBases)}
	}
	first := int(uint64(deriveSeed(b.cfg.seed, 50)) % bulkPool)
	rotation := func(step int) body { return entry((first + step) % bulkPool) }

	ds, setupS, err := b.setupLoop(func(i int) ([]*daemon, error) {
		d, err := b.fleet.start(ctx, "dard", "dard", b.dir(fmt.Sprint("setup", i), "dard"))
		return []*daemon{d}, err
	})
	if err != nil {
		return nil, err
	}
	d := ds[0]
	c := b.client(d)
	lat := &latencies{}
	log := newBodyLog()
	type step struct {
		name string
		body body
		ack  client.IngestResult
	}
	var steps []step
	var ingestCPU, queryCPU []float64
	var buf []byte
	var firstCSV []byte
	t0 := time.Now()
	lat.startPhase(t0, b.cfg.seconds)
	for i := 0; i == 0 || elapsedS(t0) < b.cfg.seconds; i++ {
		bd := rotation(i)
		buf = bases[bd.base].rotated(buf, bd.rows)
		if i == 0 {
			firstCSV = append([]byte(nil), buf...)
		}
		name := fmt.Sprintf("bulk-%04d", i)
		peak := lat.peakWindow(d)
		cpu0 := cpuOf(d)
		ack, took, err := b.ingest(ctx, c.Ingest, name, buf, client.IngestOptions{})
		if err != nil {
			continue
		}
		cpu1 := cpuOf(d)
		r, err := b.rulesAfter(ctx, c, name, ack.Version)
		if err != nil {
			continue
		}
		peak()
		lat.addIngest(took, took+r.latency)
		lat.addQuery(r)
		log.record(bodyKey{name, -1}, r.body)
		ingestCPU = append(ingestCPU, cpu1-cpu0)
		queryCPU = append(queryCPU, (cpuOf(d)-cpu1)*1000)
		steps = append(steps, step{name, bd, ack})
	}

	scraped, err := b.scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	stored, err := storeBytes(d)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("bulk_ingest completed no step")
	}
	// The restarts query one summary per pool entry, in pool order, so
	// every run prices the same summaries whatever its last step was.
	var targets []string
	for j := 0; j < bulkPool; j++ {
		for _, s := range steps {
			if s.body == entry(j) {
				targets = append(targets, s.name)
				break
			}
		}
	}
	d, restartS, err := b.restartLoop(ctx, d, targets)
	if err != nil {
		return nil, err
	}
	if err := b.fleet.stop(d); err != nil {
		return nil, err
	}

	// Output checks: each step's ack and stored artifact against an
	// in-process ingest of the same rows, each served body against the
	// reference query over the stored artifact.
	parsed := make([]*relation.Relation, bulkBases)
	for i, base := range bases {
		if parsed[i], err = relation.ReadCSV(bytes.NewReader(base.data)); err != nil {
			return nil, err
		}
	}
	// Serial Phase I on each core references two pool entries at a time;
	// its output is bit-identical to the daemon's parallel one.
	type reference struct {
		sum *summary.Summary
		enc []byte
		err error
	}
	refs := make(map[body]*reference)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, s := range steps {
		if refs[s.body] != nil {
			continue
		}
		ref := &reference{}
		refs[s.body] = ref
		wg.Add(1)
		sem <- struct{}{}
		go func(bd body) {
			defer wg.Done()
			defer func() { <-sem }()
			ref.sum, ref.enc, ref.err = ingestRelation(rotatedRelation(parsed[bd.base], bd.rows), 0, nil, 1, untimed)
		}(s.body)
	}
	wg.Wait()
	artifacts := make(map[string]*summary.Summary)
	for _, s := range steps {
		ref := refs[s.body]
		if ref.err != nil {
			return nil, ref.err
		}
		sum, raw, err := readArtifact(d, s.name)
		if err != nil {
			return nil, err
		}
		b.checkAck(s.name, s.ack, ref.sum)
		if !bytes.Equal(raw, ref.enc) {
			b.fail(1, "%s: stored artifact differs from the in-process ingest", s.name)
		}
		artifacts[s.name] = sum
	}
	b.verifyQueries(log, artifacts)

	tuples := len(steps) * b.cfg.tuples
	out := &outcome{
		e2e:      lat.endToEnd(setupS, restartS, b.cfg.tuples, float64(stored)/float64(tuples)),
		scraped:  scraped,
		cpu:      map[string]measured{"dard.cpu_s_per_ingest": meanOf(ingestCPU, "s"), "dard.cpu_ms_per_query": meanOf(queryCPU, "ms")},
		untraced: map[string]float64{"ingest": median(lat.ingestS) * 1000, "query_miss": median(lat.missMs)},
		csv:      firstCSV,
	}
	return out, nil
}

// queryMix: set-up ingests one summary; then two clients query it in a
// closed loop with option documents drawn from the seeded Zipf.
func (b *bench) queryMix(ctx context.Context) (*outcome, error) {
	csv, err := wbcdCSV(b.cfg.tuples, dataSeed)
	if err != nil {
		return nil, err
	}
	const name = "mix"
	lat := &latencies{}
	var acks []client.IngestResult
	var ingestCPU []float64
	ds, setupS, err := b.setupLoop(func(i int) ([]*daemon, error) {
		d, err := b.fleet.start(ctx, "dard", "dard", b.dir(fmt.Sprint("setup", i), "dard"))
		if err != nil {
			return nil, err
		}
		c := b.client(d)
		cpu0 := cpuOf(d)
		ack, took, err := b.ingest(ctx, c.Ingest, name, csv, client.IngestOptions{})
		if err != nil {
			return nil, err
		}
		ingestCPU = append(ingestCPU, cpuOf(d)-cpu0)
		r, err := b.rulesAfter(ctx, c, name, ack.Version)
		if err != nil {
			return nil, err
		}
		lat.addIngest(took, took+r.latency)
		acks = append(acks, ack)
		return []*daemon{d}, nil
	})
	if err != nil {
		return nil, err
	}
	d := ds[0]
	log := newBodyLog()
	cpu0 := cpuOf(d)
	start := time.Now()
	lat.startPhase(start, b.cfg.seconds)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		lat.sampleWindows(stop, d)
	}()
	docs := b.readers(ctx, b.client(d), name, []int{0, 1}, start, nil, lat, log)
	close(stop)
	<-sampled
	queryCPU := (cpuOf(d) - cpu0) * 1000 / float64(max(len(lat.queryMs), 1))

	scraped, err := b.scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	stored, err := storeBytes(d)
	if err != nil {
		return nil, err
	}
	d, restartS, err := b.restartLoop(ctx, d, []string{name})
	if err != nil {
		return nil, err
	}
	if err := b.fleet.stop(d); err != nil {
		return nil, err
	}

	ref, refBytes, err := ingestReference(csv, 0, untimed)
	if err != nil {
		return nil, err
	}
	for i, ack := range acks {
		b.checkAck(fmt.Sprintf("set-up %d ingest", i), ack, ref)
	}
	sum, raw, err := readArtifact(d, name)
	if err != nil {
		return nil, err
	}
	if string(raw) != string(refBytes) {
		b.fail(1, "stored artifact differs from the in-process ingest")
	}
	b.verifyQueries(log, map[string]*summary.Summary{name: sum})

	return &outcome{
		e2e:      lat.endToEnd(setupS, restartS, b.cfg.tuples, float64(stored)/float64(b.cfg.tuples)),
		scraped:  scraped,
		cpu:      map[string]measured{"dard.cpu_s_per_ingest": meanOf(ingestCPU, "s"), "dard.cpu_ms_per_query": {value: queryCPU, unit: "ms", n: len(lat.queryMs), note: "phase CPU / queries"}},
		untraced: map[string]float64{"ingest": median(lat.ingestS) * 1000, "query_miss": median(lat.missMs), "query_hit": median(lat.hitMs)},
		csv:      csv,
		docs:     docs,
	}, nil
}

// readers runs one closed-loop query client per stream id against name
// until cfg.seconds after start, each drawing every document from its
// seeded Zipf stream. A non-nil gate delays the clients until it closes
// (the first summary exists). It returns the documents of the first
// client, in order.
func (b *bench) readers(ctx context.Context, c *client.Client, name string, streams []int, start time.Time, gate <-chan struct{}, lat *latencies, log *bodyLog) []int {
	var wg sync.WaitGroup
	docs := make([][]int, len(streams))
	for i, id := range streams {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return
				}
			}
			stream := newDocStream(b.uni, deriveSeed(b.cfg.seed, 100+id))
			for elapsedS(start) < b.cfg.seconds && ctx.Err() == nil {
				doc := stream.next()
				docs[i] = append(docs[i], doc)
				r, err := b.query(ctx, c, name, doc)
				if err != nil {
					continue
				}
				lat.addQuery(r)
				log.record(bodyKey{name, doc}, r.body)
			}
		}(i, id)
	}
	wg.Wait()
	return docs[0]
}

// clusterMixed: darc shards over two dard workers. Client 1 re-ingests
// one relation under one name with a Phase I budget and asks for its
// rules; client 2 reads that name with the query_mix documents.
func (b *bench) clusterMixed(ctx context.Context) (*outcome, error) {
	csv, err := wbcdCSV(b.cfg.tuples, dataSeed)
	if err != nil {
		return nil, err
	}
	const name = "mixed"
	ds, setupS, err := b.setupLoop(func(i int) ([]*daemon, error) {
		dir := fmt.Sprint("setup", i)
		w1, err := b.fleet.start(ctx, "worker1", "dard", b.dir(dir, "worker1"))
		if err != nil {
			return nil, err
		}
		w2, err := b.fleet.start(ctx, "worker2", "dard", b.dir(dir, "worker2"))
		if err != nil {
			return []*daemon{w1}, err
		}
		dc, err := b.fleet.start(ctx, "darc", "darc", b.dir(dir, "darc"),
			"-workers", w1.url+","+w2.url, "-shards", fmt.Sprint(clusterShards), "-replicate")
		if err != nil {
			return []*daemon{w1, w2}, err
		}
		return []*daemon{w1, w2, dc}, nil
	})
	if err != nil {
		return nil, err
	}
	w1, w2, dc := ds[0], ds[1], ds[2]
	c := b.client(dc)
	lat := &latencies{}
	log := newBodyLog()
	var (
		acks      []client.IngestResult
		installed []string // hash of darc's artifact after each re-ingest
	)
	first := make(chan struct{})
	var once sync.Once
	workerCPU0, darcCPU0 := cpuOf(w1, w2), cpuOf(dc)
	start := time.Now()
	lat.startPhase(start, b.cfg.seconds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer once.Do(func() { close(first) })
		for elapsedS(start) < b.cfg.seconds && ctx.Err() == nil {
			peak := lat.peakWindow(w1, w2, dc)
			ack, took, err := b.ingest(ctx, c.ClusterIngest, name, csv, client.IngestOptions{Memory: clusterMemory})
			if err != nil {
				continue
			}
			r, err := b.rulesAfter(ctx, c, name, ack.Version)
			if err != nil {
				continue
			}
			peak()
			once.Do(func() { close(first) })
			lat.addIngest(took, took+r.latency)
			lat.addQuery(r)
			log.record(bodyKey{name, -1}, r.body)
			acks = append(acks, ack)
			// Recorded here, compared after the phase: only this
			// client writes name, so the file is this version's.
			raw, err := os.ReadFile(artifactPath(dc, name))
			if err != nil {
				b.fail(1, "reading darc's artifact: %v", err)
				continue
			}
			installed = append(installed, fmt.Sprintf("%016x", hashBytes(raw)))
		}
	}()
	docs := b.readers(ctx, c, name, []int{1}, start, first, lat, log)
	wg.Wait()
	workerCPU, darcCPU := cpuOf(w1, w2)-workerCPU0, cpuOf(dc)-darcCPU0
	if len(acks) == 0 {
		return nil, fmt.Errorf("cluster_mixed completed no ingest")
	}

	// darc both coordinates ingests and serves queries; a short
	// sequential probe prices its queries so the two can be told apart.
	probe := newDocStream(b.uni, deriveSeed(b.cfg.seed, 200))
	probe0 := cpuOf(dc)
	for i := 0; i < cpuProbeQueries; i++ {
		doc := probe.next()
		if r, err := b.query(ctx, c, name, doc); err == nil {
			log.record(bodyKey{name, doc}, r.body)
		}
	}
	cpuPerQuery := (cpuOf(dc) - probe0) / cpuProbeQueries
	darcIngest := (darcCPU - cpuPerQuery*float64(len(lat.queryMs))) / float64(len(acks))

	scraped, err := b.scrape(ctx, dc)
	if err != nil {
		return nil, err
	}
	stored, err := storeBytes(w1, w2, dc)
	if err != nil {
		return nil, err
	}
	dc, restartS, err := b.restartLoop(ctx, dc, []string{name})
	if err != nil {
		return nil, err
	}
	b.fleet.stopAll()

	merged, refBytes, err := clusterReference(csv, name, clusterShards, clusterMemory)
	if err != nil {
		return nil, err
	}
	for i, ack := range acks {
		b.checkAck(fmt.Sprintf("cluster ingest %d", i), ack, merged)
	}
	// Queries are checked over the artifact, as darc serves it: a
	// decoded summary, not the in-memory fold.
	artifact, err := summary.Decode(refBytes)
	if err != nil {
		return nil, err
	}
	want := fmt.Sprintf("%016x", hashBytes(refBytes))
	for i, h := range installed {
		if h != want {
			b.fail(1, "cluster ingest %d installed an artifact that differs from the in-process merge", i)
		}
	}
	for _, w := range []*daemon{w1, w2} {
		if raw, err := os.ReadFile(artifactPath(w, name)); err != nil || string(raw) != string(refBytes) {
			b.fail(1, "%s replica differs from the merged artifact (%v)", w.role, err)
		}
	}
	b.verifyQueries(log, map[string]*summary.Summary{name: artifact})

	return &outcome{
		e2e:     lat.endToEnd(setupS, restartS, b.cfg.tuples, float64(stored)/float64(b.cfg.tuples)),
		scraped: scraped,
		cpu: map[string]measured{
			"dard.cpu_s_per_ingest": {value: workerCPU / float64(len(acks)), unit: "s", n: len(acks), note: "worker CPU / cluster ingests"},
			"dard.cpu_ms_per_query": {value: cpuPerQuery * 1000, unit: "ms", n: cpuProbeQueries, note: "darc CPU over a sequential probe"},
			"darc.cpu_s_per_ingest": {value: darcIngest, unit: "s", n: len(acks), note: "darc CPU less its query share / ingests"},
		},
		untraced: map[string]float64{"cluster_ingest": median(lat.ingestS) * 1000},
		csv:      csv,
		memory:   clusterMemory,
		docs:     docs,
	}, nil
}
