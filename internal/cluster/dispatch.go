package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/summary"
	"repro/pkg/client"
)

// IngestReport summarizes one completed cluster ingest.
type IngestReport struct {
	Name     string
	Version  uint64
	Tuples   int64
	Groups   int
	Clusters int
	Bytes    int
	Shards   int
	Retries  int64 // shard attempts beyond each shard's first
	Replicas int   // workers the merged artifact was pushed to
}

// job is one shard awaiting (re)dispatch. attempt counts prior
// failures: 0 on the first try.
type job struct {
	idx     int
	attempt int
}

type eventKind int

const (
	evShardOK eventKind = iota
	evShardFail
	evRequeue  // backoff elapsed: put the job back in the queue
	evProbeDue // probe delay elapsed: launch a health probe
	evProbeOK
	evProbeFail
	evAborted // a timer saw ctx end before firing
)

// event is the scheduler's single inbound message type. Shard
// executors, backoff/probe timers and probes all report through it.
type event struct {
	kind     eventKind
	worker   *worker
	job      job
	artifact []byte
	err      error
}

// IngestCSV shards a CSV relation across the worker pool, folds the
// shard summaries deterministically, installs the merged artifact in
// the local catalog under name and (optionally) replicates it. On any
// failure nothing is installed: a cluster ingest is all-or-nothing,
// never a silently short merge.
func (c *Coordinator) IngestCSV(ctx context.Context, name string, csv []byte, opt client.IngestOptions) (IngestReport, error) {
	rep, err := c.ingest(ctx, name, csv, opt)
	if err != nil {
		c.metrics.IngestFailures.Add(1)
		return rep, err
	}
	c.metrics.Ingests.Add(1)
	return rep, nil
}

func (c *Coordinator) ingest(ctx context.Context, name string, csv []byte, opt client.IngestOptions) (IngestReport, error) {
	ends, opt, err := planIngest(csv, opt)
	if err != nil {
		return IngestReport{}, err
	}
	want := opt.Shards
	if want == 0 {
		want = c.cfg.Shards
	}
	opt.Shards = 0 // shard requests carry no shard count
	shardCSVs, err := planShards(csv, ends, want)
	if err != nil {
		return IngestReport{}, fmt.Errorf("%w: %w", errBadIngest, err)
	}

	artifacts, retries, err := c.dispatch(ctx, shardCSVs, opt)
	if err != nil {
		return IngestReport{}, err
	}

	// Fold in shard-index order under provenance IDs: the merged bytes
	// depend only on the plan, never on which worker ran what when.
	shards := make([]*summary.Summary, len(artifacts))
	ids := make([]string, len(artifacts))
	for i, artifact := range artifacts {
		sum, err := summary.Decode(artifact)
		if err != nil {
			return IngestReport{}, fmt.Errorf("cluster: decoding %s: %w", shardID(name, i), err)
		}
		shards[i] = sum
		ids[i] = shardID(name, i)
	}
	mergeStart := time.Now()
	merged, err := summary.MergeAll(shards, ids)
	c.metrics.MergeUsSum.Add(time.Since(mergeStart).Microseconds())
	if err != nil {
		return IngestReport{}, fmt.Errorf("cluster: %w", err)
	}
	encoded, err := summary.Encode(merged)
	if err != nil {
		return IngestReport{}, fmt.Errorf("cluster: encoding merged summary: %w", err)
	}
	installed, version, err := c.local.InstallSummary(name, encoded)
	if err != nil {
		return IngestReport{}, fmt.Errorf("cluster: installing %q: %w", name, err)
	}
	replicas := c.replicate(ctx, name, encoded)

	clusters := 0
	for _, g := range installed.Groups {
		clusters += len(g.Clusters)
	}
	return IngestReport{
		Name: name, Version: version, Tuples: installed.Tuples,
		Groups: len(installed.Groups), Clusters: clusters, Bytes: len(encoded),
		Shards: len(artifacts), Retries: retries, Replicas: replicas,
	}, nil
}

// dispatch runs the shard plan to completion. A single scheduler
// (this function) owns all dispatch state; executors, backoff timers
// and probes run in their own goroutines and report over one buffered
// channel sized so no sender ever blocks — which is what lets the
// scheduler return early on failure without leaking goroutines.
func (c *Coordinator) dispatch(ctx context.Context, shards [][]byte, opt client.IngestOptions) ([][]byte, int64, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	total := len(shards)
	events := make(chan event, total*c.cfg.MaxAttempts*2+len(c.workers)*(c.cfg.ProbeBudget+2)+8)

	results := make([][]byte, total)
	lastWorker := make([]int, total)
	queue := make([]job, 0, total)
	for i := range shards {
		queue = append(queue, job{idx: i})
		lastWorker[i] = -1
	}
	busy := make([]bool, len(c.workers))
	probing := make([]bool, len(c.workers))
	probeBudget := make([]int, len(c.workers))
	for i := range probeBudget {
		probeBudget[i] = c.cfg.ProbeBudget
	}

	var retries int64
	done, inflight, outstanding := 0, 0, 0
	for done < total {
		// Hand every queued job to the lowest-numbered healthy idle
		// worker (one shard in flight per worker keeps lanes balanced).
		for len(queue) > 0 {
			w := c.pickWorker(busy)
			if w == nil {
				break
			}
			j := queue[0]
			queue = queue[1:]
			if j.attempt > 0 {
				retries++
				c.metrics.ShardsRetried.Add(1)
				if lastWorker[j.idx] != w.id {
					c.metrics.ShardsRequeued.Add(1)
				}
			}
			lastWorker[j.idx] = w.id
			busy[w.id] = true
			inflight++
			c.metrics.ShardsDispatched.Add(1)
			w.dispatched.Add(1)
			go c.runShard(ictx, w, j, shards[j.idx], opt, events)
		}
		// Partial-failure policy: once nothing is running and no timer
		// or probe can change that, unplaced shards mean the ingest is
		// lost — fail it rather than serve a short merge.
		if len(queue) > 0 && inflight == 0 && outstanding == 0 {
			return nil, retries, fmt.Errorf(
				"cluster: %d of %d shards unplaced and no healthy workers remain (%d/%d up)",
				len(queue), total, c.healthyCount(), len(c.workers))
		}

		var ev event
		select {
		case <-ctx.Done():
			return nil, retries, fmt.Errorf("cluster: ingest aborted: %w", ctx.Err())
		case ev = <-events:
		}
		switch ev.kind {
		case evShardOK:
			busy[ev.worker.id] = false
			inflight--
			if results[ev.job.idx] == nil {
				results[ev.job.idx] = ev.artifact
				done++
			}
		case evShardFail:
			busy[ev.worker.id] = false
			inflight--
			ev.worker.failures.Add(1)
			// A 4xx is the shard's fault, not the worker's: every
			// worker would reject it identically, so abort now.
			var apiErr *client.APIError
			if errors.As(ev.err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500 {
				return nil, retries, fmt.Errorf("%w: worker %s rejected shard %d: %w",
					errBadIngest, ev.worker.base, ev.job.idx, ev.err)
			}
			if ev.worker.setHealthy(false) {
				c.metrics.WorkerMarkdowns.Add(1)
			}
			if !probing[ev.worker.id] && probeBudget[ev.worker.id] > 0 {
				probing[ev.worker.id] = true
				outstanding++
				later(ictx, c.cfg.HealthInterval, event{kind: evProbeDue, worker: ev.worker}, events)
			}
			next := ev.job.attempt + 1
			if next >= c.cfg.MaxAttempts {
				return nil, retries, fmt.Errorf(
					"cluster: shard %d failed %d attempts, aborting ingest: last error: %w",
					ev.job.idx, next, ev.err)
			}
			outstanding++
			later(ictx, c.backoffFor(next), event{kind: evRequeue, job: job{idx: ev.job.idx, attempt: next}}, events)
		case evRequeue:
			outstanding--
			queue = append(queue, ev.job)
		case evProbeDue:
			outstanding--
			probeBudget[ev.worker.id]--
			outstanding++
			go c.probe(ictx, ev.worker, events)
		case evProbeOK:
			outstanding--
			probing[ev.worker.id] = false
			if ev.worker.setHealthy(true) {
				c.metrics.WorkerMarkups.Add(1)
			}
		case evProbeFail:
			outstanding--
			c.metrics.ProbeFailures.Add(1)
			if probeBudget[ev.worker.id] > 0 {
				outstanding++
				later(ictx, c.cfg.HealthInterval, event{kind: evProbeDue, worker: ev.worker}, events)
			} else {
				probing[ev.worker.id] = false
			}
		case evAborted:
			outstanding--
		}
	}
	return results, retries, nil
}

// pickWorker returns the lowest-numbered healthy idle worker, nil if
// none.
func (c *Coordinator) pickWorker(busy []bool) *worker {
	for _, w := range c.workers {
		if !busy[w.id] && w.isHealthy() {
			return w
		}
	}
	return nil
}

// runShard is one shard attempt against one worker, bounded by the
// per-attempt timeout.
func (c *Coordinator) runShard(ctx context.Context, w *worker, j job, csv []byte, opt client.IngestOptions, events chan<- event) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	start := time.Now()
	artifact, err := w.client.ShardIngest(actx, csv, opt)
	c.metrics.ShardUsSum.Add(time.Since(start).Microseconds())
	if err != nil {
		events <- event{kind: evShardFail, worker: w, job: j, err: err}
		return
	}
	events <- event{kind: evShardOK, worker: w, job: j, artifact: artifact}
}

// probe is one health check of a downed worker.
func (c *Coordinator) probe(ctx context.Context, w *worker, events chan<- event) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	if err := w.client.Health(pctx); err != nil {
		events <- event{kind: evProbeFail, worker: w, err: err}
		return
	}
	events <- event{kind: evProbeOK, worker: w}
}

// later delivers ev after delay, or an evAborted once ctx ends —
// exactly one event either way, so the scheduler's outstanding-event
// accounting always balances. One timer goroutine per delay, selected
// against ctx, is this package's sanctioned alternative to a
// sleep-in-a-retry-loop (see darlint's retrybound analyzer).
func later(ctx context.Context, delay time.Duration, ev event, events chan<- event) {
	go func() {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			ev = event{kind: evAborted}
		}
		events <- ev
	}()
}

// replicate pushes a merged artifact to every healthy worker,
// best-effort, and returns how many accepted it.
func (c *Coordinator) replicate(ctx context.Context, name string, artifact []byte) int {
	if !c.cfg.Replicate {
		return 0
	}
	n := 0
	for _, w := range c.workers {
		if !w.isHealthy() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		_, err := w.client.PutSummary(pctx, name, artifact)
		cancel()
		if err != nil {
			c.metrics.ReplicaPushFailures.Add(1)
			continue
		}
		c.metrics.ReplicaPushes.Add(1)
		n++
	}
	return n
}
