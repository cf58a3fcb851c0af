// Package cluster implements the darc coordinator: distributed Phase I
// mining over a pool of dard workers, folded back into one summary
// under the determinism contract.
//
// An ingest is split into contiguous row-range shards; each shard goes
// to a worker's stateless POST /v1/ingest/shard endpoint, which runs
// Phase I and streams the encoded .acfsum artifact back without
// touching the worker's catalog. The coordinator derives the per-group
// diameter thresholds ONCE for the whole relation, parsing only the
// rows the threshold advisor samples (each other row is parsed once,
// by the worker that mines it, and a worker's 400 aborts the ingest),
// and pins the same vector on every shard request (?d0s=), then folds
// the artifacts in shard-index order with summary.MergeAll — so the
// merged summary is byte-identical no matter how many workers ran,
// which worker ran which shard, or how often a shard was retried. The
// differential tests in this package pin that across 1/2/4 workers,
// three seeds and a kill-mid-ingest requeue run.
//
// Robustness is first-class: every shard attempt runs under a timeout,
// a failed attempt marks its worker down and requeues the shard onto a
// healthy worker after a capped exponential backoff (seeded jitter —
// no unseeded randomness in this package), downed workers are probed
// back to health, and an ingest that cannot place all of its shards
// fails loudly — the coordinator never installs a silently-short
// merge.
//
// The scheduler is a single goroutine owning all dispatch state; shard
// executors, backoff timers and health probes each run in their own
// goroutine and report back over one buffered event channel. No
// goroutine sleeps in a loop and no channel operation happens under a
// mutex, which keeps the package clean under darlint's retrybound and
// lockhold analyzers.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/pkg/client"
)

// Config sizes the coordinator. Workers is required; the zero value of
// every other field selects a production default.
type Config struct {
	// Workers lists the dard base URLs ("http://host:8344") shards are
	// dispatched to. At least one is required.
	Workers []string
	// Shards is the default shard count per ingest (overridable per
	// request via ?shards=). 0 = one shard per worker. Byte-identity
	// across differently sized pools requires pinning this: the merged
	// artifact records the shard count.
	Shards int
	// MaxAttempts bounds the tries per shard (first attempt included).
	// A shard failing this many times fails the whole ingest. 0 = 3.
	MaxAttempts int
	// ShardTimeout bounds one shard attempt on one worker. 0 = 2m.
	ShardTimeout time.Duration
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// before a failed shard is requeued: delay n lies in
	// (0, min(Base<<n, Cap)], jittered by the seeded generator.
	// 0 = 50ms base, 2s cap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HealthInterval is the delay between health probes of a downed
	// worker (and the period of the background prober, see Run). 0 = 1s.
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe. 0 = 2s.
	ProbeTimeout time.Duration
	// ProbeBudget caps in-ingest probes of one downed worker; when it
	// is spent the worker stays down for the rest of that ingest (the
	// background prober can still revive it afterwards). 0 = 4.
	ProbeBudget int
	// Seed feeds the jitter generator. Fixed default, so two
	// coordinators with identical configs draw identical jitter —
	// delays are telemetry, never rule input.
	Seed int64
	// Replicate pushes every merged artifact to all healthy workers
	// (PUT /v1/summaries/{name}) so queries can fan out to replicas.
	Replicate bool
	// MaxIngestBytes limits cluster ingest request bodies. 0 = 256 MiB.
	MaxIngestBytes int64
	// MaxQueryBytes limits fanned-out query bodies. 0 = 1 MiB.
	MaxQueryBytes int64
	// HTTPClient, when non-nil, carries all worker traffic (custom
	// transports, test doubles).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = len(c.Workers)
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 2 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeBudget == 0 {
		c.ProbeBudget = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxIngestBytes == 0 {
		c.MaxIngestBytes = 256 << 20
	}
	if c.MaxQueryBytes == 0 {
		c.MaxQueryBytes = 1 << 20
	}
	return c
}

// Coordinator owns the worker pool and an embedded local dard server
// whose catalog receives every merged summary. Construct with New,
// mount Handler on an http.Server, and optionally start the background
// health prober with Run.
type Coordinator struct {
	cfg     Config
	local   *server.Server
	localH  http.Handler
	workers []*worker
	metrics *Metrics

	// rng drives backoff jitter; seeded so delay schedules are
	// reproducible. Guarded because executors never touch it — only
	// the scheduler and the prober do, but ingests can overlap.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// worker is one dard in the pool. Health is shared across ingests;
// dispatch bookkeeping (which worker is busy) is per-ingest and lives
// in the scheduler.
type worker struct {
	id     int
	base   string
	client *client.Client

	mu      sync.Mutex
	healthy bool

	dispatched atomic.Int64 // shard attempts sent to this worker
	failures   atomic.Int64 // shard attempts that failed
}

// setHealthy flips the health flag, reporting whether it changed.
func (w *worker) setHealthy(h bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.healthy == h {
		return false
	}
	w.healthy = h
	return true
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// New validates the pool and returns a coordinator over local, the
// embedded dard server that stores merged summaries (and serves every
// non-cluster route).
func New(cfg Config, local *server.Server) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if local == nil {
		return nil, errors.New("cluster: nil local server")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		local:   local,
		localH:  local.Handler(),
		metrics: &Metrics{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, addr := range cfg.Workers {
		cl, err := client.NewWithHTTP(addr, cfg.HTTPClient)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		c.workers = append(c.workers, &worker{id: i, base: cl.Base(), client: cl, healthy: true})
	}
	return c, nil
}

// Metrics exposes the cluster counter bag (tests assert on it).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Local returns the embedded dard server.
func (c *Coordinator) Local() *server.Server { return c.local }

// healthyCount counts workers currently marked up.
func (c *Coordinator) healthyCount() int {
	n := 0
	for _, w := range c.workers {
		if w.isHealthy() {
			n++
		}
	}
	return n
}

// backoffFor returns the jittered delay before retry number attempt
// (1-based): uniform in (0, min(Base<<(attempt-1), Cap)].
func (c *Coordinator) backoffFor(attempt int) time.Duration {
	d := c.cfg.BackoffCap
	if shift := attempt - 1; shift < 32 {
		if e := c.cfg.BackoffBase << shift; e > 0 && e < d {
			d = e
		}
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// Run probes every worker each HealthInterval until ctx ends, marking
// them up or down — the steady-state prober behind mark-up of workers
// that recovered between ingests. Each wait is a fresh timer selected
// against ctx; the loop never sleeps unconditionally.
func (c *Coordinator) Run(ctx context.Context) {
	for {
		t := time.NewTimer(c.cfg.HealthInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		c.ProbeAll(ctx)
	}
}

// ProbeAll health-probes every worker once, updating marks.
func (c *Coordinator) ProbeAll(ctx context.Context) {
	for _, w := range c.workers {
		pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
		err := w.client.Health(pctx)
		cancel()
		if err != nil {
			c.metrics.ProbeFailures.Add(1)
			if w.setHealthy(false) {
				c.metrics.WorkerMarkdowns.Add(1)
			}
			continue
		}
		if w.setHealthy(true) {
			c.metrics.WorkerMarkups.Add(1)
		}
	}
}
