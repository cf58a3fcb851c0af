// Command perfbench is the repository benchmark. It drives dard and
// darc, built from the tree under test, through one of three seeded
// closed-loop workloads, checks every answer against an in-process
// reference, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced in-process replay (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"setup_s": {"value": 0.031, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload query_mix --seed 1 --seconds 20 --trace 0
//
// README.md in this directory gives each workload's reason and what
// the benchmark does not cover.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is one invocation. tuples, setups and restarts are the
// benchmark's sizes (see defaultConfig); only tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tuples   int
	setups   int
	restarts int
	binDir   string
	workDir  string
}

var workloads = map[string]func(*bench, context.Context) (*outcome, error){
	"bulk_ingest":   (*bench).bulkIngest,
	"query_mix":     (*bench).queryMix,
	"cluster_mixed": (*bench).clusterMixed,
}

// defaultConfig sets the benchmark's sizes for workload: 100K-tuple
// relations; setup_s is the median of 15 set-ups (7 for query_mix,
// whose set-up ingests) and restart_to_query_s of 30 restarts.
func defaultConfig(workload string) config {
	cfg := config{workload: workload, tuples: 100000, setups: 15, restarts: 30}
	if workload == "query_mix" {
		cfg.setups = 7
	}
	return cfg
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var workload string
	var seed int64
	var seconds float64
	var trace int
	var binDir, workDir string
	fs.StringVar(&workload, "workload", "", "bulk_ingest, query_mix or cluster_mixed")
	fs.Int64Var(&seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced in-process replay")
	fs.StringVar(&binDir, "bin", ".bench_build/bin", "directory holding the dard and darc binaries")
	fs.StringVar(&workDir, "work", ".bench_build/work", "directory for data dirs, logs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[workload] == nil || (trace != 0 && trace != 1) || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload bulk_ingest|query_mix|cluster_mixed, --trace 0|1, positive --seconds")
		return 2
	}
	cfg := defaultConfig(workload)
	cfg.seed, cfg.seconds, cfg.trace, cfg.binDir, cfg.workDir = seed, seconds, trace == 1, binDir, workDir
	for _, bin := range []string{"dard", "darc"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, bin)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s binary missing (build with perfbench/run.sh): %v\n", bin, err)
			return 2
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := benchmark(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs one workload (and, with --trace 1, its traced replay)
// in a fresh work directory that it removes afterwards.
func benchmark(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b, err := newBench(cfg, work, stdout)
	if err != nil {
		return nil, err
	}
	defer b.fleet.stopAll()
	b.printStamp()

	out, err := workloads[cfg.workload](b, ctx)
	if err != nil {
		return nil, err
	}
	b.fleet.stopAll()
	b.reportEndToEnd(out)
	metrics := out.e2e
	if cfg.trace {
		layers, err := b.traced(ctx, out)
		if err != nil {
			return nil, err
		}
		metrics = layers
		b.reportLayers(layers)
		if err := b.writeSpans(); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: make(map[string]value)}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "# failed_frac = %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, s := range specs {
		m, ok := metrics[s.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = value{Value: m.value, Unit: s.unit}
	}
	return res, nil
}

// stamp identifies the hardware, toolchain, inputs and daemon flags
// behind every number the run prints.
func (b *bench) printStamp() {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	mem := "unknown"
	if info, err := os.ReadFile("/proc/meminfo"); err == nil {
		if line, _, ok := strings.Cut(string(info), "\n"); ok {
			mem = strings.Join(strings.Fields(line)[1:], " ")
		}
	}
	b.stamp = map[string]any{
		"cpu": cpu, "numCPU": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "memTotal": mem,
		"os": runtime.GOOS + "/" + runtime.GOARCH, "go": runtime.Version(),
		"workload": b.cfg.workload, "seed": b.cfg.seed, "seconds": b.cfg.seconds, "tuples": b.cfg.tuples,
		"trace": b.cfg.trace, "daemonFlags": daemonFlags[b.cfg.workload],
	}
	line, _ := json.Marshal(b.stamp)
	fmt.Fprintf(b.out, "# stamp %s\n", line)
}

// daemonFlags lists the flags each workload starts its daemons with,
// beyond -addr 127.0.0.1:0 and -data <dir>.
var daemonFlags = map[string][]string{
	"bulk_ingest":   {"dard"},
	"query_mix":     {"dard"},
	"cluster_mixed": {"dard (x2 workers)", "darc -workers <w1>,<w2> -shards 4 -replicate"},
}

func (b *bench) reportEndToEnd(out *outcome) {
	for _, s := range endToEnd {
		m := out.e2e[s.name]
		fmt.Fprintf(b.out, "e2e %-24s %14.6g %-9s n=%d %s\n", s.name, m.value, s.unit, m.n, m.note)
	}
}

func (b *bench) reportLayers(layers map[string]measured) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := layers[n]
		fmt.Fprintf(b.out, "layer %-44s %14.6g %-9s n=%d %s\n", n, m.value, m.unit, m.n, m.note)
	}
}

// elapsedS is seconds since t.
func elapsedS(t time.Time) float64 { return time.Since(t).Seconds() }
