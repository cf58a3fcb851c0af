package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a tiny size
// against dard and darc built from this tree, and checks the result:
// no failed or wrong operation, exactly the metrics of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/dard", "./cmd/darc")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	e2e, layers := benchmarkJSON(t)
	for _, w := range []string{"bulk_ingest", "query_mix", "cluster_mixed"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := defaultConfig(w)
				cfg.seed, cfg.seconds, cfg.trace = 3, 1, trace
				cfg.tuples, cfg.setups, cfg.restarts = 2000, 2, 1
				cfg.binDir, cfg.workDir = bin, t.TempDir()
				var out bytes.Buffer
				res, err := benchmark(context.Background(), cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Fatalf("failed=%d attempted=%d\n%s", res.Failed, res.Attempted, out.String())
				}
				want := e2e
				if trace {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
				}
			})
		}
	}
}

// benchmarkJSON reads the metric names and units BENCHMARK.json
// declares, and checks the benchmark's own lists agree with them.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	index := func(ms []struct{ Name, Unit string }, specs []spec) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		if len(specs) != len(out) {
			t.Errorf("benchmark reports %d metrics, BENCHMARK.json lists %d", len(specs), len(out))
		}
		for _, s := range specs {
			if out[s.name] != s.unit {
				t.Errorf("metric %s: unit %q here, %q in BENCHMARK.json", s.name, s.unit, out[s.name])
			}
		}
		return out
	}
	return index(doc.EndToEnd, endToEnd), index(doc.PerLayer, perLayer)
}
