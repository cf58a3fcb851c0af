// Benchmarks regenerating the paper's evaluation artifacts (one per
// figure/claim; see DESIGN.md's per-experiment index). The Figure 6
// series (BenchmarkPhaseI) is the headline result: Phase I wall time must
// grow linearly in the relation size. Run everything with
//
//	go test -bench=. -benchmem
//
// and the full paper-scale sweep with cmd/experiments.
package dar_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apriori"
	"repro/internal/cf"
	"repro/internal/cftree"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/counttree"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/qar"
	"repro/internal/refcluster"
	"repro/internal/relation"
)

// wbcdRelation caches generated workloads across benchmarks.
var wbcdCache = map[int]*relation.Relation{}

func wbcdRelation(b *testing.B, n int) *relation.Relation {
	b.Helper()
	if rel, ok := wbcdCache[n]; ok {
		return rel
	}
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = n
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wbcdCache[n] = rel
	return rel
}

func wbcdOptions() core.Options {
	opt := core.DefaultOptions()
	opt.DiameterThreshold = 2
	opt.FrequencyFraction = 0.03
	opt.MemoryLimit = 5 << 20
	opt.PostScan = false
	return opt
}

func mustMine(b *testing.B, rel *relation.Relation, opt core.Options) *core.Result {
	b.Helper()
	m, err := core.NewMiner(rel, relation.SingletonPartitioning(rel.Schema()), opt)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Mine()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkPhaseI is the Figure 6 series: Phase I time against relation
// size at a 5MB memory limit and 3% frequency threshold. ns/op divided by
// the tuple count must stay flat across sub-benchmarks (linear scaling);
// the tuples/s custom metric makes that visible directly. allocs/tuple
// and B/tuple are the normalized allocation metrics (the default B/op
// reports per-iteration totals, which only fall as n grows because the
// fixed mining-setup cost amortizes — per-tuple numbers are the ones
// that must stay flat AND near zero for the pooled ingest path).
func BenchmarkPhaseI(b *testing.B) {
	for _, n := range []int{100_000, 200_000, 300_000, 400_000, 500_000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			rel := wbcdRelation(b, n)
			opt := wbcdOptions()
			var ms0, ms1 runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.ReadMemStats(&ms0)
				b.StartTimer()
				res := mustMine(b, rel, opt)
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				b.ReportMetric(float64(n)/res.PhaseI.Duration.Seconds(), "tuples/s")
				b.ReportMetric(float64(res.PhaseI.ClustersFound), "ACFs")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "allocs/tuple")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), "B/tuple")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkScalingPhaseI is the multi-core scaling series: the full
// mining pipeline on the largest Figure 6 workload with the worker count
// following GOMAXPROCS. benchjson runs it under -cpu 1,2,4,8 and derives
// the report's scaling section (speedup and per-core efficiency against
// the 1-proc point) from the tuples/s series. On a single-core box the
// series still runs — it then measures pipeline overhead, and the
// hardware-aware compare gate treats efficiency accordingly.
func BenchmarkScalingPhaseI(b *testing.B) {
	const n = 500_000
	rel := wbcdRelation(b, n)
	opt := wbcdOptions()
	opt.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustMine(b, rel, opt)
		b.ReportMetric(float64(n)/res.PhaseI.Duration.Seconds(), "tuples/s")
	}
}

// BenchmarkPhaseII isolates the rule-formation phase (§7.2: "the time to
// identify cliques was roughly constant"): graph + cliques + rules over
// the frequent-cluster summaries, reported per mining run. The workers
// series contrasts the serial path with the parallel fan-out over graph
// rows, clique roots and clique pairs — the rule set is bit-identical
// at every worker count (asserted by TestParallelPhaseIIMatchesSerial),
// so phase2-ns is the only number that should move, and only on
// multi-core hardware.
func BenchmarkPhaseII(b *testing.B) {
	for _, n := range []int{100_000, 300_000} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("tuples=%d/workers=%d", n, workers), func(b *testing.B) {
				rel := wbcdRelation(b, n)
				opt := wbcdOptions()
				opt.Workers = workers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := mustMine(b, rel, opt)
					b.ReportMetric(float64(res.PhaseII.Duration.Nanoseconds()), "phase2-ns")
					b.ReportMetric(float64(res.PhaseII.CliqueDuration.Nanoseconds()), "clique-ns")
					b.ReportMetric(float64(res.PhaseII.NonTrivialCliques), "cliques")
				}
			})
		}
	}
}

// BenchmarkPhaseIIPruning is the §6.2 ablation (E8): identical rule sets,
// far fewer cluster-pair comparisons with the reduction on.
func BenchmarkPhaseIIPruning(b *testing.B) {
	for _, prune := range []bool{true, false} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			rel := wbcdRelation(b, 100_000)
			opt := wbcdOptions()
			opt.PruneImages = prune
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustMine(b, rel, opt)
				b.ReportMetric(float64(res.PhaseII.Comparisons), "comparisons")
			}
		})
	}
}

// BenchmarkAdaptiveMemory is the adaptivity ablation (E9): tighter
// Phase I budgets trade cluster precision for threshold-raising rebuilds.
func BenchmarkAdaptiveMemory(b *testing.B) {
	for _, budget := range []int{512 << 10, 1 << 20, 5 << 20} {
		b.Run(fmt.Sprintf("budget=%dKB", budget>>10), func(b *testing.B) {
			rel := wbcdRelation(b, 100_000)
			opt := wbcdOptions()
			opt.MemoryLimit = budget
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustMine(b, rel, opt)
				b.ReportMetric(float64(res.PhaseI.Rebuilds), "rebuilds")
				b.ReportMetric(float64(res.PhaseI.ClustersFound), "ACFs")
			}
		})
	}
}

// BenchmarkFig1Partitioning regenerates the Figure 1 contrast (E1).
func BenchmarkFig1Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Interest regenerates the Figure 2 contrast (E2).
func BenchmarkFig2Interest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Degrees regenerates the Figure 4 contrast (E3).
func BenchmarkFig4Degrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem5 regenerates the Theorem 5.1/5.2 verification (E4).
func BenchmarkTheorem5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunThm5(20, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Thm51Violations != 0 || res.Thm52MaxError > 1e-12 {
			b.Fatalf("theorem violation: %+v", res)
		}
	}
}

// BenchmarkInsurance regenerates the §5.2 N:1 scenario (E11).
func BenchmarkInsurance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunInsurance(10_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQARBaseline runs the generalized-QAR miner (Dfn 4.4) on the
// Figure 6 workload for comparison with the DAR miner.
func BenchmarkQARBaseline(b *testing.B) {
	rel := wbcdRelation(b, 100_000)
	opt := wbcdOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewQARMiner(rel, relation.SingletonPartitioning(rel.Schema()), opt, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Mine(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSA96Baseline runs the equi-depth baseline on the insurance
// workload.
func BenchmarkSA96Baseline(b *testing.B) {
	rel, err := datagen.Insurance(datagen.InsuranceConfig{N: 10_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qar.Mine(rel, qar.Options{Partitions: 10, MinSupport: 0.05, MinConfidence: 0.6, MaxLen: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkCFTreeInsert measures the Phase I inner loop: one tuple into
// one ACF-tree.
func BenchmarkCFTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := cftree.New(cf.Shape{1, 1}, 0, cftree.Config{Threshold: 2})
	proj := [][]float64{{0}, {0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj[0][0] = float64(rng.Intn(35))*10 + rng.NormFloat64()*0.5
		proj[1][0] = proj[0][0] * 2
		tr.Insert(proj)
	}
}

// BenchmarkApriori measures the classical substrate on a dense
// transaction set.
func BenchmarkApriori(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	txns := make([][]int, 5000)
	for i := range txns {
		var txn []int
		for it := 0; it < 20; it++ {
			if rng.Float64() < 0.3 {
				txn = append(txn, it)
			}
		}
		txns[i] = txn
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apriori.FrequentItemsets(txns, apriori.Options{MinSupport: 250, MaxLen: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCliqueEnumeration measures Bron–Kerbosch on a sparse graph of
// the clustering-graph shape (edges ≈ nodes).
func BenchmarkCliqueEnumeration(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New(1000)
	for i := 0; i < 1100; i++ {
		g.AddEdge(rng.Intn(1000), rng.Intn(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaximalCliques()
	}
}

// BenchmarkRefine measures the E12 global refinement pass. "tree" is
// one tree's worth of fragmented leaf clusters (40 leaves, refined to
// 35). "shards" concatenates the leaves of four trees built over
// disjoint quarters of the same stream, the regime of a multi-shard
// summary merge: each shard keeps its own fragments of every natural
// cluster, so about 90 leaves refine to 20.
func BenchmarkRefine(b *testing.B) {
	leavesOf := func(seed int64, trees, clusters, points int) []*cf.ACF {
		rng := rand.New(rand.NewSource(seed))
		proj := [][]float64{{0}, {0}}
		var leaves []*cf.ACF
		for t := 0; t < trees; t++ {
			tr := cftree.New(cf.Shape{1, 1}, 0, cftree.Config{Threshold: 2})
			for i := 0; i < points; i++ {
				proj[0][0] = float64(rng.Intn(clusters))*10 + rng.NormFloat64()*0.5
				proj[1][0] = proj[0][0]
				tr.Insert(proj)
			}
			leaves = append(leaves, tr.Leaves()...)
		}
		return leaves
	}
	for _, bc := range []struct {
		name   string
		leaves []*cf.ACF
	}{
		{"tree", leavesOf(4, 1, 35, 20000)},
		{"shards", leavesOf(4, 4, 20, 5000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(bc.leaves)), "leaves")
			b.ReportMetric(float64(len(cftree.Refine(bc.leaves, 2))), "refined")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cftree.Refine(bc.leaves, 2)
			}
		})
	}
}

// BenchmarkParallelPhaseI contrasts the serial single scan with
// group-parallel Phase I (E5 workload at 100K tuples).
func BenchmarkParallelPhaseI(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rel := wbcdRelation(b, 100_000)
			opt := wbcdOptions()
			opt.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustMine(b, rel, opt)
			}
		})
	}
}

// BenchmarkCountTree measures the Figure 3 substrate: adaptive 1-itemset
// counting under a budget.
func BenchmarkCountTree(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 100_000)
	for i := range values {
		values[i] = float64(rng.Intn(10_000))
	}
	for _, budget := range []int{0, 64} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := counttree.New(counttree.Config{MaxEntries: budget})
				for _, v := range values {
					tr.Add(v)
				}
			}
		})
	}
}

// BenchmarkClassicalMiner measures the E14 adaptive classical miner.
func BenchmarkClassicalMiner(b *testing.B) {
	rel, err := datagen.Insurance(datagen.InsuranceConfig{N: 20_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classical.Mine(rel, classical.Options{
			MaxEntriesPerAttr: 64,
			MinSupport:        0.05,
			MinConfidence:     0.5,
			MaxLen:            3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeans measures the E13 reference clusterer.
func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := make([][]float64, 10_000)
	for i := range pts {
		pts[i] = []float64{float64(rng.Intn(35))*10 + rng.NormFloat64()*0.5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refcluster.KMeans(pts, 35, 50, 1); err != nil {
			b.Fatal(err)
		}
	}
}
