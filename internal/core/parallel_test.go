package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/summary"
)

// Parallel Phase I must be bit-identical to the serial single scan:
// trees are independent and each sees tuples in storage order either way.
func TestParallelPhaseIMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	for i := 0; i < 3000; i++ {
		base := float64(rng.Intn(10)) * 50
		rel.MustAppend([]float64{
			base + rng.NormFloat64(),
			base*2 + rng.NormFloat64(),
			float64(rng.Intn(5))*100 + rng.NormFloat64(),
			rng.Float64() * 1000,
		})
	}
	part := relation.SingletonPartitioning(schema)

	run := func(workers int) *Result {
		o := DefaultOptions()
		o.DiameterThreshold = 5
		o.FrequencyFraction = 0.02
		o.Workers = workers
		m, err := NewMiner(rel, part, o)
		if err != nil {
			t.Fatalf("NewMiner: %v", err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatalf("Mine(workers=%d): %v", workers, err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)

	if len(serial.Clusters) != len(parallel.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(serial.Clusters), len(parallel.Clusters))
	}
	for i := range serial.Clusters {
		a, b := serial.Clusters[i], parallel.Clusters[i]
		if a.Group != b.Group || a.N() != b.N() || !reflect.DeepEqual(a.Centroid(), b.Centroid()) {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(serial.Rules) != len(parallel.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(serial.Rules), len(parallel.Rules))
	}
	for i := range serial.Rules {
		a, b := serial.Rules[i], parallel.Rules[i]
		if a.Degree != b.Degree || a.Support != b.Support ||
			!intsEqual(a.Antecedent, b.Antecedent) || !intsEqual(a.Consequent, b.Consequent) {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestParallelPhaseIIMatchesSerial is the differential determinism test
// for the parallel rule-formation phase: identical relations mined at
// Workers ∈ {1, 2, 4, 8} across several seeds must produce bit-identical
// DAR output — every rule's cluster sets, degree, support and position,
// plus the Phase II counters the parallel merge reassembles.
func TestParallelPhaseIIMatchesSerial(t *testing.T) {
	for _, seed := range []int64{7, 19, 83} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := relation.MustSchema(
				relation.Attribute{Name: "Job", Kind: relation.Nominal},
				relation.Attribute{Name: "a", Kind: relation.Interval},
				relation.Attribute{Name: "b", Kind: relation.Interval},
				relation.Attribute{Name: "c", Kind: relation.Interval},
				relation.Attribute{Name: "noise", Kind: relation.Interval},
			)
			rel := relation.NewRelation(schema)
			dict := schema.Attr(0).Dict
			jobs := []string{"DBA", "Mgr", "Dev"}
			for i := 0; i < 2500; i++ {
				job := rng.Intn(len(jobs))
				band := float64(rng.Intn(6))
				rel.MustAppend([]float64{
					dict.Code(jobs[job]),
					band*40 + rng.NormFloat64(),
					band*80 + 7 + rng.NormFloat64(),
					float64(job)*50 + rng.NormFloat64(),
					rng.Float64() * 1000,
				})
			}
			part := relation.SingletonPartitioning(schema)

			run := func(workers int) *Result {
				o := DefaultOptions()
				o.DiameterThreshold = 5
				o.FrequencyFraction = 0.02
				o.DegreeFactor = 2.5
				o.Workers = workers
				m, err := NewMiner(rel, part, o)
				if err != nil {
					t.Fatalf("NewMiner: %v", err)
				}
				res, err := m.Mine()
				if err != nil {
					t.Fatalf("Mine(workers=%d): %v", workers, err)
				}
				return res
			}

			serial := run(1)
			if serial.PhaseII.Workers != 1 {
				t.Errorf("serial PhaseII.Workers = %d, want 1", serial.PhaseII.Workers)
			}
			if len(serial.Rules) == 0 {
				t.Fatal("workload produced no rules; the comparison is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				par := run(workers)
				if !reflect.DeepEqual(serial.Rules, par.Rules) {
					t.Fatalf("workers=%d: rule output diverged from serial\nserial: %+v\nparallel: %+v",
						workers, serial.Rules, par.Rules)
				}
				if !reflect.DeepEqual(serial.Clusters, par.Clusters) {
					t.Fatalf("workers=%d: clusters diverged from serial", workers)
				}
				s, p := serial.PhaseII, par.PhaseII
				if s.GraphNodes != p.GraphNodes || s.GraphEdges != p.GraphEdges ||
					s.Cliques != p.Cliques || s.NonTrivialCliques != p.NonTrivialCliques ||
					s.Comparisons != p.Comparisons || s.Pruned != p.Pruned {
					t.Fatalf("workers=%d: Phase II stats diverged: serial %+v, parallel %+v", workers, s, p)
				}
			}
		})
	}
}

func TestWorkersValidation(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	o := DefaultOptions()
	o.Workers = -1
	if _, err := NewMiner(rel, relation.SingletonPartitioning(rel.Schema()), o); err == nil {
		t.Error("negative Workers accepted")
	}
}

// TestLanesMatchSerial is the byte differential for the Phase I lane
// pipeline: identical relations ingested at Workers ∈ {2, 3, 4, 6, 8}
// must encode to the same summary bytes as the one-lane scan. Workers = w
// runs min(w, G) lanes over G attribute groups, the caller being lane 0.
// The seeded relations have 5 groups, so Workers=2 splits the trees 3+2,
// 3 splits them 2+2+1 and 4 splits them 2+1+1+1, while 6 and 8 give
// every tree a lane of its own, 8 with workers to spare. The others are
// the pipeline's edge shapes: one group, where the caller is the only
// lane at every Workers value; no tuples, where no batch is flushed;
// fewer tuples than one batch, where the only flush is the partial one
// after the scan; and an exact multiple of batchTuples, where none is
// partial. Lane assignment only chooses WHERE a tree's inserts run,
// never what they are.
func TestLanesMatchSerial(t *testing.T) {
	type laneCase struct {
		name string
		rel  *relation.Relation
	}
	var cases []laneCase
	for _, seed := range []int64{5, 23, 61} {
		cases = append(cases, laneCase{fmt.Sprintf("seed=%d", seed), fiveGroupRelation(seed)})
	}
	cases = append(cases,
		laneCase{"one-group", laneTestRelation(1, 3*batchTuples+17)},
		laneCase{"empty", laneTestRelation(4, 0)},
		laneCase{"short", laneTestRelation(4, batchTuples-1)},
		laneCase{"exact-batches", laneTestRelation(4, 4*batchTuples)},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := laneSummaryBytes(t, tc.rel, 1)
			for _, workers := range []int{2, 3, 4, 6, 8} {
				if got := laneSummaryBytes(t, tc.rel, workers); !bytes.Equal(want, got) {
					t.Fatalf("workers=%d: summary bytes diverged from the one-lane scan", workers)
				}
			}
		})
	}
}

// laneSummaryBytes ingests rel over singleton groups at the given worker
// count and returns the encoded summary.
func laneSummaryBytes(t *testing.T, rel *relation.Relation, workers int) []byte {
	t.Helper()
	o := DefaultOptions()
	o.DiameterThreshold = 5
	o.FrequencyFraction = 0.02
	o.Workers = workers
	s, err := Ingest(rel, relation.SingletonPartitioning(rel.Schema()), o)
	if err != nil {
		t.Fatalf("Ingest(workers=%d): %v", workers, err)
	}
	if s.Tuples != int64(rel.Len()) {
		t.Fatalf("Ingest(workers=%d) counted %d tuples, want %d", workers, s.Tuples, rel.Len())
	}
	data, err := summary.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// fiveGroupRelation is a nominal attribute and four interval ones, two
// of them banded together, one tied to a coarse grid and one uniform.
func fiveGroupRelation(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	dict := schema.Attr(0).Dict
	jobs := []string{"DBA", "Mgr", "Dev", "Ops"}
	for i := 0; i < 4000; i++ {
		band := float64(rng.Intn(7))
		rel.MustAppend([]float64{
			dict.Code(jobs[rng.Intn(len(jobs))]),
			band*40 + rng.NormFloat64(),
			band*80 + 7 + rng.NormFloat64(),
			float64(rng.Intn(4))*50 + rng.NormFloat64(),
			rng.Float64() * 1000,
		})
	}
	return rel
}

// laneTestRelation returns tuples rows of attrs interval attributes,
// banded so that every attribute group's tree holds several clusters.
func laneTestRelation(attrs, tuples int) *relation.Relation {
	rng := rand.New(rand.NewSource(int64(attrs*1000 + tuples)))
	schemaAttrs := make([]relation.Attribute, attrs)
	for a := range schemaAttrs {
		schemaAttrs[a] = relation.Attribute{Name: fmt.Sprintf("a%d", a), Kind: relation.Interval}
	}
	rel := relation.NewRelation(relation.MustSchema(schemaAttrs...))
	for i := 0; i < tuples; i++ {
		band := float64(rng.Intn(6))
		tuple := make([]float64, attrs)
		for a := range tuple {
			tuple[a] = band*float64(40*(a+1)) + rng.NormFloat64()
		}
		rel.MustAppend(tuple)
	}
	return rel
}

// goroutineProbe is a relation.Source that records, at the start of its
// scan, how many goroutines run beyond a baseline taken before Ingest.
// The pipeline starts its lanes before it scans, so that difference is
// the number of goroutines the ingest spawned.
type goroutineProbe struct {
	*relation.Relation
	baseline, spawned int
}

func (p *goroutineProbe) Scan(fn func(i int, tuple []float64) error) error {
	p.spawned = runtime.NumGoroutine() - p.baseline
	return p.Relation.Scan(fn)
}

// settledGoroutines returns the goroutine count once it has held still
// for five milliseconds. A lane of an earlier ingest has returned from
// wg.Done but may not have exited yet; counted in a baseline, it would
// make the next ingest seem to spawn one goroutine fewer.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && still < 5; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestLaneGoroutines pins the lane derivation: Workers = w runs
// min(w, G) insert lanes over G attribute groups, and the caller is one
// of them, so the ingest spawns exactly min(w, G) − 1 goroutines and
// none at all with one lane. dard clamps ?workers= to GOMAXPROCS on the
// strength of this bound: an ingest never runs more goroutines than the
// machine has cores.
func TestLaneGoroutines(t *testing.T) {
	for _, groups := range []int{1, 5} {
		rel := laneTestRelation(groups, 2*batchTuples)
		part := relation.SingletonPartitioning(rel.Schema())
		for _, workers := range []int{0, 1, 2, 3, 5, 8} {
			o := DefaultOptions()
			o.DiameterThreshold = 5
			o.Workers = workers
			probe := &goroutineProbe{Relation: rel, baseline: settledGoroutines()}
			if _, err := Ingest(probe, part, o); err != nil {
				t.Fatalf("groups=%d workers=%d: %v", groups, workers, err)
			}
			if want := clampWorkers(workers, groups) - 1; probe.spawned != want {
				t.Errorf("groups=%d workers=%d: ingest spawned %d goroutines, want %d", groups, workers, probe.spawned, want)
			}
		}
	}
}

func TestStripeAssignment(t *testing.T) {
	got := stripeAssignment(5, 2)
	want := [][]int{{0, 2, 4}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stripeAssignment(5, 2) = %v, want %v", got, want)
	}
}

// TestPipelineSteadyStateAllocs pins the recycled-batch design: once the
// pool and lane goroutines exist, flushing more batches through the
// pipeline allocates nothing, with one lane (the caller alone) or
// several. Each addSource call pays a fixed setup cost (goroutines,
// channels, the batch pool), so the test measures the MARGINAL
// allocations between a 16-batch and a 64-batch ingest of the same
// repeated tuples — 48 extra batches must cost 0 allocations.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
		relation.Attribute{Name: "e", Kind: relation.Interval},
		relation.Attribute{Name: "f", Kind: relation.Interval},
	)
	mkRel := func(batches int) *relation.Relation {
		rel := relation.NewRelation(schema)
		for i := 0; i < batches*batchTuples; i++ {
			v := float64(i%8) * 100
			rel.MustAppend([]float64{v, v + 1, v + 2, v + 3, v + 4, v + 5})
		}
		return rel
	}
	rel16, rel64 := mkRel(16), mkRel(64)
	part := relation.SingletonPartitioning(schema)
	for _, workers := range []int{1, 4} {
		o := DefaultOptions()
		o.DiameterThreshold = 5
		o.Workers = workers

		ing := newIngester(part, o, rel64.Len())
		// Warm-up creates every cluster entry the repeated tuples ever need.
		if err := ing.addSource(rel16); err != nil {
			t.Fatal(err)
		}
		measure := func(rel *relation.Relation) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := ing.addSource(rel); err != nil {
					t.Fatal(err)
				}
			})
		}
		a16 := measure(rel16)
		a64 := measure(rel64)
		if delta := a64 - a16; delta > 0 {
			t.Errorf("workers=%d: 48 extra batches cost %.1f allocations (16-batch ingest: %.1f, 64-batch: %.1f); steady state must be 0-alloc",
				workers, delta, a16, a64)
		}
	}
}
