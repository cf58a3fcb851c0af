package cftree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cf"
)

// batchRows generates n flat rows for the given shape: clustered values
// on the own group (so runs of same-cluster admissions occur) and noise
// on the rest.
func batchRows(rng *rand.Rand, shape cf.Shape, own, n int) []float64 {
	stride := shape.Dims()
	rows := make([]float64, n*stride)
	for i := 0; i < n; i++ {
		off := i * stride
		for g, d := range shape {
			for k := 0; k < d; k++ {
				if g == own {
					rows[off] = float64(rng.Intn(8))*50 + rng.NormFloat64()
				} else {
					rows[off] = rng.Float64() * 100
				}
				off++
			}
		}
	}
	return rows
}

// treesEqual compares every leaf ACF of two trees bit-for-bit, plus the
// stats that drive rebuild schedules and summaries.
func treesEqual(t *testing.T, serial, batch *Tree) {
	t.Helper()
	ls, lb := serial.Leaves(), batch.Leaves()
	if len(ls) != len(lb) {
		t.Fatalf("leaf counts differ: serial %d, batch %d", len(ls), len(lb))
	}
	for i := range ls {
		a, b := ls[i], lb[i]
		if a.N != b.N || !reflect.DeepEqual(a.LS, b.LS) || !reflect.DeepEqual(a.SS, b.SS) ||
			!reflect.DeepEqual(a.NomCounts, b.NomCounts) {
			t.Fatalf("leaf %d differs:\nserial %+v\nbatch  %+v", i, a, b)
		}
	}
	ss, sb := serial.Stats(), batch.Stats()
	if ss != sb {
		t.Fatalf("stats differ: serial %+v, batch %+v", ss, sb)
	}
}

// InsertFlatBatch must be bit-identical to the same rows through
// InsertFlat, across chunk sizes, memory-pressure rebuilds and tracked
// nominal trees — the deferred cross-group sums cannot be observable.
func TestInsertFlatBatchMatchesSerial(t *testing.T) {
	type tc struct {
		name  string
		shape cf.Shape
		own   int
		cfg   Config
	}
	cases := []tc{
		{"uniform", cf.Shape{1, 1, 1, 1}, 1, Config{Threshold: 5}},
		{"multidim", cf.Shape{2, 1, 3}, 2, Config{Threshold: 8}},
		{"memory-pressure", cf.Shape{1, 1, 1}, 0, Config{Threshold: 0.5, MemoryLimit: 8 << 10}},
		{"tracked-nominal", cf.Shape{1, 1}, 0, Config{Threshold: 0, Track: []bool{true, true}}},
	}
	for _, c := range cases {
		for _, chunk := range []int{1, 7, 64, 256} {
			t.Run(fmt.Sprintf("%s/chunk=%d", c.name, chunk), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17 + chunk)))
				stride := c.shape.Dims()
				n := 1500
				rows := batchRows(rng, c.shape, c.own, n)
				if c.cfg.Threshold == 0 {
					// Nominal regime: integral values so exact duplicates occur.
					for i := range rows {
						rows[i] = float64(int(rows[i]) % 10)
					}
				}
				serial := New(c.shape, c.own, c.cfg)
				batch := New(c.shape, c.own, c.cfg)
				for i := 0; i < n; i++ {
					serial.InsertFlat(rows[i*stride : (i+1)*stride])
				}
				for at := 0; at < n; at += chunk {
					end := at + chunk
					if end > n {
						end = n
					}
					batch.InsertFlatBatch(rows[at*stride:end*stride], end-at, stride)
				}
				treesEqual(t, serial, batch)
			})
		}
	}
}

// The memory-pressure case must actually rebuild, or the flush-before-
// rebuild path in InsertFlatBatch is untested.
func TestInsertFlatBatchRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shape := cf.Shape{1, 1, 1}
	stride := shape.Dims()
	rows := batchRows(rng, shape, 0, 1500)
	tr := New(shape, 0, Config{Threshold: 0.5, MemoryLimit: 8 << 10})
	tr.InsertFlatBatch(rows, 1500, stride)
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("workload caused no rebuilds; the flush-before-rebuild path is untested")
	}
}

// Steady-state batch inserts are allocation-free, like InsertFlat: the
// run bookkeeping is two locals and the deferred kernel writes in place.
func TestInsertFlatBatchSteadyStateZeroAllocs(t *testing.T) {
	shape := cf.Shape{1, 1, 1}
	stride := shape.Dims()
	tr := New(shape, 0, Config{Threshold: 5})
	rows := []float64{
		10, 1, 2,
		11, 2, 3,
		100, 4, 5,
		101, 5, 6,
	}
	tr.InsertFlatBatch(rows, 4, stride) // warm-up: create the entries
	allocs := testing.AllocsPerRun(200, func() {
		tr.InsertFlatBatch(rows, 4, stride)
	})
	if allocs != 0 {
		t.Errorf("steady-state InsertFlatBatch allocates %v per run, want 0", allocs)
	}
}
