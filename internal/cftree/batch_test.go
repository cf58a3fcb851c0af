package cftree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cf"
	"repro/internal/distance"
)

// insertReference is the per-tuple reference InsertFlatBatch is checked
// against. insertTop places the row and folds its own group (N, LS[Own],
// SS[Own], histograms); the row's cross-group sums are then added cell by
// cell into the entry it landed in, before the budget check may rebuild.
// It shares none of the batch kernel's run bookkeeping and does not use
// cf.ACF.AddRows, so a deferred sum the kernel drops or misplaces shows.
func insertReference(t *Tree, row []float64) {
	p := row[t.ownOff : t.ownOff+t.dims]
	var ss float64
	for _, v := range p {
		ss += v * v
	}
	t.insertTop(&payload{row: row, p: p, own: distance.Summary{N: 1, LS: p, SS: ss}})
	if t.err != nil {
		return
	}
	t.seen++
	e := t.lastEntry
	t.lastEntry = nil
	for g, d := range t.shape {
		if g == t.own {
			continue
		}
		for i, v := range row[t.offs[g] : t.offs[g]+d] {
			e.LS[g][i] += v
			e.SS[g] += v * v
		}
	}
	t.enforceMemory()
}

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
func treesEqual(t testing.TB, serial, batch *Tree) {
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
// insertReference, across chunk sizes, memory-pressure rebuilds and
// tracked nominal trees — the deferred cross-group sums cannot be
// observable.
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
					insertReference(serial, rows[i*stride:(i+1)*stride])
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

// Steady-state batch inserts are allocation-free, like single rows: the
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

// FuzzInsertFlatBatch draws a tree — up to 4 groups of up to 3 dims, the
// owning group, a threshold, an optional memory budget (which forces
// rebuilds), tracked groups — plus integral or real rows and a chunk
// size, and checks that InsertFlatBatch leaves every leaf (N, LS, SS,
// histograms) and the tree's Stats bit-identical to insertReference.
func FuzzInsertFlatBatch(f *testing.F) {
	// dims packs the shape: bits 0–1 the group count less one, then two
	// bits per group for its dims less one (mod 3).
	f.Add(int64(1), uint16(0b01_00_00_00_11), uint8(1), uint8(10), uint8(0), uint8(0), false, uint8(7))
	f.Add(int64(2), uint16(0b00_01_10), uint8(1), uint8(1), uint8(2), uint8(0), false, uint8(64))
	f.Add(int64(3), uint16(0b00_00_00_10), uint8(0), uint8(1), uint8(1), uint8(0), false, uint8(1))
	f.Add(int64(4), uint16(0b10_01_00_01), uint8(1), uint8(0), uint8(0), uint8(3), true, uint8(13))
	f.Add(int64(5), uint16(0b00_00_00_10), uint8(2), uint8(0), uint8(3), uint8(5), true, uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, dims uint16, own, thr, budget, track uint8, integral bool, chunk uint8) {
		shape := make(cf.Shape, int(dims&3)+1)
		for g := range shape {
			shape[g] = int(dims>>(2+2*g)&3)%3 + 1
		}
		cfg := Config{Threshold: float64(thr%32) / 4}
		if budget%4 != 0 {
			cfg.MemoryLimit = int(budget%16+2) << 10
		}
		if track != 0 {
			cfg.Track = make([]bool, len(shape))
			for g := range shape {
				cfg.Track[g] = track>>g&1 == 1
			}
		}
		o := int(own) % len(shape)
		stride := shape.Dims()
		rng := rand.New(rand.NewSource(seed))
		n := 600
		rows := batchRows(rng, shape, o, n)
		if integral {
			for i := range rows {
				rows[i] = float64(int(rows[i]) % 10)
			}
		}
		ref, batch := New(shape, o, cfg), New(shape, o, cfg)
		for i := 0; i < n; i++ {
			insertReference(ref, rows[i*stride:(i+1)*stride])
		}
		step := int(chunk)%80 + 1
		for at := 0; at < n; at += step {
			end := min(at+step, n)
			batch.InsertFlatBatch(rows[at*stride:end*stride], end-at, stride)
		}
		treesEqual(t, ref, batch)
	})
}
