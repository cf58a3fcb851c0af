package cftree

import (
	"testing"

	"repro/internal/cf"
)

// Steady-state inserts into an untracked tree must not allocate: the
// descent is iterative over reusable scratch, centroid distances come off
// cached rows, and merging a tuple into an existing entry writes the flat
// ACF backing in place. Only structural growth (new entries, splits,
// rebuilds) may allocate, and the warm-up below gets past it. Rows go in
// one at a time, as streaming ingest feeds them.
func TestInsertFlatSteadyStateZeroAllocs(t *testing.T) {
	shape := cf.Shape{1, 1, 1}
	tr := New(shape, 0, Config{Threshold: 5})
	rows := [][]float64{
		{10, 1, 2},
		{11, 2, 3},
		{12, 3, 4},
		{100, 4, 5},
		{101, 5, 6},
	}
	for _, r := range rows {
		tr.InsertFlatBatch(r, 1, len(r)) // warm-up: create the entries and scratch
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := rows[i%len(rows)]
		tr.InsertFlatBatch(r, 1, len(r))
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state single-row InsertFlatBatch allocates %v per run, want 0", allocs)
	}
}

// Tracked (nominal) trees intern their histogram keys, so merging a tuple
// carrying an already-seen value is allocation-free too: the interner's
// map lookup on the reused byte buffer does not allocate, and the
// increment hits an existing key. The budget is pinned at zero — any
// regression (a fresh EncodeNomKey string per tuple, an escaping buffer)
// fails this test.
func TestInsertFlatTrackedSteadyStateAllocBudget(t *testing.T) {
	shape := cf.Shape{1, 1}
	tr := New(shape, 0, Config{Threshold: 0, Track: []bool{true, true}})
	rows := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
	}
	for _, r := range rows {
		tr.InsertFlatBatch(r, 1, len(r)) // warm-up: one entry + one interned key per value
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := rows[i%len(rows)]
		tr.InsertFlatBatch(r, 1, len(r))
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state tracked InsertFlatBatch allocates %v per run, want 0", allocs)
	}
}
