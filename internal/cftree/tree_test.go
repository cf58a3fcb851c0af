package cftree

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cf"
)

// proj1d wraps scalar values into single-group projections for a shape of
// one 1-dimensional group.
func proj1d(v float64) [][]float64 { return [][]float64{{v}} }

// twoGroupProj builds projections for shape {1, 1}: group 0 owns x, group 1
// carries y (the associated attribute).
func twoGroupProj(x, y float64) [][]float64 { return [][]float64{{x}, {y}} }

// insertProj adds one tuple given as per-group projections: a batch of
// one through the insert kernel, as streaming ingest feeds a tree.
func insertProj(tr *Tree, proj [][]float64) {
	var row []float64
	for _, p := range proj {
		row = append(row, p...)
	}
	tr.InsertFlatBatch(row, 1, len(row))
}

func totalN(acfs []*cf.ACF) int64 {
	var n int64
	for _, a := range acfs {
		n += a.N
	}
	return n
}

func TestInsertMergesWithinThreshold(t *testing.T) {
	tr := New(cf.Shape{1}, 0, Config{Threshold: 5})
	for _, v := range []float64{10, 11, 12, 100, 101, 102} {
		insertProj(tr, proj1d(v))
	}
	leaves := tr.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("got %d clusters, want 2: %+v", len(leaves), leaves)
	}
	if totalN(leaves) != 6 {
		t.Errorf("total N = %d, want 6", totalN(leaves))
	}
	for _, a := range leaves {
		c := a.Centroid()[0]
		if !(math.Abs(c-11) < 0.5 || math.Abs(c-101) < 0.5) {
			t.Errorf("unexpected centroid %v", c)
		}
	}
}

func TestZeroThresholdSeparatesDistinctValues(t *testing.T) {
	// Theorem 5.1 regime: with threshold 0 only identical values share a
	// cluster.
	tr := New(cf.Shape{1}, 0, Config{})
	values := []float64{1, 2, 1, 3, 2, 1}
	for _, v := range values {
		insertProj(tr, proj1d(v))
	}
	leaves := tr.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("got %d clusters, want 3", len(leaves))
	}
	counts := map[float64]int64{}
	for _, a := range leaves {
		if d := a.Diameter(); d != 0 {
			t.Errorf("cluster diameter = %v, want 0", d)
		}
		counts[a.Centroid()[0]] = a.N
	}
	if counts[1] != 3 || counts[2] != 2 || counts[3] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestTreeGrowsAndStaysConsistent(t *testing.T) {
	// Many distinct values with tiny leaf capacity force repeated splits;
	// the root summary must still account for every point.
	tr := New(cf.Shape{1}, 0, Config{Branching: 3, LeafCapacity: 2})
	n := 200
	var wantLS float64
	for i := 0; i < n; i++ {
		v := float64(i)
		wantLS += v
		insertProj(tr, proj1d(v))
	}
	st := tr.Stats()
	if st.Entries != n {
		t.Errorf("Entries = %d, want %d", st.Entries, n)
	}
	if st.Depth < 3 {
		t.Errorf("Depth = %d, expected a grown tree", st.Depth)
	}
	if tr.root.summary.N != int64(n) {
		t.Errorf("root N = %d, want %d", tr.root.summary.N, n)
	}
	if math.Abs(tr.root.summary.LS[0]-wantLS) > 1e-6 {
		t.Errorf("root LS = %v, want %v", tr.root.summary.LS[0], wantLS)
	}
	if got := totalN(tr.Leaves()); got != int64(n) {
		t.Errorf("leaf total N = %d, want %d", got, n)
	}
	if st.TuplesSeen != int64(n) {
		t.Errorf("TuplesSeen = %d", st.TuplesSeen)
	}
}

func TestInsertPanicsOnWrongShape(t *testing.T) {
	tr := New(cf.Shape{1, 1}, 0, Config{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on a row stride that does not match the shape")
		}
	}()
	tr.InsertFlatBatch([]float64{1}, 1, 1)
}

func TestNewPanicsOnBadOwn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad own index")
		}
	}()
	New(cf.Shape{1}, 1, Config{})
}

func TestMemoryLimitForcesRebuilds(t *testing.T) {
	// A tight budget over widely spread data must trigger threshold raises
	// and keep the tree within budget.
	limit := 8 << 10
	tr := New(cf.Shape{1}, 0, Config{Threshold: 0.5, MemoryLimit: limit})
	rng := rand.New(rand.NewSource(42))
	n := 5000
	for i := 0; i < n; i++ {
		insertProj(tr, proj1d(rng.Float64()*1e6))
	}
	st := tr.Stats()
	if st.Rebuilds == 0 {
		t.Fatal("expected at least one rebuild")
	}
	if st.Bytes > limit {
		t.Errorf("Bytes = %d exceeds limit %d", st.Bytes, limit)
	}
	if st.Threshold <= 0.5 {
		t.Errorf("Threshold = %v, want > initial 0.5", st.Threshold)
	}
	if got := totalN(tr.Leaves()); got != int64(n) {
		t.Errorf("leaf total N = %d, want %d (points lost in rebuild)", got, n)
	}
}

func TestRebuildPreservesACFProjections(t *testing.T) {
	// The associated-group sums must survive rebuilds: total LS on group 1
	// across leaves equals the sum of inserted y values.
	tr := New(cf.Shape{1, 1}, 0, Config{Threshold: 1, MemoryLimit: 4 << 10})
	rng := rand.New(rand.NewSource(7))
	var wantY float64
	for i := 0; i < 3000; i++ {
		x := rng.Float64() * 1e5
		y := x*2 + 10
		wantY += y
		insertProj(tr, twoGroupProj(x, y))
	}
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("test needs rebuilds to be meaningful")
	}
	var gotY float64
	for _, a := range tr.Leaves() {
		gotY += a.LS[1][0]
	}
	if math.Abs(gotY-wantY) > 1e-3*math.Abs(wantY) {
		t.Errorf("sum of group-1 LS = %v, want %v", gotY, wantY)
	}
}

func TestOutlierPagingAndFinish(t *testing.T) {
	// Two dense clusters plus isolated stragglers; a tight memory limit
	// forces rebuilds that page the stragglers out. Finish must re-absorb
	// them so no tuple is lost.
	store := NewMemoryOutlierStore()
	tr := New(cf.Shape{1}, 0, Config{
		Threshold:   1,
		MemoryLimit: 3 << 10,
		OutlierN:    5,
		Outliers:    store,
	})
	rng := rand.New(rand.NewSource(9))
	n := 0
	for i := 0; i < 1000; i++ {
		insertProj(tr, proj1d(100+rng.Float64()))
		insertProj(tr, proj1d(500+rng.Float64()))
		n += 2
	}
	for i := 0; i < 50; i++ {
		insertProj(tr, proj1d(rng.Float64()*1e7))
		n++
	}
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("test needs rebuilds to page outliers")
	}
	leaves, err := tr.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Absorbing the outliers can overflow the budget again and page some
	// back out; Finish returns those too, so its result alone accounts
	// for every tuple and the store is left empty.
	if got := totalN(leaves); got != int64(n) {
		t.Errorf("Finish accounts for N = %d, want %d", got, n)
	}
	if store.Len() != 0 {
		t.Errorf("%d clusters left in the outlier store after Finish", store.Len())
	}
}

func TestNearestCluster(t *testing.T) {
	tr := New(cf.Shape{1}, 0, Config{Threshold: 2})
	for _, v := range []float64{10, 10.5, 11, 50, 50.5, 51, 90, 91} {
		insertProj(tr, proj1d(v))
	}
	for _, c := range []struct{ q, want float64 }{
		{10.2, 10.5}, {49, 50.5}, {93, 90.5},
	} {
		a, d := tr.NearestCluster([]float64{c.q})
		if a == nil {
			t.Fatalf("NearestCluster(%v) = nil", c.q)
		}
		if got := a.Centroid()[0]; math.Abs(got-c.want) > 1 {
			t.Errorf("NearestCluster(%v) centroid = %v, want ≈%v", c.q, got, c.want)
		}
		if d < 0 {
			t.Errorf("negative distance %v", d)
		}
	}
}

func TestNearestClusterEmptyTree(t *testing.T) {
	tr := New(cf.Shape{1}, 0, Config{})
	if a, _ := tr.NearestCluster([]float64{1}); a != nil {
		t.Errorf("empty tree returned %+v", a)
	}
}

func TestFinishWithoutOutliers(t *testing.T) {
	tr := New(cf.Shape{1}, 0, Config{Threshold: 1})
	insertProj(tr, proj1d(1))
	leaves, err := tr.Finish()
	if err != nil || len(leaves) != 1 {
		t.Errorf("Finish = %v, %v", leaves, err)
	}
}

// Conservation property: for any insert sequence and any (small) memory
// limit, the clusters Finish returns hold every insert — their N sums to
// the number of inserts and per-group LS totals are preserved — and no
// cluster is left behind in the outlier store.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, limKB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := (int(limKB)%16 + 2) << 10
		store := NewMemoryOutlierStore()
		tr := New(cf.Shape{1, 1}, 0, Config{
			Threshold:   0.1,
			MemoryLimit: limit,
			OutlierN:    3,
			Outliers:    store,
		})
		n := rng.Intn(2000) + 100
		var sumX, sumY float64
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 1000
			y := rng.NormFloat64() * 5
			sumX += x
			sumY += y
			insertProj(tr, twoGroupProj(x, y))
		}
		all, err := tr.Finish()
		if err != nil || store.Len() != 0 || totalN(all) != int64(n) {
			return false
		}
		var gotX, gotY float64
		for _, a := range all {
			gotX += a.LS[0][0]
			gotY += a.LS[1][0]
		}
		scale := math.Abs(sumX) + math.Abs(sumY) + 1
		return math.Abs(gotX-sumX) < 1e-6*scale && math.Abs(gotY-sumY) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The number of leaf clusters never exceeds the number of inserted points,
// and with a generous threshold it collapses to few clusters.
func TestThresholdControlsGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 500)
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	fine := New(cf.Shape{1}, 0, Config{Threshold: 0.1})
	coarse := New(cf.Shape{1}, 0, Config{Threshold: 50})
	for _, v := range values {
		insertProj(fine, proj1d(v))
		insertProj(coarse, proj1d(v))
	}
	nf, nc := len(fine.Leaves()), len(coarse.Leaves())
	if nf <= nc {
		t.Errorf("fine threshold produced %d clusters, coarse %d; want fine > coarse", nf, nc)
	}
	if nc > 25 {
		t.Errorf("coarse clustering produced %d clusters, expected few", nc)
	}
}

func TestStatsSnapshot(t *testing.T) {
	tr := New(cf.Shape{2, 1}, 0, Config{Threshold: 1})
	insertProj(tr, [][]float64{{1, 2}, {3}})
	st := tr.Stats()
	if st.Entries != 1 || st.Nodes != 1 || st.Depth != 1 || st.TuplesSeen != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Threshold != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if tr.Own() != 0 {
		t.Errorf("Own = %d", tr.Own())
	}
}

// A descent that finds every child centroid +Inf or NaN away (the sums
// overflowed) stops the tree with ErrOverflow instead of indexing child
// -1, and Finish reports it.
func TestInsertOverflowStopsTree(t *testing.T) {
	tr := New(cf.Shape{1}, 0, Config{Threshold: 0.1})
	for i := 0; i < 40; i++ {
		insertProj(tr, proj1d(1e160))
	}
	for i := 0; i < 100; i++ {
		insertProj(tr, proj1d(float64(i%50)))
	}
	if err := tr.Err(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Err() = %v, want ErrOverflow", err)
	}
	if _, err := tr.Finish(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Finish error %v, want ErrOverflow", err)
	}
}
