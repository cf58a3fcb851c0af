package cf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/distance"
)

func TestCFAddPoint(t *testing.T) {
	c := NewCF(2)
	if c.Dims() != 2 || c.N != 0 {
		t.Fatalf("new CF = %+v", c)
	}
	c.AddPoint([]float64{1, 2})
	c.AddPoint([]float64{3, 4})
	if c.N != 2 {
		t.Errorf("N = %d", c.N)
	}
	if !reflect.DeepEqual(c.LS, []float64{4, 6}) {
		t.Errorf("LS = %v", c.LS)
	}
	if c.SS != 1+4+9+16 {
		t.Errorf("SS = %v", c.SS)
	}
	if got := c.Centroid(); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestCFAddPointPanicsOnDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dim mismatch")
		}
	}()
	NewCF(2).AddPoint([]float64{1})
}

func TestCFMergeAdditivity(t *testing.T) {
	a, b, all := NewCF(2), NewCF(2), NewCF(2)
	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}, {10, -1}}
	for i, p := range pts {
		if i < 2 {
			a.AddPoint(p)
		} else {
			b.AddPoint(p)
		}
		all.AddPoint(p)
	}
	a.Merge(b)
	if a.N != all.N || a.SS != all.SS || !reflect.DeepEqual(a.LS, all.LS) {
		t.Errorf("merged = %+v, want %+v", a, all)
	}
}

func TestCFMergePanicsOnDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dim mismatch")
		}
	}()
	NewCF(2).Merge(NewCF(3))
}

func TestCFCloneAndReset(t *testing.T) {
	c := NewCF(1)
	c.AddPoint([]float64{5})
	cl := c.Clone()
	cl.AddPoint([]float64{7})
	if c.N != 1 || cl.N != 2 {
		t.Errorf("clone not independent: %d %d", c.N, cl.N)
	}
	c.Reset()
	if c.N != 0 || c.SS != 0 || c.LS[0] != 0 {
		t.Errorf("reset CF = %+v", c)
	}
}

func TestCFDiameterViaSummary(t *testing.T) {
	c := NewCF(1)
	c.AddPoint([]float64{0})
	c.AddPoint([]float64{6})
	if got := c.Diameter(); math.Abs(got-6) > 1e-12 {
		t.Errorf("Diameter = %v, want 6", got)
	}
}

func TestCFBytesGrowsWithDims(t *testing.T) {
	if NewCF(10).Bytes() <= NewCF(1).Bytes() {
		t.Error("Bytes does not grow with dims")
	}
}

// ---- ACF ----

func sampleShape() Shape { return Shape{2, 1, 3} }

func randProj(rng *rand.Rand, shape Shape) [][]float64 {
	proj := make([][]float64, len(shape))
	for g, d := range shape {
		p := make([]float64, d)
		for i := range p {
			p[i] = (rng.Float64() - 0.5) * 10
		}
		proj[g] = p
	}
	return proj
}

func TestNewACFValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad own group")
		}
	}()
	NewACF(sampleShape(), 3)
}

func TestACFAddTuple(t *testing.T) {
	a := NewACF(Shape{1, 2}, 0)
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d", a.Groups())
	}
	a.AddTuple([][]float64{{3}, {1, 2}})
	a.AddTuple([][]float64{{5}, {3, 4}})
	if a.N != 2 {
		t.Errorf("N = %d", a.N)
	}
	own := a.OwnSummary()
	if own.N != 2 || own.LS[0] != 8 || own.SS != 9+25 {
		t.Errorf("own summary = %+v", own)
	}
	img := a.Image(1)
	if !reflect.DeepEqual(img.LS, []float64{4, 6}) || img.SS != 1+4+9+16 {
		t.Errorf("image 1 = %+v", img)
	}
	if got := a.Centroid(); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestACFAddTuplePanics(t *testing.T) {
	a := NewACF(Shape{1, 1}, 0)
	for _, proj := range [][][]float64{
		{{1}},         // wrong group count
		{{1}, {1, 2}}, // wrong dims in group 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", proj)
				}
			}()
			a.AddTuple(proj)
		}()
	}
}

func TestACFMergePanics(t *testing.T) {
	shape := Shape{1, 1}
	a := NewACF(shape, 0)
	b := NewACF(shape, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging different own groups")
			}
		}()
		a.Merge(b)
	}()
	c := NewACF(Shape{1}, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging different shapes")
			}
		}()
		a.Merge(c)
	}()
	// Same group count, different dims: the backings differ in length.
	d := NewACF(Shape{2, 1}, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging groups of different dims")
			}
		}()
		a.Merge(d)
	}()
}

// ACF additivity (the extension of the Additivity Theorem claimed in §6.1):
// building an ACF from all tuples equals merging ACFs of a partition of the
// tuples, across every group projection.
func TestACFAdditivityProperty(t *testing.T) {
	shape := sampleShape()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		split := rng.Intn(n-1) + 1
		a := NewACF(shape, 1)
		b := NewACF(shape, 1)
		all := NewACF(shape, 1)
		for i := 0; i < n; i++ {
			proj := randProj(rng, shape)
			if i < split {
				a.AddTuple(proj)
			} else {
				b.AddTuple(proj)
			}
			all.AddTuple(proj)
		}
		a.Merge(b)
		if a.N != all.N {
			return false
		}
		for g := range shape {
			if math.Abs(a.SS[g]-all.SS[g]) > 1e-9 {
				return false
			}
			for i := range a.LS[g] {
				if math.Abs(a.LS[g][i]-all.LS[g][i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Theorem 6.1 substrate: every image summary of an ACF equals the summary
// of the projected tuple set, so any cluster metric computed from ACFs
// matches the metric computed from the data.
func TestACFImageMatchesDirectSummary(t *testing.T) {
	shape := Shape{2, 1}
	rng := rand.New(rand.NewSource(3))
	a := NewACF(shape, 0)
	var g0, g1 [][]float64
	for i := 0; i < 10; i++ {
		proj := randProj(rng, shape)
		a.AddTuple(proj)
		g0 = append(g0, append([]float64(nil), proj[0]...))
		g1 = append(g1, append([]float64(nil), proj[1]...))
	}
	for g, pts := range [][][]float64{g0, g1} {
		want := distance.Summarize(pts)
		got := a.Image(g)
		if got.N != want.N || math.Abs(got.SS-want.SS) > 1e-9 {
			t.Errorf("group %d: summary = %+v, want %+v", g, got, want)
		}
		for i := range want.LS {
			if math.Abs(got.LS[i]-want.LS[i]) > 1e-9 {
				t.Errorf("group %d LS[%d] = %v, want %v", g, i, got.LS[i], want.LS[i])
			}
		}
	}
}

func TestACFCloneIndependent(t *testing.T) {
	a := NewACF(Shape{1, 1}, 0)
	a.AddTuple([][]float64{{1}, {2}})
	c := a.Clone()
	c.AddTuple([][]float64{{1}, {2}})
	if a.N != 1 || c.N != 2 {
		t.Errorf("clone not independent: %d %d", a.N, c.N)
	}
	if a.LS[0][0] != 1 || c.LS[0][0] != 2 {
		t.Errorf("clone shares LS: %v %v", a.LS, c.LS)
	}
}

func TestACFOwnCF(t *testing.T) {
	a := NewACF(Shape{2, 1}, 0)
	a.AddTuple([][]float64{{1, 2}, {9}})
	cf := a.OwnCF()
	if cf.N != 1 || !reflect.DeepEqual(cf.LS, []float64{1, 2}) || cf.SS != 5 {
		t.Errorf("OwnCF = %+v", cf)
	}
	// Mutating the extracted CF must not alter the ACF.
	cf.LS[0] = 100
	if a.LS[0][0] != 1 {
		t.Error("OwnCF shares storage with ACF")
	}
}

func TestACFBytes(t *testing.T) {
	small := NewACF(Shape{1}, 0)
	big := NewACF(Shape{10, 10, 10}, 0)
	if big.Bytes() <= small.Bytes() {
		t.Error("Bytes does not grow with shape")
	}
}

func TestNomKeyRoundTrip(t *testing.T) {
	vals := []float64{0, -1.5, 3.25, 1e308}
	key := EncodeNomKey(vals)
	got, ok := DecodeNomKey(key, len(vals))
	if !ok || !reflect.DeepEqual(got, vals) {
		t.Fatalf("round trip = %v, %v", got, ok)
	}
	if _, ok := DecodeNomKey(key, len(vals)+1); ok {
		t.Error("DecodeNomKey accepted wrong dimensionality")
	}
	if EncodeNomKey([]float64{1}) == EncodeNomKey([]float64{2}) {
		t.Error("distinct values collide")
	}
}

func TestACFTrackedHistograms(t *testing.T) {
	track := []bool{false, true}
	a := NewACFTracked(Shape{1, 1}, 0, track)
	b := NewACFTracked(Shape{1, 1}, 0, track)
	a.AddTuple([][]float64{{1}, {7}})
	a.AddTuple([][]float64{{2}, {7}})
	b.AddTuple([][]float64{{3}, {8}})

	if a.Tracked(0) || !a.Tracked(1) {
		t.Fatalf("Tracked = %v, %v", a.Tracked(0), a.Tracked(1))
	}
	if n := a.NomCount(1, EncodeNomKey([]float64{7})); n != 2 {
		t.Errorf("NomCount(7) = %d, want 2", n)
	}
	if n := a.NomCount(0, EncodeNomKey([]float64{1})); n != 0 {
		t.Errorf("untracked group NomCount = %d, want 0", n)
	}

	// Additivity: Merge adds histograms key-wise.
	c := a.Clone()
	c.Merge(b)
	if n := c.NomCount(1, EncodeNomKey([]float64{7})); n != 2 {
		t.Errorf("merged NomCount(7) = %d, want 2", n)
	}
	if n := c.NomCount(1, EncodeNomKey([]float64{8})); n != 1 {
		t.Errorf("merged NomCount(8) = %d, want 1", n)
	}
	// Clone independence.
	if n := a.NomCount(1, EncodeNomKey([]float64{8})); n != 0 {
		t.Errorf("Merge mutated the clone source: NomCount(8) = %d", n)
	}

	// Merging an untracked ACF into a tracked one must panic, not drop.
	defer func() {
		if recover() == nil {
			t.Error("Merge of untracked into tracked did not panic")
		}
	}()
	c.Merge(NewACF(Shape{1, 1}, 0))
}

func TestACFOwnNomKey(t *testing.T) {
	track := []bool{true, false}
	a := NewACFTracked(Shape{1, 1}, 0, track)
	a.AddTuple([][]float64{{4}, {1}})
	a.AddTuple([][]float64{{4}, {2}})
	if got := a.OwnNomKey(); got != EncodeNomKey([]float64{4}) {
		t.Errorf("single-valued OwnNomKey = %q", got)
	}
	// Untracked ACFs fall back to the centroid encoding.
	u := NewACF(Shape{1, 1}, 0)
	u.AddTuple([][]float64{{4}, {1}})
	if got := u.OwnNomKey(); got != EncodeNomKey([]float64{4}) {
		t.Errorf("fallback OwnNomKey = %q", got)
	}
}

func TestACFBytesTracksHistograms(t *testing.T) {
	plain := NewACF(Shape{1}, 0)
	tracked := NewACFTracked(Shape{1}, 0, []bool{true})
	tracked.AddTuple([][]float64{{1}})
	if tracked.Bytes() <= plain.Bytes() {
		t.Error("Bytes ignores histogram footprint")
	}
}

// looseACF assembles an ACF field by field, as gob decoding does: per-group
// slices with no flat backing.
func looseACF(shape Shape, own int) *ACF {
	a := &ACF{Own: own, LS: make([][]float64, len(shape)), SS: make([]float64, len(shape))}
	for g, d := range shape {
		a.LS[g] = make([]float64, d)
	}
	return a
}

// The kernels index the flat backing directly, so an ACF assembled field
// by field must make them panic rather than fold into the wrong cells;
// Clone re-flattens it (deriving the uniform fast path from the shape),
// after which every kernel accepts it and the sums are untouched.
func TestACFKernelsRequireFlatLayout(t *testing.T) {
	shape := Shape{1, 1, 1}
	row := []float64{1, 2, 3}
	loose := looseACF(shape, 1)
	loose.AddTuple([][]float64{{4}, {5}, {6}})
	for _, k := range []struct {
		name string
		op   func()
	}{
		{"AddRowOwn", func() { loose.AddRowOwn(row, nil) }},
		{"AddRows", func() { loose.AddRows(row, 3, 1) }},
		{"Merge into", func() { loose.Merge(NewACF(shape, 1)) }},
		{"Merge from", func() { NewACF(shape, 1).Merge(loose) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a field-by-field ACF did not panic", k.name)
				}
			}()
			k.op()
		}()
	}
	c := loose.Clone()
	if !c.uniform || c.ownOff != 1 {
		t.Errorf("Clone of a loose ACF: uniform %v, ownOff %d; want true, 1", c.uniform, c.ownOff)
	}
	c.AddRowOwn(row, nil)
	c.AddRows(row, 3, 1)
	c.Merge(c.Clone())
	want := NewACF(shape, 1)
	want.AddTuple([][]float64{{4}, {5}, {6}})
	want.AddTuple([][]float64{{1}, {2}, {3}})
	want.Merge(want.Clone())
	if c.N != want.N || !reflect.DeepEqual(c.LS, want.LS) || !reflect.DeepEqual(c.SS, want.SS) {
		t.Errorf("re-flattened ACF = N %d LS %v SS %v, want N %d LS %v SS %v", c.N, c.LS, c.SS, want.N, want.LS, want.SS)
	}
}

func TestInternerKeyCanonical(t *testing.T) {
	it := NewInterner()
	k1 := it.Key([]float64{1, 2})
	k2 := it.Key([]float64{1, 2})
	if k1 != k2 || k1 != EncodeNomKey([]float64{1, 2}) {
		t.Fatalf("interned keys diverge: %q %q", k1, k2)
	}
	if it.Len() != 1 {
		t.Errorf("Len = %d, want 1", it.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { it.Key([]float64{1, 2}) }); allocs != 0 {
		t.Errorf("interned Key allocates %v per run, want 0", allocs)
	}
}

func BenchmarkEncodeNomKey(b *testing.B) {
	vals := []float64{1.5, -2.25, 3e7, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeNomKey(vals)
	}
}

func BenchmarkDecodeNomKey(b *testing.B) {
	key := EncodeNomKey([]float64{1.5, -2.25, 3e7, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeNomKey(key, 4); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkInternerKey(b *testing.B) {
	it := NewInterner()
	vals := []float64{1.5, -2.25, 3e7, 4}
	it.Key(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = it.Key(vals)
	}
}

// addRowAlone folds one flat row with no run to batch it with: AddRowOwn,
// then AddRows over a run of one — the streaming ingest path.
func addRowAlone(a *ACF, row []float64, it *Interner) {
	a.AddRowOwn(row, it)
	a.AddRows(row, len(row), 1)
}

// assertSameACF fails unless got and want hold bit-identical N, LS, SS
// and exact-value histograms.
func assertSameACF(t *testing.T, got, want *ACF) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	for g := range want.LS {
		if got.SS[g] != want.SS[g] {
			t.Errorf("SS[%d] = %v, want %v", g, got.SS[g], want.SS[g])
		}
		if !reflect.DeepEqual(got.LS[g], want.LS[g]) {
			t.Errorf("LS[%d] = %v, want %v", g, got.LS[g], want.LS[g])
		}
	}
	if !reflect.DeepEqual(got.NomCounts, want.NomCounts) {
		t.Errorf("NomCounts = %v, want %v", got.NomCounts, want.NomCounts)
	}
}

// A row folded alone must land exactly where the cell-by-cell AddTuple
// puts it, the tracked group's histogram and the interner's keys
// included.
func TestACFAddRowMatchesAddTuple(t *testing.T) {
	shape := sampleShape()
	rng := rand.New(rand.NewSource(11))
	track := []bool{false, true, false}
	byTuple := NewACFTracked(shape, 1, track)
	byRow := NewACFTracked(shape, 1, track)
	it := NewInterner()
	for i := 0; i < 50; i++ {
		proj := randProj(rng, shape)
		var row []float64
		for _, p := range proj {
			row = append(row, p...)
		}
		byTuple.AddTuple(proj)
		addRowAlone(byRow, row, it)
	}
	assertSameACF(t, byRow, byTuple)
	if it.Len() != len(byTuple.NomCounts[1]) {
		t.Errorf("interner holds %d keys, histogram %d", it.Len(), len(byTuple.NomCounts[1]))
	}
}

// splitRowCases are the shapes the split-row kernels are checked over:
// uniform and non-uniform, the own group first, inner and last.
var splitRowCases = []struct {
	name  string
	shape Shape
	own   int
}{
	{"non-uniform", Shape{2, 1, 3}, 1},
	{"uniform", Shape{1, 1, 1, 1}, 2},
	{"own-first", Shape{2, 2}, 0},
	{"own-last", Shape{1, 2}, 1},
}

// checkSplitRuns runs every splitRowCases shape with the own group and
// the one after it tracked. It feeds three runs of random rows (lengths
// 1, 3 and 5) own-then-batched to a split ACF and tuple by tuple to ref,
// which folds each into the reference ACF, then compares the two.
func checkSplitRuns(t *testing.T, ref func(a *ACF, proj [][]float64, row []float64)) {
	for _, tc := range splitRowCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			track := make([]bool, len(tc.shape))
			track[tc.own] = true
			track[(tc.own+1)%len(tc.shape)] = true
			want := NewACFTracked(tc.shape, tc.own, track)
			split := NewACFTracked(tc.shape, tc.own, track)
			stride := tc.shape.Dims()
			it := NewInterner()
			for _, run := range []int{1, 3, 5} {
				rows := make([]float64, 0, run*stride)
				for r := 0; r < run; r++ {
					proj := randProj(rng, tc.shape)
					for _, p := range proj {
						rows = append(rows, p...)
					}
					ref(want, proj, rows[r*stride:(r+1)*stride])
				}
				for r := 0; r < run; r++ {
					split.AddRowOwn(rows[r*stride:(r+1)*stride], it)
				}
				split.AddRows(rows, stride, run)
			}
			assertSameACF(t, split, want)
			if n := len(want.NomCounts[tc.own]) + len(want.NomCounts[(tc.own+1)%len(tc.shape)]); it.Len() != n {
				t.Errorf("interner holds %d keys, histograms %d", it.Len(), n)
			}
		})
	}
}

// The split-row kernels must compose to exactly the cell-by-cell
// AddTuple: AddRowOwn folds the own group (plus N and histograms)
// eagerly, AddRows applies the deferred cross-group sums of a whole run,
// and every float cell ends up bit-identical to AddTuple's — tracked
// groups (own and cross) included, and for run lengths above one.
func TestACFSplitRowMatchesAddTuple(t *testing.T) {
	checkSplitRuns(t, func(a *ACF, proj [][]float64, _ []float64) { a.AddTuple(proj) })
}

// Batching a same-cluster run through one AddRows call must give the
// same bits as folding each of its rows alone, so InsertFlatBatch and a
// row-at-a-time insert build identical ACFs.
func TestACFSplitRowMatchesAddRow(t *testing.T) {
	checkSplitRuns(t, func(a *ACF, _ [][]float64, row []float64) { addRowAlone(a, row, nil) })
}

// The batch kernel itself must not allocate: it walks the flat backing
// in place.
func TestACFAddRowsZeroAllocs(t *testing.T) {
	shape := Shape{1, 1, 1, 1}
	a := NewACF(shape, 1)
	rows := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i := 0; i < 3; i++ {
		a.AddRowOwn(rows[i*4:(i+1)*4], nil)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.AddRows(rows, 4, 3) }); allocs != 0 {
		t.Errorf("AddRows allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.AddRowOwn(rows[:4], nil) }); allocs != 0 {
		t.Errorf("AddRowOwn allocates %v per run, want 0", allocs)
	}
}

// BenchmarkACFSingleRow measures one row folded alone — AddRowOwn, then
// AddRows over a run of one — the per-tuple cost of streaming ingest.
func BenchmarkACFSingleRow(b *testing.B) {
	shape := sampleShape()
	a := NewACF(shape, 0)
	row := []float64{1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddRowOwn(row, nil)
		a.AddRows(row, len(row), 1)
	}
}

// BenchmarkACFAddRows measures the batched cross-group kernel over a
// same-cluster run: one op is a 64-row run.
func BenchmarkACFAddRows(b *testing.B) {
	shape := Shape{1, 1, 1, 1, 1, 1, 1, 1, 1}
	stride := shape.Dims()
	const run = 64
	rows := make([]float64, run*stride)
	for i := range rows {
		rows[i] = float64(i%97) * 0.5
	}
	a := NewACF(shape, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddRows(rows, stride, run)
	}
}
