package cftree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cf"
)

func sampleACF(own int, vals ...float64) *cf.ACF {
	a := cf.NewACF(cf.Shape{1, 1}, own)
	for _, v := range vals {
		a.AddTuple([][]float64{{v}, {v * 2}})
	}
	return a
}

func testStore(t *testing.T, s OutlierStore) {
	t.Helper()
	if s.Len() != 0 {
		t.Fatalf("new store Len = %d", s.Len())
	}
	a := sampleACF(0, 1, 2, 3)
	b := sampleACF(0, 10)
	if err := s.Put(a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(b); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("Drain returned %d, want 2", len(got))
	}
	if got[0].N != 3 || got[1].N != 1 {
		t.Errorf("drained N = %d, %d", got[0].N, got[1].N)
	}
	if got[0].LS[0][0] != 6 || got[0].LS[1][0] != 12 {
		t.Errorf("drained LS = %v", got[0].LS)
	}
	if got[0].Own != 0 {
		t.Errorf("drained Own = %d", got[0].Own)
	}
	// Drained summaries go straight back into the tree, whose kernels
	// accept only flat-backed ACFs (Merge panics on any other).
	got[0].Merge(got[1])
	if got[0].N != 4 || got[0].LS[0][0] != 16 || got[0].SS[1] != 4*(1+4+9+100) {
		t.Errorf("merged drained summaries = N %d, LS %v, SS %v", got[0].N, got[0].LS, got[0].SS)
	}
	if s.Len() != 0 {
		t.Errorf("Len after drain = %d", s.Len())
	}
	// The store must be reusable after a drain.
	if err := s.Put(sampleACF(0, 5)); err != nil {
		t.Fatalf("Put after drain: %v", err)
	}
	got, err = s.Drain()
	if err != nil || len(got) != 1 {
		t.Fatalf("second Drain = %v, %v", got, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestMemoryOutlierStore(t *testing.T) {
	testStore(t, NewMemoryOutlierStore())
}

func TestFileOutlierStore(t *testing.T) {
	s, err := NewFileOutlierStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileOutlierStore: %v", err)
	}
	testStore(t, s)
}

func TestFileOutlierStoreClosed(t *testing.T) {
	s, err := NewFileOutlierStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileOutlierStore: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := s.Put(sampleACF(0, 1)); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, err := s.Drain(); err == nil {
		t.Error("Drain after Close succeeded")
	}
}

func TestTreeWithFileOutlierStore(t *testing.T) {
	store, err := NewFileOutlierStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileOutlierStore: %v", err)
	}
	defer store.Close()
	tr := New(cf.Shape{1}, 0, Config{
		Threshold:   1,
		MemoryLimit: 3 << 10,
		OutlierN:    4,
		Outliers:    store,
	})
	for i := 0; i < 2000; i++ {
		insertProj(tr, proj1d(float64(i%7)))
	}
	for i := 0; i < 30; i++ {
		insertProj(tr, proj1d(1e6+float64(i)*1e5))
	}
	if tr.Stats().OutliersPaged == 0 {
		t.Fatal("test needs outliers paged through the file store")
	}
	leaves, err := tr.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := totalN(leaves); got != 2030 {
		t.Errorf("Finish accounts for N = %d, want 2030", got)
	}
	if store.Len() != 0 {
		t.Errorf("%d clusters left in the file store after Finish", store.Len())
	}
}

// failingStore rejects every Put, exercising the rebuild's fallback: a
// cluster that cannot be paged out must stay in the tree rather than be
// lost.
type failingStore struct{ puts int }

func (s *failingStore) Put(*cf.ACF) error {
	s.puts++
	return errFailingStore
}
func (s *failingStore) Drain() ([]*cf.ACF, error) { return nil, nil }
func (s *failingStore) Len() int                  { return 0 }
func (s *failingStore) Close() error              { return nil }

var errFailingStore = fmt.Errorf("injected store failure")

func TestOutlierStoreFailureKeepsClusters(t *testing.T) {
	store := &failingStore{}
	tr := New(cf.Shape{1}, 0, Config{
		Threshold:   1,
		MemoryLimit: 3 << 10,
		OutlierN:    5,
		Outliers:    store,
	})
	rng := rand.New(rand.NewSource(13))
	n := 0
	for i := 0; i < 1500; i++ {
		insertProj(tr, proj1d(100+rng.Float64()))
		n++
	}
	for i := 0; i < 40; i++ {
		insertProj(tr, proj1d(rng.Float64()*1e7))
		n++
	}
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("test needs rebuilds")
	}
	if store.puts == 0 {
		t.Fatal("no paging attempts reached the failing store")
	}
	leaves, err := tr.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Every tuple is still accounted for in the tree despite the store
	// rejecting all paging.
	if got := totalN(leaves); got != int64(n) {
		t.Errorf("accounted N = %d, want %d", got, n)
	}
	if tr.Stats().OutliersPaged != 0 {
		t.Errorf("OutliersPaged = %d despite failing store", tr.Stats().OutliersPaged)
	}
}

// TestFileOutlierStoreKeepsUntrackedGroups feeds one stream of tuples
// to two trees that page outliers, one through the file store and one
// through the memory store, with group 0 untracked and group 1
// tracked: their final leaves must agree in N, LS, SS, and which groups
// carry a histogram. gob decodes a nil histogram inside a slice as an
// empty map, which would otherwise read as tracked.
func TestFileOutlierStoreKeepsUntrackedGroups(t *testing.T) {
	file, err := NewFileOutlierStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileOutlierStore: %v", err)
	}
	defer file.Close()
	var trees []*Tree
	for _, store := range []OutlierStore{file, NewMemoryOutlierStore()} {
		trees = append(trees, New(cf.Shape{1, 1}, 0, Config{
			Threshold:   1,
			MemoryLimit: 3 << 10,
			OutlierN:    4,
			Outliers:    store,
			Track:       []bool{false, true},
		}))
	}
	for _, tr := range trees {
		for i := 0; i < 2000; i++ {
			insertProj(tr, twoGroupProj(float64(i%7), float64(i%3)))
		}
		for i := 0; i < 30; i++ {
			insertProj(tr, twoGroupProj(1e6+float64(i)*1e5, float64(i%2)))
		}
	}
	if trees[0].Stats().OutliersPaged == 0 {
		t.Fatal("test needs outliers paged through the file store")
	}
	fromFile, err := trees[0].Finish()
	if err != nil {
		t.Fatalf("Finish (file store): %v", err)
	}
	fromMemory, err := trees[1].Finish()
	if err != nil {
		t.Fatalf("Finish (memory store): %v", err)
	}
	if len(fromFile) != len(fromMemory) {
		t.Fatalf("%d leaves through the file store, %d through memory", len(fromFile), len(fromMemory))
	}
	for i, a := range fromFile {
		b := fromMemory[i]
		if a.N != b.N || !reflect.DeepEqual(a.LS, b.LS) || !reflect.DeepEqual(a.SS, b.SS) {
			t.Fatalf("leaf %d: file store N=%d LS=%v SS=%v, memory N=%d LS=%v SS=%v", i, a.N, a.LS, a.SS, b.N, b.LS, b.SS)
		}
		for g := 0; g < 2; g++ {
			if a.Tracked(g) != b.Tracked(g) || !reflect.DeepEqual(a.NomCounts[g], b.NomCounts[g]) {
				t.Fatalf("leaf %d group %d: file store tracked=%v %v, memory tracked=%v %v",
					i, g, a.Tracked(g), a.NomCounts[g], b.Tracked(g), b.NomCounts[g])
			}
		}
	}
}
