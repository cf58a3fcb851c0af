package cftree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cf"
)

// checkInvariants walks the tree verifying structural invariants:
//   - all leaves at the same depth (height balance),
//   - fanout within Branching / LeafCapacity,
//   - every node's summary equals the sum of its children/entries.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	leafDepth := -1
	var walk func(nd *node, depth int)
	walk = func(nd *node, depth int) {
		if nd.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaf at depth %d, expected %d (tree unbalanced)", depth, leafDepth)
			}
			if len(nd.entries) > tr.cfg.LeafCapacity {
				t.Fatalf("leaf has %d entries, capacity %d", len(nd.entries), tr.cfg.LeafCapacity)
			}
			var n int64
			var ls, ss float64
			for _, e := range nd.entries {
				n += e.N
				ls += e.LS[e.Own][0]
				ss += e.SS[e.Own]
			}
			if n != nd.summary.N {
				t.Fatalf("leaf summary N %d != entries %d", nd.summary.N, n)
			}
			if math.Abs(ls-nd.summary.LS[0]) > 1e-6*(1+math.Abs(ls)) {
				t.Fatalf("leaf summary LS %v != entries %v", nd.summary.LS[0], ls)
			}
			if math.Abs(ss-nd.summary.SS) > 1e-6*(1+math.Abs(ss)) {
				t.Fatalf("leaf summary SS %v != entries %v", nd.summary.SS, ss)
			}
			return
		}
		if len(nd.children) > tr.cfg.Branching {
			t.Fatalf("internal node has %d children, branching %d", len(nd.children), tr.cfg.Branching)
		}
		if len(nd.children) == 0 {
			t.Fatal("internal node without children")
		}
		var n int64
		for _, c := range nd.children {
			n += c.summary.N
			walk(c, depth+1)
		}
		if n != nd.summary.N {
			t.Fatalf("internal summary N %d != children %d", nd.summary.N, n)
		}
	}
	walk(tr.root, 1)
}

func TestTreeInvariantsAfterInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New(cf.Shape{1}, 0, Config{Branching: 4, LeafCapacity: 3, Threshold: 0.5})
	for i := 0; i < 3000; i++ {
		insertProj(tr, proj1d(rng.Float64()*1e4))
	}
	checkInvariants(t, tr)
}

func TestTreeInvariantsAfterRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New(cf.Shape{1}, 0, Config{Branching: 4, LeafCapacity: 3, Threshold: 0.5, MemoryLimit: 4 << 10})
	for i := 0; i < 3000; i++ {
		insertProj(tr, proj1d(rng.Float64()*1e6))
	}
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("expected rebuilds")
	}
	checkInvariants(t, tr)
}

// Invariants hold for arbitrary configurations and insert sequences.
func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64, branching, leafCap uint8, spread uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Branching:    int(branching)%14 + 2,
			LeafCapacity: int(leafCap)%14 + 1,
			Threshold:    rng.Float64() * 10,
		}
		tr := New(cf.Shape{1}, 0, cfg)
		n := rng.Intn(800) + 1
		for i := 0; i < n; i++ {
			insertProj(tr, proj1d(rng.Float64()*float64(spread+1)))
		}
		// Reuse the testing.T-based checker through a recovered panic:
		// convert failures into property failures.
		ok := true
		func() {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			st := tr.Stats()
			if st.TuplesSeen != int64(n) || totalN(tr.Leaves()) != int64(n) {
				panic("count mismatch")
			}
			var walk func(nd *node, depth int) int
			walk = func(nd *node, depth int) int {
				if nd.leaf {
					if len(nd.entries) > cfg.LeafCapacity {
						panic("leaf overflow")
					}
					return depth
				}
				if len(nd.children) > cfg.Branching || len(nd.children) == 0 {
					panic("fanout violation")
				}
				d := -1
				for _, c := range nd.children {
					cd := walk(c, depth+1)
					if d == -1 {
						d = cd
					} else if d != cd {
						panic("unbalanced")
					}
				}
				return d
			}
			walk(tr.root, 1)
		}()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNearestClusterAfterRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(cf.Shape{1}, 0, Config{Threshold: 1, MemoryLimit: 4 << 10})
	// Many well-separated dense clusters: the tight budget forces
	// threshold-raising rebuilds, which may merge neighbouring centers
	// but must keep nearest-cluster queries locally accurate.
	const nCenters = 300
	for i := 0; i < 9000; i++ {
		c := float64(i%nCenters) * 1e4
		insertProj(tr, proj1d(c+rng.NormFloat64()))
	}
	if tr.Stats().Rebuilds == 0 {
		t.Fatal("expected rebuilds")
	}
	// After rebuilds a cluster's extent is bounded by the raised
	// threshold, so the nearest centroid can sit at most about one
	// threshold away from any covered point.
	tolerance := tr.Threshold() + 1e4
	for _, c := range []float64{0, 50e4, 299e4} {
		a, d := tr.NearestCluster([]float64{c})
		if a == nil {
			t.Fatalf("no cluster near %v", c)
		}
		if math.Abs(a.Centroid()[0]-c) > tolerance {
			t.Errorf("nearest to %v has centroid %v (tolerance %v)", c, a.Centroid()[0], tolerance)
		}
		if d > tolerance {
			t.Errorf("distance to %v = %v (tolerance %v)", c, d, tolerance)
		}
	}
}
