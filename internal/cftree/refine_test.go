package cftree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cf"
	"repro/internal/distance"
)

func acfOf(shape cf.Shape, own int, points ...float64) *cf.ACF {
	a := cf.NewACF(shape, own)
	for _, p := range points {
		proj := make([][]float64, len(shape))
		for g := range proj {
			proj[g] = []float64{p}
		}
		a.AddTuple(proj)
	}
	return a
}

func TestRefineMergesFragments(t *testing.T) {
	shape := cf.Shape{1, 1}
	// Two fragments of the same natural cluster plus one distant cluster.
	frags := []*cf.ACF{
		acfOf(shape, 0, 10.0, 10.2, 10.4),
		acfOf(shape, 0, 10.6, 10.8),
		acfOf(shape, 0, 100, 100.5),
	}
	out := Refine(frags, 2)
	if len(out) != 2 {
		t.Fatalf("refined to %d clusters, want 2", len(out))
	}
	if out[0].N != 5 || out[1].N != 2 {
		t.Errorf("refined sizes = %d, %d; want 5 and 2", out[0].N, out[1].N)
	}
	// Projections must merge too (ACF additivity).
	if math.Abs(out[0].LS[1][0]-(10.0+10.2+10.4+10.6+10.8)) > 1e-9 {
		t.Errorf("group-1 LS = %v", out[0].LS[1][0])
	}
	// Inputs untouched.
	if frags[0].N != 3 {
		t.Error("Refine mutated its input")
	}
}

func TestRefineRespectsThreshold(t *testing.T) {
	shape := cf.Shape{1}
	clusters := []*cf.ACF{
		acfOf(shape, 0, 0, 0.1),
		acfOf(shape, 0, 50, 50.1),
	}
	out := Refine(clusters, 1)
	if len(out) != 2 {
		t.Fatalf("distant clusters merged: %d", len(out))
	}
	if got := Refine(clusters, 200); len(got) != 1 {
		t.Fatalf("lenient threshold did not merge: %d", len(got))
	}
}

func TestRefineDegenerate(t *testing.T) {
	if got := Refine(nil, 1); len(got) != 0 {
		t.Errorf("Refine(nil) = %v", got)
	}
	one := []*cf.ACF{acfOf(cf.Shape{1}, 0, 5)}
	if got := Refine(one, 1); len(got) != 1 || got[0] != one[0] {
		t.Errorf("single-cluster Refine should return input unchanged")
	}
}

// Refinement conserves mass and sums, never increases the cluster count,
// and every output cluster satisfies the diameter threshold if the
// inputs did.
func TestRefineConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := cf.Shape{1, 1}
		k := rng.Intn(12) + 1
		threshold := rng.Float64()*5 + 0.5
		var in []*cf.ACF
		var wantN int64
		var wantLS0, wantLS1 float64
		for i := 0; i < k; i++ {
			center := float64(rng.Intn(5)) * 20
			n := rng.Intn(5) + 1
			pts := make([]float64, n)
			for j := range pts {
				pts[j] = center + rng.Float64()*0.3
			}
			a := acfOf(shape, 0, pts...)
			in = append(in, a)
			wantN += a.N
			wantLS0 += a.LS[0][0]
			wantLS1 += a.LS[1][0]
		}
		out := Refine(in, threshold)
		if len(out) > len(in) || len(out) < 1 {
			return false
		}
		var gotN int64
		var gotLS0, gotLS1 float64
		for _, a := range out {
			gotN += a.N
			gotLS0 += a.LS[0][0]
			gotLS1 += a.LS[1][0]
			if a.Diameter() > threshold+1e-9 {
				return false
			}
		}
		return gotN == wantN &&
			math.Abs(gotLS0-wantLS0) < 1e-6 &&
			math.Abs(gotLS1-wantLS1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Refinement is idempotent: a second pass changes nothing.
func TestRefineIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := cf.Shape{1}
		var in []*cf.ACF
		for i := 0; i < rng.Intn(10)+2; i++ {
			in = append(in, acfOf(shape, 0, rng.Float64()*100))
		}
		threshold := rng.Float64() * 10
		once := Refine(in, threshold)
		twice := Refine(once, threshold)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i].N != twice[i].N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refineReference is the full-rescan form of Refine: every round scans
// all pairs and merges the one with the smallest merged diameter, ties
// to the last pair in (i, j) order. The differential tests pin Refine's
// output to it wherever no sum overflows (it lets a NaN diameter
// through; Refine does not).
func refineReference(acfs []*cf.ACF, threshold float64) []*cf.ACF {
	if len(acfs) < 2 {
		return acfs
	}
	work := make([]*cf.ACF, len(acfs))
	for i, a := range acfs {
		work[i] = a.Clone()
	}
	for {
		bi, bj := -1, -1
		best := threshold
		for i := 0; i < len(work); i++ {
			si := work[i].OwnSummary()
			for j := i + 1; j < len(work); j++ {
				sj := work[j].OwnSummary()
				d := distance.MergedDiameter(si, sj)
				if d > best {
					continue
				}
				if centroidDist2(si, sj) > threshold*threshold {
					continue
				}
				bi, bj, best = i, j, d
			}
		}
		if bi < 0 {
			break
		}
		work[bi].Merge(work[bj])
		work = append(work[:bj], work[bj+1:]...)
	}
	sort.Slice(work, func(i, j int) bool {
		ci, cj := work[i].Centroid(), work[j].Centroid()
		for k := range ci {
			if ci[k] != cj[k] {
				return ci[k] < cj[k]
			}
		}
		return work[i].N > work[j].N
	})
	return work
}

// sameACFs reports the first difference between two ACF lists: count,
// order, N, every LS and SS bit, and the nominal histograms.
func sameACFs(got, want []*cf.ACF) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.N != w.N || g.Own != w.Own {
			return fmt.Sprintf("cluster %d: N %d over group %d, want N %d over group %d", i, g.N, g.Own, w.N, w.Own)
		}
		for grp := range w.LS {
			if math.Float64bits(g.SS[grp]) != math.Float64bits(w.SS[grp]) {
				return fmt.Sprintf("cluster %d group %d: SS %v, want %v", i, grp, g.SS[grp], w.SS[grp])
			}
			for k := range w.LS[grp] {
				if math.Float64bits(g.LS[grp][k]) != math.Float64bits(w.LS[grp][k]) {
					return fmt.Sprintf("cluster %d group %d: LS[%d] %v, want %v", i, grp, k, g.LS[grp][k], w.LS[grp][k])
				}
			}
		}
		if !reflect.DeepEqual(g.NomCounts, w.NomCounts) {
			return fmt.Sprintf("cluster %d: histograms %v, want %v", i, g.NomCounts, w.NomCounts)
		}
	}
	return ""
}

// A pair whose merged diameter is NaN (SS overflowed to +Inf) is not
// admissible. Were it taken as the running minimum, every later pair
// passing the centroid test would merge, whatever its diameter: here
// {0, 0.1} and {0.09, 0.19}, of merged diameter 0.1098.
func TestRefineNaNDiameterNotAdmissible(t *testing.T) {
	shape := cf.Shape{1}
	near := []*cf.ACF{
		acfOf(shape, 0, 0, 0.1),
		acfOf(shape, 0, 0.09, 0.19),
	}
	if got := Refine(near, 0.1); len(got) != 2 {
		t.Fatalf("without overflowing leaves: %d clusters, want 2", len(got))
	}
	in := append([]*cf.ACF{
		acfOf(shape, 0, 1e160, 1e160),
		acfOf(shape, 0, 1e160),
	}, near...)
	out := Refine(in, 0.1)
	if len(out) != len(in) {
		for _, a := range out {
			t.Logf("N=%d LS=%v diameter=%v", a.N, a.LS[0], a.Diameter())
		}
		t.Fatalf("refined to %d clusters, want all %d kept apart", len(out), len(in))
	}
}

// refineInput builds k leaf clusters for the fuzz target: 1–4 points
// each on an integer grid around a few centres, so exact diameter ties
// occur. The own group has dims dimensions; another interval group
// rides along, and a tracked tag group holds each leaf's index, which
// names the leaves an output cluster was merged from. With overflow,
// about a third of the leaves sit near 1e160, where SS overflows to
// +Inf and merged diameters become NaN.
func refineInput(rng *rand.Rand, k, dims, own int, overflow bool) []*cf.ACF {
	shape := cf.Shape{1, 1, 1}
	shape[own] = dims
	track := []bool{false, false, true}
	centres := make([][]float64, rng.Intn(4)+1)
	for c := range centres {
		centres[c] = make([]float64, dims)
		for d := range centres[c] {
			centres[c][d] = float64(rng.Intn(12))
		}
	}
	out := make([]*cf.ACF, k)
	row := make([]float64, shape.Dims())
	for i := range out {
		a := cf.NewACFTracked(shape, own, track)
		scale := 1.0
		if overflow && rng.Intn(3) == 0 {
			scale = 1e160
		}
		centre := centres[rng.Intn(len(centres))]
		for n := rng.Intn(4) + 1; n > 0; n-- {
			off := 0
			for g, gd := range shape {
				for d := 0; d < gd; d++ {
					switch g {
					case own:
						row[off+d] = (centre[d] + float64(rng.Intn(3))) * scale
					case 2:
						row[off+d] = float64(i)
					default:
						row[off+d] = float64(rng.Intn(5))
					}
				}
				off += gd
			}
			a.AddRow(row, nil)
		}
		out[i] = a
	}
	return out
}

// FuzzRefine pins Refine to refineReference wherever sums stay finite
// (every output bit, histogram and the order), and, where they
// overflow, checks what the reference cannot: each cluster merged from
// several leaves has a finite diameter within the threshold, and every
// leaf's N and LS land in exactly one output cluster. Inputs are never
// modified.
func FuzzRefine(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(40), uint8(1), uint8(2), false)
	f.Add(int64(3), uint8(119), uint8(2), uint8(4), false)
	f.Add(int64(4), uint8(1), uint8(0), uint8(1), false)
	f.Add(int64(5), uint8(60), uint8(0), uint8(3), true)
	f.Add(int64(6), uint8(100), uint8(2), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, k, dims, knobs uint8, overflow bool) {
		rng := rand.New(rand.NewSource(seed))
		own := int(knobs) % 2
		thresholds := []float64{0, 0.5, 1, 1.5, 2, 3, 4.5}
		threshold := thresholds[int(knobs/2)%len(thresholds)]
		in := refineInput(rng, int(k)%120+1, int(dims)%3+1, own, overflow)
		before := make([]*cf.ACF, len(in))
		for i, a := range in {
			before[i] = a.Clone()
		}
		out := Refine(in, threshold)
		if diff := sameACFs(in, before); diff != "" {
			t.Fatalf("Refine modified its input: %s", diff)
		}
		if !overflow {
			if diff := sameACFs(out, refineReference(in, threshold)); diff != "" {
				t.Fatalf("threshold %v, %d leaves: Refine differs from the reference: %s", threshold, len(in), diff)
			}
			return
		}
		seen := make([]bool, len(in))
		for _, a := range out {
			hist := a.NomCounts[2]
			var n int64
			ls := make([]float64, len(a.LS[own]))
			var scale float64
			for key, cnt := range hist {
				v, ok := cf.DecodeNomKey(key, 1)
				if !ok {
					t.Fatalf("undecodable tag key %q", key)
				}
				i := int(v[0])
				if seen[i] || cnt != in[i].N {
					t.Fatalf("leaf %d: seen before %v, %d of its %d tuples in one cluster", i, seen[i], cnt, in[i].N)
				}
				seen[i] = true
				n += in[i].N
				for d, v := range in[i].LS[own] {
					ls[d] += v
					scale = math.Max(scale, math.Abs(v))
				}
			}
			if a.N != n {
				t.Fatalf("cluster of N %d merged from leaves totalling %d", a.N, n)
			}
			for d := range ls {
				if math.Abs(a.LS[own][d]-ls[d]) > 1e-12*scale*float64(len(hist)) {
					t.Fatalf("cluster LS[%d] %v, its leaves sum to %v", d, a.LS[own][d], ls[d])
				}
			}
			if len(hist) < 2 {
				continue
			}
			if d := a.Diameter(); math.IsNaN(d) || math.IsInf(d, 0) || d > threshold+1e-9 {
				t.Fatalf("cluster merged from %d leaves has diameter %v, threshold %v", len(hist), d, threshold)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("leaf %d is in no output cluster", i)
			}
		}
	})
}
