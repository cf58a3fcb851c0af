package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins the cut points to Python's
// statistics.quantiles(xs, n=4), which states the spread rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
		{[]float64{2, 4, 4, 5, 7}, 3, 4, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTailTenBeyond pins the rule that a tail percentile is reported
// only when at least ten samples lie beyond it.
func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n             int
		value, usedP  float64
		beyondAtLeast int
	}{
		{1000, 990, 99, 10},  // rank 990 leaves exactly ten beyond
		{2000, 1980, 99, 20}, // plenty
		{500, 490, 98, 10},   // falls back to p98
		{15, 8, 50, 7},       // too few for any tail: the median
	} {
		v, p := tail(seq(c.n), 99)
		if v != c.value || p != c.usedP {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.usedP)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < c.beyondAtLeast {
			t.Errorf("n=%d: %d samples beyond the reported tail", c.n, beyond)
		}
	}
}
