package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the tail is reported at the highest
// percentile that still has that many beyond it.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the middle two for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), the
// definition the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[nearestRank(len(s), p)-1]
}

func nearestRank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tail reports the p-th percentile of xs when at least minBeyond
// samples lie above it. Otherwise it falls back to the highest
// percentile that leaves minBeyond samples above, and to the median
// when even that would sit below the middle. It returns the value and
// the percentile actually used.
func tail(xs []float64, p float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), p
	}
	s := sorted(xs)
	if n-nearestRank(n, p) >= minBeyond {
		return percentile(s, p), p
	}
	if k := n - minBeyond; k > 0 {
		q := 100 * float64(k) / float64(n)
		if q > 50 {
			return s[k-1], q
		}
	}
	return median(xs), 50
}
