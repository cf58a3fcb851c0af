package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
	"repro/internal/relation"
)

// The paper's Section 1 complaint about classical mining — "The user is
// given no guidance on selecting the confidence or support thresholds
// and will not know if a given pair of thresholds will yield no rules or
// thousands of rules" — applies equally to d0. SuggestThresholds gives
// that guidance: a data-driven per-group diameter threshold derived from
// the pairwise-distance distribution of a sample.
//
// Rationale: when an attribute carries cluster structure, the pairwise
// distances of a sample are multi-scale — a bulk of small within-cluster
// distances and a separated bulk of cross-cluster distances. The sorted
// distance sequence then shows a large multiplicative jump between the
// scales; placing d0 inside that jump (at the geometric mean of its two
// sides) sits above the cluster spread and below the gaps, which is
// exactly what the admission tests (augmented diameter and centroid
// distance within d0) want. Without such a jump the data is unimodal at
// the sampled resolution and a fixed fraction of the median distance is
// returned.

// AdvisorOptions tunes SuggestThresholds.
type AdvisorOptions struct {
	// SampleSize bounds the per-group sample (pairwise distances are
	// quadratic in it). Defaults to 200.
	SampleSize int
	// MinJump is the multiplicative gap treated as scale separation.
	// Defaults to 3.
	MinJump float64
	// Workers bounds the goroutines deriving groups' thresholds at once
	// (one group per task, through parallel.For); 0 or 1 means serial,
	// as with Options.Workers. The thresholds are bit-identical at any
	// count.
	Workers int
}

func (o AdvisorOptions) withDefaults() AdvisorOptions {
	if o.SampleSize <= 1 {
		o.SampleSize = 200
	}
	if o.MinJump <= 1 {
		o.MinJump = 3
	}
	return o
}

// SuggestThresholds returns a per-group d0 estimate suitable for
// Options.DiameterThresholds. Nominal groups get 0 (Theorem 5.1 regime),
// as do groups whose sampled values are all identical (any positive
// threshold would over-merge a constant attribute). It fails when a
// group's sampled distances overflow float64: no finite d0 fits them.
func SuggestThresholds(rel relation.Source, part *relation.Partitioning, opt AdvisorOptions) ([]float64, error) {
	if rel == nil || part == nil {
		return nil, fmt.Errorf("core: nil relation or partitioning")
	}
	if part.Schema() != rel.Schema() {
		return nil, fmt.Errorf("core: partitioning is over a different schema")
	}
	opt = opt.withDefaults()
	n := rel.Len()
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 tuples to estimate thresholds, have %d", n)
	}

	groups := part.NumGroups()
	nominal := make([]bool, groups)
	for g := 0; g < groups; g++ {
		for _, a := range part.Group(g).Attrs {
			if rel.Schema().Attr(a).Kind == relation.Nominal {
				nominal[g] = true
			}
		}
	}

	rows := AdvisorRows(n, opt)
	samples := make([][][]float64, groups) // samples[g][i] = projection
	err := rel.Scan(func(i int, tuple []float64) error {
		if len(rows) == 0 || rows[0] != i {
			return nil
		}
		rows = rows[1:]
		for g := 0; g < groups; g++ {
			p := make([]float64, part.Group(g).Dims())
			part.Project(g, tuple, p)
			samples[g] = append(samples[g], p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: advisor sample scan: %w", err)
	}

	// Each group's threshold is its own task (sorting the sample's
	// pairwise distances is nearly all of the advisor's time); the
	// overflow check then runs in group order, so the error names the
	// same group at any worker count.
	out := make([]float64, groups)
	parallel.For(clampWorkers(opt.Workers, groups), groups, func(g int) {
		if !nominal[g] { // nominal groups keep 0: exact-value clustering
			out[g] = suggestFromSample(samples[g], opt.MinJump)
		}
	})
	for g := 0; g < groups; g++ {
		if math.IsInf(out[g], 0) {
			return nil, fmt.Errorf("core: group %q: sampled pairwise distances overflow float64, so no finite d0 fits them", part.Group(g).Name)
		}
	}
	return out, nil
}

// AdvisorRows returns the rows, in ascending order, that
// SuggestThresholds samples from a relation of n rows under opt: a
// deterministic reservoir sample (fixed seed) of opt.SampleSize rows.
// Unlike a systematic stride, it cannot alias with periodic patterns in
// the storage order (e.g. clusters interleaved row by row). The rows
// depend only on n, so a caller can parse just these rows of a body it
// has not parsed; over a relation of at most SampleSize rows the
// advisor samples every row in order, so SuggestThresholds over the
// AdvisorRows rows alone gives the same thresholds, bit for bit.
func AdvisorRows(n int, opt AdvisorOptions) []int {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(1))
	reservoir := make([]int, 0, min(n, opt.SampleSize))
	for i := 0; i < n; i++ {
		if len(reservoir) < opt.SampleSize {
			reservoir = append(reservoir, i)
		} else if j := rng.Intn(i + 1); j < opt.SampleSize {
			reservoir[j] = i
		}
	}
	sort.Ints(reservoir)
	return reservoir
}

// suggestFromSample derives d0 from one group's sample via the
// pairwise-distance scale gap.
func suggestFromSample(pts [][]float64, minJump float64) float64 {
	dists := pairwiseDistances(pts)
	// Drop exact ties; a constant sample yields 0 (exact-value regime).
	positive := dists[:0]
	for _, d := range dists {
		if d > 0 {
			positive = append(positive, d)
		}
	}
	if len(positive) < 2 {
		return 0
	}
	sort.Float64s(positive)

	// Largest multiplicative jump away from the extremes.
	lo := len(positive) / 20
	hi := len(positive) - len(positive)/20 - 1
	if lo < 1 {
		lo = 1
	}
	bestRatio, bestAt := 1.0, -1
	for i := lo; i < hi; i++ {
		if r := positive[i+1] / positive[i]; r > bestRatio {
			bestRatio, bestAt = r, i
		}
	}
	if bestAt >= 0 && bestRatio >= minJump {
		return math.Sqrt(positive[bestAt] * positive[bestAt+1])
	}
	// Unimodal at this resolution: a conservative fraction of the median
	// pairwise distance.
	return positive[len(positive)/2] / 4
}

// pairwiseDistances returns all Euclidean pairwise distances of the
// sample. O(k²) over the sample.
func pairwiseDistances(pts [][]float64) []float64 {
	if len(pts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(pts)*(len(pts)-1)/2)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			var d float64
			for k := range pts[i] {
				dv := pts[i][k] - pts[j][k]
				d += dv * dv
			}
			out = append(out, math.Sqrt(d))
		}
	}
	return out
}
