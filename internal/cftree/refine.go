package cftree

import (
	"sort"

	"repro/internal/cf"
	"repro/internal/distance"
)

// Refine performs the global clustering pass of BIRCH (ZRL96's Phase 3,
// which the paper inherits via "the clustering algorithm is unchanged
// from Birch"): leaf clusters produced by the local, insertion-order-
// sensitive tree construction are agglomeratively merged whenever the
// union still satisfies the admission criteria (merged diameter and
// centroid separation within the threshold). This repairs boundary
// fragments — duplicate leaf entries for the same natural cluster created
// by misdirected descents, or the finer leaves a multi-shard merge keeps
// — without touching the data.
//
// The merge order is greedy: each round merges the admissible pair with
// the smallest merged diameter, ties going to the last pair in (i, j)
// order, until no pair is admissible. A pair is admissible only when
// both comparisons hold, so a NaN diameter (sums overflowed to +Inf)
// never qualifies.
//
// The input slice is not modified; merged ACFs are combined in place of
// their sources in the returned slice. Every pair's diameter and
// centroid test is a pure function of the two clusters' own-group sums,
// and a merge changes only one cluster, so each cluster caches its best
// partner: a call evaluates the k(k−1)/2 pairs of k = len(acfs) once,
// then per merge O(k) pairs plus one row rescan per cluster whose cached
// partner took part. The worst case stays O(k³), like rescanning every
// pair each round; on real leaves it is close to O(k²). Memory is O(k).
func Refine(acfs []*cf.ACF, threshold float64) []*cf.ACF {
	if len(acfs) < 2 {
		return acfs
	}
	r := refiner{
		work:      make([]*cf.ACF, len(acfs)),
		own:       make([]distance.Summary, len(acfs)),
		partner:   make([]int, len(acfs)),
		diam:      make([]float64, len(acfs)),
		threshold: threshold,
	}
	// Work on clones so callers keep their originals.
	for i, a := range acfs {
		r.work[i] = a.Clone()
		r.own[i] = r.work[i].OwnSummary()
	}
	for i := range r.work {
		r.scanRow(i)
	}
	for {
		bi := -1
		for i, p := range r.partner {
			if p >= 0 && (bi < 0 || r.diam[i] <= r.diam[bi]) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		r.merge(bi, r.partner[bi])
	}
	work := r.work

	// Deterministic order: by centroid, then by size.
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

// refiner is Refine's working set. Row i caches partner[i], its best
// admissible partner j > i (smallest merged diameter, ties to the larger
// j; -1 when none), and diam[i], that pair's merged diameter (the
// threshold when there is no partner). The row with the smallest diam,
// ties to the larger i, then holds exactly the pair a full scan in
// (i, j) order would keep last.
type refiner struct {
	work      []*cf.ACF
	own       []distance.Summary // work[i].OwnSummary(), refreshed on merge
	partner   []int
	diam      []float64
	threshold float64
}

// admissible reports whether the clusters own[i] and own[j] may merge
// at merged diameter d: the diameter and the centroid separation (the
// same bound as leaf admission) both within the threshold. Both
// comparisons are false for NaN.
func (r *refiner) admissible(d float64, i, j int) bool {
	return d <= r.threshold &&
		centroidDist2(r.own[i], r.own[j]) <= r.threshold*r.threshold
}

// scanRow recomputes row i's cached partner from every pair (i, j > i).
func (r *refiner) scanRow(i int) {
	bj, best := -1, r.threshold
	for j := i + 1; j < len(r.own); j++ {
		if d := distance.MergedDiameter(r.own[i], r.own[j]); d <= best && r.admissible(d, i, j) {
			bj, best = j, d
		}
	}
	r.partner[i], r.diam[i] = bj, best
}

// offer updates row i's cached partner with the one changed pair
// (i, j), j > i, whose other pairs are unchanged.
func (r *refiner) offer(i, j int) {
	d := distance.MergedDiameter(r.own[i], r.own[j])
	if (d < r.diam[i] || d == r.diam[i] && j > r.partner[i]) && r.admissible(d, i, j) {
		r.partner[i], r.diam[i] = j, d
	}
}

// merge folds cluster bj into bi (bi < bj), deletes row bj and repairs
// the cache: row bi and every row whose partner was bi or bj are
// rescanned, rows below bi see their one changed pair (i, bi), and
// partner indices above bj shift down with the deletion. No other
// pair's value changed.
func (r *refiner) merge(bi, bj int) {
	r.work[bi].Merge(r.work[bj])
	r.own[bi] = r.work[bi].OwnSummary()
	r.work = append(r.work[:bj], r.work[bj+1:]...)
	r.own = append(r.own[:bj], r.own[bj+1:]...)
	r.partner = append(r.partner[:bj], r.partner[bj+1:]...)
	r.diam = append(r.diam[:bj], r.diam[bj+1:]...)
	for i, p := range r.partner {
		switch {
		case i == bi || p == bi || p == bj:
			r.scanRow(i)
			continue
		case p > bj:
			r.partner[i] = p - 1
		}
		if i < bi {
			r.offer(i, bi)
		}
	}
}

// centroidDist2 returns the squared Euclidean distance between the
// centroids of two summaries.
func centroidDist2(a, b distance.Summary) float64 {
	return sqDistCentroids(a.LS, a.N, b.LS, b.N)
}
