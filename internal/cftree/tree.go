// Package cftree implements the adaptive ACF-tree of Section 6.1: a
// height-balanced tree of clustering features in the style of BIRCH
// [ZRL96], whose leaf entries are association clustering features (ACFs)
// and whose internal nodes are plain CFs. The tree is built incrementally
// in a single pass over the data; when a configured memory budget is
// exceeded, the diameter threshold is raised and the tree is rebuilt by
// re-inserting leaf summaries (never rescanning data), optionally paging
// low-support clusters out to an OutlierStore and re-absorbing them once
// the scan completes (Sections 3 and 4.3.1).
package cftree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cf"
	"repro/internal/distance"
)

const inf = math.MaxFloat64

// ErrOverflow reports cluster sums that overflowed float64. SS grows as
// N·v², so magnitudes from about 1e154 up turn it +Inf, and every
// distance and diameter computed from such sums is +Inf or NaN.
var ErrOverflow = errors.New("cftree: cluster sums overflow float64")

// Config controls one ACF-tree.
type Config struct {
	// Branching is the maximum number of children of an internal node
	// (L in the paper's complexity analysis). Defaults to 16.
	Branching int
	// LeafCapacity is the maximum number of ACF entries per leaf.
	// Defaults to 16.
	LeafCapacity int
	// Threshold is the initial diameter threshold d0: a point joins its
	// closest cluster only if the augmented cluster's diameter stays
	// within the threshold. Zero means only identical values merge
	// (the Theorem 5.1 regime for nominal data).
	Threshold float64
	// MemoryLimit caps the estimated heap bytes of the tree. When
	// exceeded, the threshold is raised and the tree rebuilt. Zero means
	// unlimited.
	MemoryLimit int
	// OutlierN: during a rebuild, leaf entries with fewer than OutlierN
	// tuples are paged out to Outliers instead of re-inserted. Zero
	// disables paging.
	OutlierN int64
	// Outliers receives paged-out clusters. Required if OutlierN > 0;
	// a MemoryOutlierStore is installed by default when nil.
	Outliers OutlierStore
	// MaxRebuilds bounds consecutive threshold raises while trying to
	// satisfy MemoryLimit (safety valve). Defaults to 64.
	MaxRebuilds int
	// Track enables exact-value histograms (cf.ACF.NomCounts) on the
	// groups where Track[g] is true. The summary layer uses them to carry
	// nominal co-occurrence counts (Theorem 5.2) without a rescan. Memory
	// accounting deliberately ignores histogram growth (and the tree's
	// key interner) — entryBytes is sized from an untracked ACF — so
	// tracked and untracked ingests follow identical rebuild schedules
	// and produce identical clusters.
	Track []bool
}

func (c Config) withDefaults() Config {
	if c.Branching <= 1 {
		c.Branching = 16
	}
	if c.LeafCapacity <= 0 {
		c.LeafCapacity = 16
	}
	if c.MaxRebuilds <= 0 {
		c.MaxRebuilds = 64
	}
	if c.OutlierN > 0 && c.Outliers == nil {
		c.Outliers = NewMemoryOutlierStore()
	}
	return c
}

// Stats is a snapshot of tree shape and adaptive behaviour, consumed by
// the experiments of Section 7.
type Stats struct {
	Entries       int     // leaf clusters
	Nodes         int     // total tree nodes
	Depth         int     // tree height
	Bytes         int     // estimated heap footprint
	Threshold     float64 // current diameter threshold
	Rebuilds      int     // threshold raises performed
	OutliersPaged int     // summaries ever paged out
	TuplesSeen    int64   // points inserted
}

// Tree is an adaptive ACF-tree over one attribute group of a partitioning.
type Tree struct {
	cfg       Config
	shape     cf.Shape
	own       int
	dims      int
	root      *node
	threshold float64

	bytes      int
	entryBytes int // cost of one ACF entry under this shape
	nodeBytes  int // fixed per-node cost

	numEntries int
	rebuilds   int
	paged      int
	seen       int64
	work       int64
	rebuilding bool

	totalDims int   // Σ shape[g]
	ownOff    int   // offset of the own group inside a flat row
	offs      []int // offset of each group inside a flat row

	intern *cf.Interner // shared nominal-key interner when tracking

	scratch    []float64  // reusable own-group centroid buffer
	rowScratch []float64  // reusable flat projection row for Insert
	path       []pathStep // reusable descent stack for insertTop
	lastEntry  *cf.ACF    // leaf entry the latest payload landed in

	// err is set when a descent finds no child to follow: every
	// distance there is +Inf or NaN. The tree then takes no more
	// payloads, and Err and Finish report it.
	err error
}

// pathStep records one internal node of the descent and the child index
// taken, so insertTop can patch summaries and propagate splits without
// recursing (the recursive version copied the payload struct per level).
type pathStep struct {
	nd  *node
	idx int
}

// New creates an empty tree for clusters over group own of a partitioning
// with the given shape (per-group dimensionalities).
func New(shape cf.Shape, own int, cfg Config) *Tree {
	if own < 0 || own >= len(shape) {
		panic(fmt.Sprintf("cftree: own group %d outside shape of %d groups", own, len(shape)))
	}
	cfg = cfg.withDefaults()
	t := &Tree{
		cfg:       cfg,
		shape:     append(cf.Shape(nil), shape...),
		own:       own,
		dims:      shape[own],
		threshold: cfg.Threshold,
		scratch:   make([]float64, shape[own]),
	}
	t.offs = make([]int, len(shape))
	for g, d := range shape {
		t.offs[g] = t.totalDims
		t.totalDims += d
	}
	t.ownOff = t.offs[own]
	t.rowScratch = make([]float64, t.totalDims)
	for _, tr := range cfg.Track {
		if tr {
			t.intern = cf.NewInterner()
			break
		}
	}
	t.entryBytes = cf.NewACF(shape, own).Bytes() + 8 /* slice slot */
	t.nodeBytes = 64 + cf.NewCF(t.dims).Bytes()
	t.root = newLeaf(t.dims)
	t.bytes = t.nodeBytes
	return t
}

// Err returns the error that stopped the tree, or nil.
func (t *Tree) Err() error { return t.err }

// Own returns the index of the attribute group the tree clusters on.
func (t *Tree) Own() int { return t.own }

// Threshold returns the current diameter threshold (it grows when the
// memory budget forces rebuilds).
func (t *Tree) Threshold() float64 { return t.threshold }

// Stats returns a snapshot of the tree.
func (t *Tree) Stats() Stats {
	return Stats{
		Entries:       t.numEntries,
		Nodes:         t.root.countNodes(),
		Depth:         t.root.depth(),
		Bytes:         t.bytes,
		Threshold:     t.threshold,
		Rebuilds:      t.rebuilds,
		OutliersPaged: t.paged,
		TuplesSeen:    t.seen,
	}
}

// payload is a unit of insertion: either a single tuple given as a flat
// projection row (row != nil) or a whole cluster summary being re-inserted
// during a rebuild (acf != nil).
type payload struct {
	row []float64 // per-group projections of one tuple, concatenated
	acf *cf.ACF
	p   []float64        // own-group vector guiding the descent
	own distance.Summary // own-group summary for the admission test
	// ownOnly defers the row's cross-group LS/SS sums: the target entry
	// folds only its own group (cf.ACF.AddRowOwn) and InsertFlatBatch
	// applies the rest per run through cf.ACF.AddRows. Descent, admission,
	// splits and rebuild accounting read only own-group state and N, all
	// maintained eagerly, so every decision is bit-identical to the fused
	// per-row path.
	ownOnly bool
}

// Insert adds one tuple to the tree. proj[g] must be the tuple's
// projection onto group g for every group of the shape (the owning group's
// projection guides placement; the rest feed the ACF's Eq. 7 sums).
func (t *Tree) Insert(proj [][]float64) {
	if len(proj) != len(t.shape) {
		panic(fmt.Sprintf("cftree: tuple has %d group projections, shape has %d", len(proj), len(t.shape)))
	}
	off := 0
	for g, p := range proj {
		if len(p) != t.shape[g] {
			panic(fmt.Sprintf("cftree: group %d projection dims %d != %d", g, len(p), t.shape[g]))
		}
		copy(t.rowScratch[off:], p)
		off += len(p)
	}
	t.InsertFlat(t.rowScratch)
}

// InsertFlat adds one tuple given as a flat projection row: the per-group
// projections concatenated in group order (shape[0] values, then shape[1],
// …). This is the zero-copy hot path used by the ingest pipeline — the
// row is fully consumed before InsertFlat returns, so callers may reuse
// the backing array. Clustering is identical to Insert.
func (t *Tree) InsertFlat(row []float64) {
	if len(row) != t.totalDims {
		panic(fmt.Sprintf("cftree: flat row has %d dims, shape needs %d", len(row), t.totalDims))
	}
	p := row[t.ownOff : t.ownOff+t.dims]
	var ss float64
	for _, v := range p {
		ss += v * v
	}
	pl := payload{
		row: row,
		p:   p,
		own: distance.Summary{N: 1, LS: p, SS: ss},
	}
	t.insertTop(&pl)
	t.seen++
	t.enforceMemory()
}

// InsertFlatBatch adds n tuples given as consecutive flat projection rows
// (rows holds n×stride floats, stride = the shape's total dims). It is
// the pipeline's per-lane hot path: processing a whole batch against one
// tree keeps that tree's nodes hot in cache, and the cross-group row
// sums — which no placement decision ever reads — are deferred and
// applied per *run* of consecutive tuples admitted into the same cluster
// through the batched cf.ACF.AddRows kernel.
//
// Clustering is bit-identical to n InsertFlat calls: descent, admission,
// splits and the rebuild schedule depend only on own-group sums, N and
// the byte estimate, all maintained eagerly per row (AddRowOwn), and
// each deferred float cell still receives the same additions in tuple
// order. Pending run sums are flushed before any memory-pressure rebuild
// so re-inserted and paged-out ACFs are always complete.
func (t *Tree) InsertFlatBatch(rows []float64, n, stride int) {
	if stride != t.totalDims {
		panic(fmt.Sprintf("cftree: flat rows have stride %d, shape needs %d", stride, t.totalDims))
	}
	var run *cf.ACF
	runStart := 0
	for i := 0; i < n; i++ {
		row := rows[i*stride : (i+1)*stride]
		p := row[t.ownOff : t.ownOff+t.dims]
		var ss float64
		for _, v := range p {
			ss += v * v
		}
		pl := payload{
			row:     row,
			p:       p,
			own:     distance.Summary{N: 1, LS: p, SS: ss},
			ownOnly: true,
		}
		t.insertTop(&pl)
		if t.err != nil {
			return
		}
		t.seen++
		if e := t.lastEntry; e != run {
			if run != nil {
				run.AddRows(rows[runStart*stride:i*stride], stride, i-runStart)
			}
			run, runStart = e, i
		}
		// Same per-insert budget check as InsertFlat/enforceMemory; the
		// flush completes the pending cross-group sums before the rebuild
		// re-inserts (or pages out) whole ACFs.
		if t.cfg.MemoryLimit > 0 && t.bytes > t.cfg.MemoryLimit {
			run.AddRows(rows[runStart*stride:(i+1)*stride], stride, i+1-runStart)
			run, runStart = nil, i+1
			t.enforceMemory()
		}
	}
	if run != nil {
		run.AddRows(rows[runStart*stride:n*stride], stride, n-runStart)
	}
	t.lastEntry = nil
}

// Work returns a deterministic estimate of the insertion work the tree
// has performed: centroid comparisons × own-group dims accumulated over
// every descent (rebuild re-inserts included) plus the row width per
// tuple. It is a pure function of the data and configuration — no
// clocks — so the pipeline can use it to balance trees across lanes
// without perturbing determinism.
func (t *Tree) Work() int64 { return t.work }

// insertACF re-inserts a cluster summary (rebuilds and outlier
// re-absorption).
func (t *Tree) insertACF(a *cf.ACF) {
	s := a.OwnSummary()
	fn := float64(s.N)
	for i, v := range s.LS {
		t.scratch[i] = v / fn
	}
	pl := payload{acf: a, p: t.scratch, own: s}
	t.insertTop(&pl)
}

// insertTop descends iteratively to the target leaf, recording the path in
// a reusable stack, then patches centroid caches and propagates splits
// back up. No allocation in the steady state.
func (t *Tree) insertTop(pl *payload) {
	if t.err != nil {
		return
	}
	nd := t.root
	t.path = t.path[:0]
	for !nd.leaf {
		addSummary(nd.summary, pl.own)
		t.work += int64(len(nd.children)) * int64(t.dims)
		i, _ := nd.closestChild(pl.p)
		if i < 0 {
			// Every child centroid is +Inf or NaN away: the sums
			// overflowed. Stop rather than index child -1.
			t.err = fmt.Errorf("%w: no subtree at a finite distance from a tuple", ErrOverflow)
			return
		}
		t.path = append(t.path, pathStep{nd, i})
		nd = nd.children[i]
	}
	addSummary(nd.summary, pl.own)
	t.work += int64(len(nd.entries))*int64(t.dims) + int64(t.totalDims)
	left, right := t.insertLeaf(nd, pl)

	for k := len(t.path) - 1; k >= 0; k-- {
		p, i := t.path[k].nd, t.path[k].idx
		p.children[i] = left
		if right != nil {
			p.children = append(p.children, nil)
			copy(p.children[i+2:], p.children[i+1:])
			p.children[i+1] = right
			p.recomputeCent()
			if len(p.children) > t.cfg.Branching {
				left, right = t.splitInternal(p)
				continue
			}
			right = nil
		} else {
			// The child's summary absorbed the payload on the way down;
			// refresh its cached centroid row.
			p.refreshChildCent(i)
		}
		left = p
	}
	if right == nil {
		t.root = left
		return
	}
	// Root split: the tree grows one level.
	nr := newInternal(t.dims)
	nr.children = []*node{left, right}
	nr.recomputeSummary()
	t.root = nr
	t.bytes += t.nodeBytes
}

func (t *Tree) insertLeaf(nd *node, pl *payload) (*node, *node) {
	if i, d2 := nd.closestEntry(pl.p); i >= 0 {
		e := nd.entries[i]
		// Admission requires the augmented diameter within the threshold
		// (Section 4.3.1) and additionally the centroid distance within
		// the threshold: the RMS diameter of a large cluster barely
		// grows when one far point is absorbed (ΔD² ≈ 2·dist²/N), so the
		// diameter test alone lets clusters swallow outliers at distance
		// ≈ T·√(N/2). The centroid bound keeps cluster extent ≈ T
		// regardless of N, which the isolation requirement of Dfn 4.2
		// depends on. d2 is the same squared centroid distance the
		// closest-entry scan minimized, so it is reused, not recomputed.
		if d2 <= t.threshold*t.threshold &&
			distance.MergedDiameterRaw(e.N, e.LS[e.Own], e.SS[e.Own],
				pl.own.N, pl.own.LS, pl.own.SS) <= t.threshold {
			t.mergeInto(e, pl)
			t.lastEntry = e
			nd.refreshEntryCent(i)
			return nd, nil
		}
	}
	// New cluster entry (Section 4.3.1: "Otherwise, a new cluster is
	// created").
	var e *cf.ACF
	if pl.acf != nil {
		e = pl.acf
	} else {
		e = cf.NewACFTracked(t.shape, t.own, t.cfg.Track)
		if pl.ownOnly {
			e.AddRowOwn(pl.row, t.intern)
		} else {
			e.AddRow(pl.row, t.intern)
		}
	}
	t.lastEntry = e
	nd.entries = append(nd.entries, e)
	nd.appendEntryCent()
	t.numEntries++
	t.bytes += t.entryBytes
	if len(nd.entries) > t.cfg.LeafCapacity {
		return t.splitLeaf(nd)
	}
	return nd, nil
}

func (t *Tree) mergeInto(e *cf.ACF, pl *payload) {
	if pl.acf != nil {
		e.Merge(pl.acf)
		return
	}
	if pl.ownOnly {
		e.AddRowOwn(pl.row, t.intern)
		return
	}
	e.AddRow(pl.row, t.intern)
}

// splitLeaf redistributes the entries of an overfull leaf around the two
// farthest entries, B+-tree style (Section 4.3.1: "When leaf nodes are
// full, they are split"). Distances come off the (up-to-date) centroid
// cache — bit-identical to recomputing, since each cached value is the
// same LS/N division.
func (t *Tree) splitLeaf(nd *node) (*node, *node) {
	si, sj := nd.farthestEntryPair()
	l, r := newLeaf(t.dims), newLeaf(t.dims)
	ri, rj := nd.centRow(si), nd.centRow(sj)
	for k, e := range nd.entries {
		rk := nd.centRow(k)
		di := sqDistToRow(rk, ri)
		dj := sqDistToRow(rk, rj)
		if di <= dj {
			l.entries = append(l.entries, e)
		} else {
			r.entries = append(r.entries, e)
		}
	}
	l.recomputeSummary()
	r.recomputeSummary()
	t.bytes += t.nodeBytes
	return l, r
}

// splitInternal is splitLeaf for internal nodes, seeded by the two
// farthest child summaries.
func (t *Tree) splitInternal(nd *node) (*node, *node) {
	si, sj := nd.farthestChildPair()
	l, r := newInternal(t.dims), newInternal(t.dims)
	ri, rj := nd.centRow(si), nd.centRow(sj)
	for k, c := range nd.children {
		rk := nd.centRow(k)
		di := sqDistToRow(rk, ri)
		dj := sqDistToRow(rk, rj)
		if di <= dj {
			l.children = append(l.children, c)
		} else {
			r.children = append(r.children, c)
		}
	}
	l.recomputeSummary()
	r.recomputeSummary()
	t.bytes += t.nodeBytes
	return l, r
}

// enforceMemory rebuilds with raised thresholds until the tree fits its
// budget (Section 4.3.1: "If the memory is full, the tree is reduced by
// increasing the diameter threshold and rebuilding the tree").
func (t *Tree) enforceMemory() {
	if t.cfg.MemoryLimit <= 0 || t.rebuilding {
		return
	}
	for i := 0; t.bytes > t.cfg.MemoryLimit && i < t.cfg.MaxRebuilds; i++ {
		t.rebuild()
	}
}

// rebuild re-inserts every leaf summary under a raised threshold, paging
// out low-support clusters when configured.
func (t *Tree) rebuild() {
	acfs := t.root.collectLeaves(nil)
	t.threshold = t.nextThreshold()
	t.rebuilds++

	if t.cfg.OutlierN > 0 {
		kept := acfs[:0]
		for _, a := range acfs {
			if a.N < t.cfg.OutlierN {
				// Put never fails for the in-memory store; a file-store
				// failure leaves the cluster in the tree rather than
				// losing data.
				if err := t.cfg.Outliers.Put(a); err == nil {
					t.paged++
					continue
				}
			}
			kept = append(kept, a)
		}
		acfs = kept
	}

	t.resetRoot()
	t.rebuilding = true
	// Re-insert the biggest clusters first: seeds the new tree with the
	// dominant structure so small summaries merge into it.
	sort.Slice(acfs, func(i, j int) bool { return acfs[i].N > acfs[j].N })
	for _, a := range acfs {
		t.insertACF(a)
	}
	t.rebuilding = false
}

func (t *Tree) resetRoot() {
	t.root = newLeaf(t.dims)
	t.numEntries = 0
	t.bytes = t.nodeBytes
}

// nextThreshold picks the raised diameter threshold for a rebuild: the
// larger of 1.5× the current threshold and the median nearest-neighbour
// merged diameter among co-located leaf entries — an approximation of the
// ZRL96 heuristic that guarantees progress (strictly increasing) while
// tracking the data's own distance scale.
func (t *Tree) nextThreshold() float64 {
	var nnd []float64
	var walk func(nd *node)
	walk = func(nd *node) {
		if !nd.leaf {
			for _, c := range nd.children {
				walk(c)
			}
			return
		}
		for i, e := range nd.entries {
			best := inf
			for j, o := range nd.entries {
				if i == j {
					continue
				}
				if d := distance.MergedDiameter(e.OwnSummary(), o.OwnSummary()); d < best {
					best = d
				}
			}
			if best < inf {
				nnd = append(nnd, best)
			}
		}
	}
	walk(t.root)
	next := t.threshold * 1.5
	if len(nnd) > 0 {
		sort.Float64s(nnd)
		if med := nnd[len(nnd)/2]; med > next {
			next = med
		}
	}
	if next <= t.threshold {
		// Degenerate scale (e.g. threshold 0 and all-identical data):
		// force progress.
		next = t.threshold*2 + 1e-9
	}
	return next
}

// Finish re-absorbs paged-out outliers (Section 4.3.1: clusters "may be
// wrongly categorized as outliers. Hence, outliers need to be re-inserted
// into the complete tree") and returns every leaf cluster. After Finish
// the tree remains usable for NearestCluster queries.
func (t *Tree) Finish() ([]*cf.ACF, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.cfg.Outliers != nil && t.cfg.Outliers.Len() > 0 {
		acfs, err := t.cfg.Outliers.Drain()
		if err != nil {
			return nil, fmt.Errorf("cftree: draining outliers: %w", err)
		}
		t.rebuilding = true // absorb without re-paging mid-stream
		for _, a := range acfs {
			t.insertACF(a)
		}
		t.rebuilding = false
		t.recount()
		t.enforceMemory()
	}
	return t.root.collectLeaves(nil), nil
}

// Leaves returns the current leaf clusters without touching outliers.
func (t *Tree) Leaves() []*cf.ACF { return t.root.collectLeaves(nil) }

// recount re-derives entry count and byte estimate from the tree shape.
// The centroid cache is deliberately excluded, like the nominal
// histograms: accounting must match the pre-cache code so rebuild
// schedules are unchanged.
func (t *Tree) recount() {
	entries, nodes := 0, 0
	var walk func(nd *node)
	walk = func(nd *node) {
		nodes++
		entries += len(nd.entries)
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	t.numEntries = entries
	t.bytes = nodes*t.nodeBytes + entries*t.entryBytes
}

// NearestCluster descends the tree greedily (using it "as a search tree",
// Section 4.3.2) and returns the leaf cluster whose own-group centroid is
// closest to p, together with the Euclidean centroid distance. It returns
// nil when the tree is empty. Because descent is greedy, the result is the
// same locally-nearest cluster the insertion path would have chosen, which
// is exactly the membership rule the paper specifies.
func (t *Tree) NearestCluster(p []float64) (*cf.ACF, float64) {
	nd := t.root
	for !nd.leaf {
		i, _ := nd.closestChild(p)
		if i < 0 {
			return nil, 0
		}
		nd = nd.children[i]
	}
	i, d2 := nd.closestEntry(p)
	if i < 0 {
		return nil, 0
	}
	return nd.entries[i], math.Sqrt(d2)
}

func addSummary(c *cf.CF, s distance.Summary) {
	c.N += s.N
	c.SS += s.SS
	for i, v := range s.LS {
		c.LS[i] += v
	}
}
