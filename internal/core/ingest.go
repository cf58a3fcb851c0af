package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cf"
	"repro/internal/cftree"
	"repro/internal/relation"
	"repro/internal/summary"
)

// perTreeLimit splits the Phase I memory budget evenly across the
// attribute groups' trees, with a 1KiB floor so a large partitioning
// cannot starve every tree. Zero budget means unlimited. This is the
// single home of the split policy; batch, incremental and QAR ingest
// all go through it.
func perTreeLimit(memoryLimit, groups int) int {
	if memoryLimit <= 0 {
		return 0
	}
	limit := memoryLimit / groups
	if limit < 1<<10 {
		limit = 1 << 10
	}
	return limit
}

// ingester is the one Phase I implementation (Section 6.1): tuples are
// projected onto every attribute group and inserted into that group's
// adaptive ACF-tree. The batch Miner, the IncrementalMiner and the QAR
// miner all feed their scans through here; what differs between them is
// only where the tuples come from and when the trees are read out.
type ingester struct {
	opt     Options
	part    *relation.Partitioning
	shape   cf.Shape
	nominal []bool
	trees   []*cftree.Tree
	seen    int
	offs    []int     // offset of each group inside a flat projection row
	row     []float64 // reusable flat projection row (all groups, group order)
}

// newIngester builds the per-group trees. nominal groups are clustered
// with threshold 0 so clusters coincide with exact values (Theorem 5.1)
// and their adaptive rebuild is disabled (raising the threshold would
// merge distinct values; the tree is bounded by the domain size anyway).
//
// track enables exact-value histograms on nominal groups in every
// tree's leaf ACFs, which lets a Summary answer nominal co-occurrence
// queries (Theorem 5.2) without a rescan. Tracking never changes the
// clusters produced: tree memory accounting is sized from an untracked
// ACF, so rebuild schedules are identical either way.
//
// expectTuples, when > 0, is the known relation size |r|; it feeds the
// outlier-paging threshold (Section 4.3.1 pages clusters "significantly
// smaller than the frequency threshold"). Streaming ingest passes 0:
// with no |r| there is no frequency threshold to page against, so
// PageOutliers is inert.
func newIngester(part *relation.Partitioning, opt Options, track bool, expectTuples int) *ingester {
	groups := part.NumGroups()
	ing := &ingester{
		opt:     opt,
		part:    part,
		shape:   make(cf.Shape, groups),
		nominal: nominalGroupsOf(part),
		trees:   make([]*cftree.Tree, groups),
		offs:    make([]int, groups),
	}
	stride := 0
	for g := 0; g < groups; g++ {
		ing.shape[g] = part.Group(g).Dims()
		ing.offs[g] = stride
		stride += ing.shape[g]
	}
	ing.row = make([]float64, stride)
	for g := 0; g < groups; g++ {
		threshold := opt.diameterFor(g)
		limit := perTreeLimit(opt.MemoryLimit, groups)
		if ing.nominal[g] {
			threshold = 0
			limit = 0
		}
		cfg := cftree.Config{
			Branching:    opt.Branching,
			LeafCapacity: opt.LeafCapacity,
			Threshold:    threshold,
			MemoryLimit:  limit,
		}
		if opt.PageOutliers && expectTuples > 0 {
			cfg.OutlierN = int64(opt.minSize(expectTuples))/4 + 1
			cfg.Outliers = cftree.NewMemoryOutlierStore()
		}
		if track {
			cfg.Track = ing.nominal
		}
		ing.trees[g] = cftree.New(ing.shape, g, cfg)
	}
	return ing
}

// nominalGroupsOf flags attribute groups containing nominal attributes;
// their geometry is the 0/1 discrete metric of Section 5.1.
func nominalGroupsOf(part *relation.Partitioning) []bool {
	out := make([]bool, part.NumGroups())
	for g := range out {
		for _, a := range part.Group(g).Attrs {
			if part.Schema().Attr(a).Kind == relation.Nominal {
				out[g] = true
				break
			}
		}
	}
	return out
}

// projectRow writes every group projection of tuple into the flat row
// (group g occupies row[offs[g] : offs[g]+shape[g]]). The row layout is
// exactly what cftree.InsertFlat consumes, so one projection pass feeds
// all trees.
func (ing *ingester) projectRow(tuple, row []float64) {
	for g, off := range ing.offs {
		ing.part.Project(g, tuple, row[off:off+ing.shape[g]])
	}
}

// add ingests one full-width tuple.
func (ing *ingester) add(tuple []float64) error {
	if len(tuple) != ing.part.Schema().Width() {
		return fmt.Errorf("core: tuple width %d, schema width %d", len(tuple), ing.part.Schema().Width())
	}
	ing.projectRow(tuple, ing.row)
	for g := range ing.trees {
		ing.trees[g].InsertFlat(ing.row)
	}
	ing.seen++
	return nil
}

// addSource scans an entire relation into the trees — one scan in every
// mode, preserving the paper's single-scan IO property. Both paths run
// tuples through the batched insert kernel (cftree.InsertFlatBatch),
// which defers each tuple's cross-group sum updates into one contiguous
// pass per same-cluster run. With Workers <= 1 the caller projects each
// tuple once into a reused batch buffer and feeds all trees inline. With
// more workers the scan becomes the load-balanced pipeline
// (ingestPipeline): recycled batches fan out to per-lane tree workers,
// lanes own deterministically assigned tree subsets, and spare workers
// parallelize projection — every tree still sees every tuple in scan
// order, so the result is bit-identical to the serial scan at any
// worker count.
func (ing *ingester) addSource(rel relation.Source) error {
	if ing.opt.Workers <= 1 {
		stride := len(ing.row)
		rows := make([]float64, batchTuples*stride)
		n := 0
		flush := func() {
			for g := range ing.trees {
				ing.trees[g].InsertFlatBatch(rows, n, stride)
			}
			n = 0
		}
		err := rel.Scan(func(_ int, tuple []float64) error {
			ing.projectRow(tuple, rows[n*stride:(n+1)*stride])
			n++
			if n == batchTuples {
				flush()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("core: phase I scan: %w", err)
		}
		if n > 0 {
			flush()
		}
		ing.seen += rel.Len()
		return nil
	}

	if err := ingestPipeline(rel, ing.opt.Workers, len(ing.row), ing.trees, ing.projectRow); err != nil {
		return fmt.Errorf("core: phase I scan: %w", err)
	}
	ing.seen += rel.Len()
	return nil
}

// collect reads the per-group leaf ACFs and tree stats. finish=true
// routes through Tree.Finish — re-absorbing paged outliers and ending
// the ingest — and hands back the trees' own ACFs; finish=false
// snapshots via Tree.Leaves and clones, so the stream can continue.
// Either way it fails with cftree.ErrOverflow when a tree stopped on
// overflowing sums or a leaf's sums are not finite, so no summary
// carries +Inf or NaN features.
func (ing *ingester) collect(finish bool) ([][]*cf.ACF, []cftree.Stats, error) {
	leaves := make([][]*cf.ACF, len(ing.trees))
	stats := make([]cftree.Stats, len(ing.trees))
	for g, tr := range ing.trees {
		if err := tr.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: group %d: %w", g, err)
		}
		if finish {
			ls, err := tr.Finish()
			if err != nil {
				return nil, nil, fmt.Errorf("core: finishing tree for group %d: %w", g, err)
			}
			leaves[g] = ls
		} else {
			ls := tr.Leaves()
			out := make([]*cf.ACF, len(ls))
			for i, a := range ls {
				out[i] = a.Clone()
			}
			leaves[g] = out
		}
		if err := finiteSums(leaves[g]); err != nil {
			return nil, nil, fmt.Errorf("core: group %d: %w", g, err)
		}
		stats[g] = tr.Stats()
	}
	return leaves, stats, nil
}

// finiteSums returns cftree.ErrOverflow when a leaf's sums are +Inf or
// NaN. A tree stops when a descent finds no finite child, but a few
// overflowing tuples among ordinary ones never cause that. A per-cell
// cap on the relation would not do: the overflow depends on N and the
// group's dims, not on one value.
func finiteSums(leaves []*cf.ACF) error {
	for _, a := range leaves {
		for g, ss := range a.SS {
			bad := math.IsNaN(ss) || math.IsInf(ss, 0)
			for _, v := range a.LS[g] {
				bad = bad || math.IsNaN(v) || math.IsInf(v, 0)
			}
			if bad {
				return fmt.Errorf("%w: a cluster (N=%d) has non-finite sums on projection group %d", cftree.ErrOverflow, a.N, g)
			}
		}
	}
	return nil
}

// summarize packages the trees' current contents, with provenance, into
// a Summary. The Summary owns its ACFs (leaves must already be
// decoupled from the trees — collect handles both modes).
func (ing *ingester) summarize(leaves [][]*cf.ACF, stats []cftree.Stats) *summary.Summary {
	schema := ing.part.Schema()
	s := &summary.Summary{
		Attrs:  make([]summary.Attr, schema.Width()),
		Groups: make([]summary.Group, ing.part.NumGroups()),
		Tuples: int64(ing.seen),
		Shards: 1,
	}
	for i := 0; i < schema.Width(); i++ {
		a := schema.Attr(i)
		sa := summary.Attr{Name: a.Name, Kind: a.Kind}
		if a.Kind == relation.Nominal && a.Dict != nil {
			// Dictionary values in code order (Dictionary.Values sorts,
			// which would scramble the code mapping).
			sa.Values = make([]string, a.Dict.Len())
			for c := range sa.Values {
				sa.Values[c] = a.Dict.Value(float64(c))
			}
		}
		s.Attrs[i] = sa
	}
	for g := range s.Groups {
		pg := ing.part.Group(g)
		s.Groups[g] = summary.Group{
			Name:          pg.Name,
			Attrs:         append([]int(nil), pg.Attrs...),
			Nominal:       ing.nominal[g],
			D0:            ing.opt.diameterFor(g),
			Threshold:     stats[g].Threshold,
			Rebuilds:      stats[g].Rebuilds,
			OutliersPaged: stats[g].OutliersPaged,
			Bytes:         stats[g].Bytes,
			Clusters:      leaves[g],
		}
	}
	return s
}

// selectClusters turns per-group leaf ACFs into Phase II's frequent
// cluster list: optional global refinement per group (BIRCH's
// agglomerative repair pass, bounded by the group's final threshold),
// the s0 frequency floor, the deterministic (group, centroid, size)
// order, and ID assignment. found is the total post-refinement leaf
// count before frequency filtering (PhaseIStats.ClustersFound). Both
// the batch miner and the summary query engine go through here, which
// is what makes Query(Ingest(r)) land on the byte-identical cluster
// list Mine(r) produces.
func selectClusters(leaves [][]*cf.ACF, thresholds []float64, refine bool, minSize int) (clusters []*Cluster, found int) {
	for g, ls := range leaves {
		if refine {
			ls = cftree.Refine(ls, thresholds[g])
		}
		found += len(ls)
		for _, a := range ls {
			if a.N < int64(minSize) {
				continue
			}
			c := &Cluster{Group: g, ACF: a, Size: a.N}
			c.approxBox()
			clusters = append(clusters, c)
		}
	}
	sort.Slice(clusters, func(i, j int) bool {
		a, b := clusters[i], clusters[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		ca, cb := a.Centroid(), b.Centroid()
		for k := range ca {
			if ca[k] != cb[k] {
				return ca[k] < cb[k]
			}
		}
		return a.N() > b.N()
	})
	for i, c := range clusters {
		c.ID = i
	}
	return clusters, found
}

// Ingest runs the shared Phase I over a whole relation and returns its
// Summary: the persistable, mergeable artifact the query engine
// consumes. One Ingest serves arbitrarily many QuerySummary calls, and
// summaries of disjoint shards combine with summary.Merge.
func Ingest(rel relation.Source, part *relation.Partitioning, opt Options) (*summary.Summary, error) {
	if rel == nil || part == nil {
		return nil, fmt.Errorf("core: nil relation or partitioning")
	}
	if part.Schema() != rel.Schema() {
		return nil, fmt.Errorf("core: partitioning is over a different schema")
	}
	if err := opt.validate(part.NumGroups()); err != nil {
		return nil, err
	}
	ing := newIngester(part, opt, true, rel.Len())
	if err := ing.addSource(rel); err != nil {
		return nil, err
	}
	leaves, stats, err := ing.collect(true)
	if err != nil {
		return nil, err
	}
	return ing.summarize(leaves, stats), nil
}
