package core

import (
	"fmt"
	"math"

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
// adaptive ACF-tree. Ingest (which the batch Miner and the QAR miner
// run) and the IncrementalMiner feed their tuples through here; what
// differs between them is only where the tuples come from and when the
// trees are read out.
type ingester struct {
	opt     Options
	part    *relation.Partitioning
	shape   cf.Shape
	nominal []bool
	trees   []*cftree.Tree
	seen    int
	offs    []int // offset of each group inside a flat projection row
	stride  int   // floats in a flat projection row (all groups, group order)
	// pending buffers the projection rows add has not inserted yet,
	// npending of them, at most batchTuples.
	pending  []float64
	npending int
}

// newIngester builds the per-group trees. nominal groups are clustered
// with threshold 0 so clusters coincide with exact values (Theorem 5.1)
// and their adaptive rebuild is disabled (raising the threshold would
// merge distinct values; the tree is bounded by the domain size anyway).
//
// Every tree's leaf ACFs carry exact-value histograms on the nominal
// groups, which lets a Summary answer nominal co-occurrence queries
// (Theorem 5.2) without a rescan. Tracking never changes the clusters
// produced: tree memory accounting is sized from an untracked ACF, so
// rebuild schedules are identical either way.
//
// expectTuples, when > 0, is the known relation size |r|; it feeds the
// outlier-paging threshold (Section 4.3.1 pages clusters "significantly
// smaller than the frequency threshold"). Streaming ingest passes 0:
// with no |r| there is no frequency threshold to page against, so
// PageOutliers is inert.
func newIngester(part *relation.Partitioning, opt Options, expectTuples int) *ingester {
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
	ing.stride = stride
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
			Track:        ing.nominal,
		}
		if opt.PageOutliers && expectTuples > 0 {
			cfg.OutlierN = int64(opt.Query().minSize(expectTuples))/4 + 1
			cfg.Outliers = cftree.NewMemoryOutlierStore()
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
// exactly what cftree.InsertFlatBatch consumes, so one projection pass
// feeds all trees.
func (ing *ingester) projectRow(tuple, row []float64) {
	for g, off := range ing.offs {
		ing.part.Project(g, tuple, row[off:off+ing.shape[g]])
	}
}

// add ingests one full-width tuple. It projects the tuple into the
// pending batch and inserts the batch, through the insert kernel the
// scan pipeline runs, when it holds batchTuples rows; collect inserts
// a partial one. The kernel's output does not depend on how the tuples
// are batched, so a snapshot taken at any count equals Ingest over the
// tuples seen.
func (ing *ingester) add(tuple []float64) error {
	if len(tuple) != ing.part.Schema().Width() {
		return fmt.Errorf("core: tuple width %d, schema width %d", len(tuple), ing.part.Schema().Width())
	}
	if ing.pending == nil {
		ing.pending = make([]float64, batchTuples*ing.stride)
	}
	ing.projectRow(tuple, ing.pending[ing.npending*ing.stride:(ing.npending+1)*ing.stride])
	ing.npending++
	ing.seen++
	if ing.npending == batchTuples {
		ing.flush()
	}
	return nil
}

// flush inserts the pending rows into every tree.
func (ing *ingester) flush() {
	for _, tr := range ing.trees {
		tr.InsertFlatBatch(ing.pending, ing.npending, ing.stride)
	}
	ing.npending = 0
}

// addSource scans an entire relation into the trees — one scan at any
// worker count, preserving the paper's single-scan IO property. The scan
// is the lane pipeline (ingestPipeline): the caller projects each tuple
// once into a recycled batch and inserts every batch into its own stripe
// of trees while min(Workers, groups) − 1 spawned lanes insert the rest;
// with one lane the caller feeds every tree. Each batch goes through the
// batched insert kernel (cftree.InsertFlatBatch), which defers each
// tuple's cross-group sum updates into one contiguous pass per
// same-cluster run. Every tree still sees every tuple in scan order, so
// the result is bit-identical at any worker count.
func (ing *ingester) addSource(rel relation.Source) error {
	if err := ingestPipeline(rel, ing.opt.Workers, ing.stride, ing.trees, ing.projectRow); err != nil {
		return fmt.Errorf("core: phase I scan: %w", err)
	}
	ing.seen += rel.Len()
	return nil
}

// collect inserts add's pending rows, then reads the per-group leaf
// ACFs and tree stats. finish=true routes through Tree.Finish —
// re-absorbing paged outliers and ending the ingest — and hands back
// the trees' own ACFs; finish=false snapshots via Tree.Leaves and
// clones, so the stream can continue.
// Either way it fails with cftree.ErrOverflow when a tree stopped on
// overflowing sums or a leaf's sums are not finite, so no summary
// carries +Inf or NaN features.
func (ing *ingester) collect(finish bool) ([][]*cf.ACF, []cftree.Stats, error) {
	if ing.npending > 0 {
		ing.flush()
	}
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
	ing := newIngester(part, opt, rel.Len())
	if err := ing.addSource(rel); err != nil {
		return nil, err
	}
	leaves, stats, err := ing.collect(true)
	if err != nil {
		return nil, err
	}
	return ing.summarize(leaves, stats), nil
}
