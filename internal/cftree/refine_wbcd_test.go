package cftree_test

import (
	"fmt"
	"testing"

	"repro/internal/cftree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

// TestRefineMatchesReferenceOnWBCD runs Refine and the full-rescan
// reference over every attribute group of two real summaries of the
// same seeded WBCD relation: a single pass, and a 4-shard merge under a
// 1 MiB Phase I budget. The merge keeps each shard's finer leaves, so
// refinement does most of its merging there. Outputs must be
// bit-identical.
func TestRefineMatchesReferenceOnWBCD(t *testing.T) {
	tuples := 100_000
	if testing.Short() {
		tuples = 20_000
	}
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = tuples
	cfg.Seed = 1
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), "")
	if err != nil {
		t.Fatal(err)
	}
	d0s, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(r *relation.Relation, memory int) *summary.Summary {
		t.Helper()
		opt := core.DefaultOptions()
		opt.DiameterThreshold = 0
		opt.DiameterThresholds = d0s
		opt.MemoryLimit = memory
		opt.Workers = 2
		s, err := core.Ingest(r, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	const shards = 4
	per := (rel.Len() + shards - 1) / shards
	var parts []*summary.Summary
	var ids []string
	for lo := 0; lo < rel.Len(); lo += per {
		shard := relation.NewRelation(rel.Schema())
		for i := lo; i < min(lo+per, rel.Len()); i++ {
			shard.MustAppend(rel.Tuple(i))
		}
		parts = append(parts, ingest(shard, 1<<20))
		ids = append(ids, fmt.Sprintf("wbcd/shard-%04d", len(ids)))
	}
	merged, err := summary.MergeAll(parts, ids)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		sum  *summary.Summary
	}{
		{"single pass", ingest(rel, 0)},
		{"4-shard merge", merged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaves, refined := 0, 0
			for g, grp := range tc.sum.Groups {
				got := cftree.Refine(grp.Clusters, grp.Threshold)
				if diff := cftree.SameACFs(got, cftree.RefineReference(grp.Clusters, grp.Threshold)); diff != "" {
					t.Fatalf("group %d (%s, %d leaves): %s", g, grp.Name, len(grp.Clusters), diff)
				}
				leaves += len(grp.Clusters)
				refined += len(got)
			}
			t.Logf("%d leaves refined to %d", leaves, refined)
		})
	}
}
