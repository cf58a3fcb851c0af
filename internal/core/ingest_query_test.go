package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cftree"
	"repro/internal/relation"
	"repro/internal/summary"
)

// sameRules asserts bit-for-bit equality of the rule lists.
func sameRules(t *testing.T, got, want []Rule, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rules, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: rule %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// sameClusterGeometry asserts the cluster lists agree on everything the
// rules are built from: identity, group, mass, and exact sums.
func sameClusterGeometry(t *testing.T, got, want []*Cluster, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.ID != b.ID || a.Group != b.Group || a.N() != b.N() {
			t.Fatalf("%s: cluster %d identity differs: (%d,%d,%d) vs (%d,%d,%d)",
				label, i, a.ID, a.Group, a.N(), b.ID, b.Group, b.N())
		}
		if !reflect.DeepEqual(a.ACF.LS, b.ACF.LS) || !reflect.DeepEqual(a.ACF.SS, b.ACF.SS) {
			t.Fatalf("%s: cluster %d sums differ", label, i)
		}
	}
}

// TestQueryIngestMatchesMine pins the tentpole invariant: over the same
// relation and options, Query(Ingest(r)) ≡ Mine(r) with PostScan off,
// bit for bit, at every worker count — clusters, rules and Phase I
// counts. The nominal case holds because Mine without PostScan takes
// its Theorem 5.2 co-occurrence from the summary's histograms too.
func TestQueryIngestMatchesMine(t *testing.T) {
	nominal := DefaultOptions()
	nominal.DiameterThreshold = 1000
	nominal.FrequencyFraction = 0.05
	nominal.DegreeFactor = 2.5
	for _, tc := range []struct {
		name string
		rel  *relation.Relation
		opt  Options
	}{
		{"interval", plantedXY(rand.New(rand.NewSource(7)), 120, 20), plantedOptions()},
		{"nominal", nominalIntervalRelation(rand.New(rand.NewSource(5)), 400, 0.9), nominal},
	} {
		part := relation.SingletonPartitioning(tc.rel.Schema())
		for _, w := range []int{1, 2, 4, 8} {
			opt := tc.opt
			opt.PostScan = false
			opt.Workers = w
			label := fmt.Sprintf("%s workers=%d", tc.name, w)

			m, err := NewMiner(tc.rel, part, opt)
			if err != nil {
				t.Fatalf("%s NewMiner: %v", label, err)
			}
			mined, err := m.Mine()
			if err != nil {
				t.Fatalf("%s Mine: %v", label, err)
			}
			if len(mined.Rules) == 0 {
				t.Fatalf("%s: Mine emitted no rules; the comparison is vacuous", label)
			}

			s, err := Ingest(tc.rel, part, opt)
			if err != nil {
				t.Fatalf("%s Ingest: %v", label, err)
			}
			queried, err := QuerySummary(s, opt.Query())
			if err != nil {
				t.Fatalf("%s QuerySummary: %v", label, err)
			}

			sameClusterGeometry(t, queried.Clusters, mined.Clusters, label)
			sameRules(t, queried.Rules, mined.Rules, label)
			q1, m1 := queried.PhaseI, mined.PhaseI
			q1.Duration, m1.Duration = 0, 0
			if q1 != m1 {
				t.Errorf("%s: PhaseI %+v vs %+v", label, q1, m1)
			}
			// Serializing the summary must not perturb the answer.
			enc, err := summary.Encode(s)
			if err != nil {
				t.Fatalf("%s Encode: %v", label, err)
			}
			dec, err := summary.Decode(enc)
			if err != nil {
				t.Fatalf("%s Decode: %v", label, err)
			}
			requeried, err := QuerySummary(dec, opt.Query())
			if err != nil {
				t.Fatalf("%s QuerySummary(decoded): %v", label, err)
			}
			sameRules(t, requeried.Rules, mined.Rules, label+" decoded")
		}
	}
}

// shardSchema builds a fresh Job/Salary schema so each shard grows its
// own nominal dictionary, in its own first-seen order — the situation
// Merge's code remapping exists for.
func shardSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
}

// appendJobs appends count copies of (job, salary) pairs. Salaries are
// exact integers so ACF sums are exact in float64 and therefore
// independent of accumulation order — the property the sharded/merged
// comparison leans on.
func appendJobs(r *relation.Relation, pairs [][2]interface{}) {
	dict := r.Schema().Attr(0).Dict
	for _, p := range pairs {
		job := p[0].(string)
		salary := p[1].(float64)
		r.MustAppend([]float64{dict.Code(job), salary})
	}
}

// TestShardedMergeMatchesSinglePass ingests four shards independently —
// each with its own dictionary in a different code order — merges the
// summaries, and checks the merged query agrees with a single-pass
// ingest of the concatenated relation on tuple counts, cluster
// structure and emitted rules.
func TestShardedMergeMatchesSinglePass(t *testing.T) {
	// Per-shard tuple blocks. Shards deliberately introduce the jobs in
	// different orders (shard 1 starts with Mgr, shard 2 with Eng) so
	// dictionary codes disagree across shards.
	blocks := [][][2]interface{}{
		{{"DBA", 40000.0}, {"DBA", 40000.0}, {"DBA", 40000.0}, {"Mgr", 90000.0}, {"Mgr", 90000.0}},
		{{"Mgr", 90000.0}, {"DBA", 40000.0}, {"DBA", 40000.0}, {"Eng", 60000.0}, {"Eng", 60000.0}},
		{{"Eng", 60000.0}, {"Eng", 60000.0}, {"DBA", 40000.0}, {"Mgr", 90000.0}, {"DBA", 40000.0}},
		{{"DBA", 40000.0}, {"Eng", 60000.0}, {"Mgr", 90000.0}, {"Mgr", 90000.0}, {"DBA", 40000.0}},
	}

	opt := plantedOptions()
	opt.PostScan = false
	q := opt.Query()
	q.GlobalRefine = true // re-join the per-shard interval clusters

	// Single pass over the concatenation, in shard order.
	whole := relation.NewRelation(shardSchema())
	for _, b := range blocks {
		appendJobs(whole, b)
	}
	single, err := Ingest(whole, relation.SingletonPartitioning(whole.Schema()), opt)
	if err != nil {
		t.Fatalf("single-pass Ingest: %v", err)
	}

	// Independent shard ingests, folded left to right (matching the
	// concatenation order, so first-seen dictionary order coincides).
	var merged *summary.Summary
	for i, b := range blocks {
		r := relation.NewRelation(shardSchema())
		appendJobs(r, b)
		s, err := Ingest(r, relation.SingletonPartitioning(r.Schema()), opt)
		if err != nil {
			t.Fatalf("shard %d Ingest: %v", i, err)
		}
		if merged == nil {
			merged = s
			continue
		}
		merged, err = summary.Merge(merged, s)
		if err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}

	if merged.Tuples != single.Tuples {
		t.Fatalf("merged Tuples = %d, single-pass = %d", merged.Tuples, single.Tuples)
	}
	if merged.Shards != len(blocks) {
		t.Errorf("merged Shards = %d, want %d", merged.Shards, len(blocks))
	}

	mres, err := QuerySummary(merged, q)
	if err != nil {
		t.Fatalf("QuerySummary(merged): %v", err)
	}
	sres, err := QuerySummary(single, q)
	if err != nil {
		t.Fatalf("QuerySummary(single): %v", err)
	}

	sameClusterGeometry(t, mres.Clusters, sres.Clusters, "merged vs single")
	sameRules(t, mres.Rules, sres.Rules, "merged vs single")
	if len(mres.Rules) == 0 {
		t.Fatal("differential test degenerated: no rules emitted")
	}

	// The merged summary must also survive the codec.
	enc, err := summary.Encode(merged)
	if err != nil {
		t.Fatalf("Encode(merged): %v", err)
	}
	dec, err := summary.Decode(enc)
	if err != nil {
		t.Fatalf("Decode(merged): %v", err)
	}
	dres, err := QuerySummary(dec, q)
	if err != nil {
		t.Fatalf("QuerySummary(decoded merged): %v", err)
	}
	sameRules(t, dres.Rules, sres.Rules, "decoded merged vs single")
}

// jobSalaryRelation plants exact-valued nominal⇒interval associations:
// DBA salaries split 10:5 between 40000 and 46000, Mgr always 90000.
// Exact values make the post-scan assignment and the ingest-time
// histogram count the same tuples, so batch and summary degrees must
// agree bit for bit.
func jobSalaryRelation() *relation.Relation {
	r := relation.NewRelation(shardSchema())
	dict := r.Schema().Attr(0).Dict
	for i := 0; i < 10; i++ {
		r.MustAppend([]float64{dict.Code("DBA"), 40000})
	}
	for i := 0; i < 5; i++ {
		r.MustAppend([]float64{dict.Code("DBA"), 46000})
	}
	for i := 0; i < 15; i++ {
		r.MustAppend([]float64{dict.Code("Mgr"), 90000})
	}
	return r
}

// TestQueryNominalMatchesPostScanMine checks that summary-derived
// co-occurrence (Theorem 5.2 from ingest-time histograms) reproduces the
// batch pipeline's post-scan degrees on nominal data.
func TestQueryNominalMatchesPostScanMine(t *testing.T) {
	rel := jobSalaryRelation()
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = true // nominal degrees from the post-scan's counts

	m, err := NewMiner(rel, part, opt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	mined, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	qopt := opt
	qopt.PostScan = false
	s, err := Ingest(rel, part, qopt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	queried, err := QuerySummary(s, qopt.Query())
	if err != nil {
		t.Fatalf("QuerySummary: %v", err)
	}

	// Rule structure and degrees must match; Support is a post-scan
	// extra the summary path does not count (-1 there).
	if len(queried.Rules) != len(mined.Rules) {
		t.Fatalf("rules: %d vs %d", len(queried.Rules), len(mined.Rules))
	}
	if len(mined.Rules) == 0 {
		t.Fatal("differential test degenerated: no rules emitted")
	}
	for i := range mined.Rules {
		a, b := queried.Rules[i], mined.Rules[i]
		if !intsEqual(a.Antecedent, b.Antecedent) || !intsEqual(a.Consequent, b.Consequent) || a.Degree != b.Degree {
			t.Fatalf("rule %d: %+v vs %+v", i, a, b)
		}
		if a.Support != -1 {
			t.Errorf("rule %d: summary query counted support %d", i, a.Support)
		}
	}
}

// TestIncrementalNominal streams nominal data through the incremental
// miner — historically rejected, now served by summary co-occurrence —
// and checks the snapshot agrees with the batch post-scan pipeline.
func TestIncrementalNominal(t *testing.T) {
	rel := jobSalaryRelation()
	part := relation.SingletonPartitioning(rel.Schema())

	batchOpt := plantedOptions()
	batchOpt.PostScan = true
	m, err := NewMiner(rel, part, batchOpt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	mined, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	opt := plantedOptions()
	opt.PostScan = false
	inc, err := NewIncrementalMiner(part, opt)
	if err != nil {
		t.Fatalf("NewIncrementalMiner: %v", err)
	}
	if err := rel.Scan(func(_ int, tuple []float64) error { return inc.Add(tuple) }); err != nil {
		t.Fatalf("Add: %v", err)
	}
	snap, err := inc.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	if len(snap.Rules) != len(mined.Rules) {
		t.Fatalf("rules: %d vs %d", len(snap.Rules), len(mined.Rules))
	}
	if len(mined.Rules) == 0 {
		t.Fatal("differential test degenerated: no rules emitted")
	}
	for i := range mined.Rules {
		a, b := snap.Rules[i], mined.Rules[i]
		if !intsEqual(a.Antecedent, b.Antecedent) || !intsEqual(a.Consequent, b.Consequent) || a.Degree != b.Degree {
			t.Fatalf("rule %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestQueryOptionsVary queries one Summary under several Phase II
// configurations and checks each answer against a fresh Mine configured
// the same way — the "ingest once, query many" contract.
func TestQueryOptionsVary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := plantedXY(rng, 100, 30)
	part := relation.SingletonPartitioning(rel.Schema())

	base := plantedOptions()
	base.PostScan = false
	s, err := Ingest(rel, part, base)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}

	variants := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"tight-degree", func(o *Options) { o.DegreeFactor = 0.5 }},
		{"loose-graph", func(o *Options) { o.GraphFactor = 2 }},
		{"high-frequency", func(o *Options) { o.FrequencyFraction = 0.2 }},
		{"unary-rules", func(o *Options) { o.MaxAntecedent = 1; o.MaxConsequent = 1 }},
		{"refined", func(o *Options) { o.GlobalRefine = true }},
	}
	for _, v := range variants {
		opt := base
		v.mut(&opt)
		// Ingest-time knobs are untouched: opt must build the same trees
		// base did, or the comparison is vacuous.
		m, err := NewMiner(rel, part, opt)
		if err != nil {
			t.Fatalf("%s: NewMiner: %v", v.name, err)
		}
		mined, err := m.Mine()
		if err != nil {
			t.Fatalf("%s: Mine: %v", v.name, err)
		}
		queried, err := QuerySummary(s, opt.Query())
		if err != nil {
			t.Fatalf("%s: QuerySummary: %v", v.name, err)
		}
		sameClusterGeometry(t, queried.Clusters, mined.Clusters, v.name)
		sameRules(t, queried.Rules, mined.Rules, v.name)
	}
}

// TestIngestRejectsOverflowingSums: a relation whose cluster sums
// overflow float64 fails Phase I with cftree.ErrOverflow instead of
// panicking on a lane goroutine or yielding a summary with +Inf or NaN
// features. "descent" leads with 40 overflowing rows, so a descent finds
// every child centroid +Inf or NaN away; "leaf sums" holds three, so
// every descent still finds a finite child and only the leaves' sums
// show the overflow.
func TestIngestRejectsOverflowingSums(t *testing.T) {
	for _, tc := range []struct {
		name string
		big  int
	}{{"descent", 40}, {"leaf sums", 3}} {
		rel := relation.NewRelation(relation.MustSchema(
			relation.Attribute{Name: "A", Kind: relation.Interval},
			relation.Attribute{Name: "B", Kind: relation.Interval},
		))
		for i := 0; i < tc.big; i++ {
			rel.MustAppend([]float64{1e160, 1e160})
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 400; i++ {
			rel.MustAppend([]float64{float64(rng.Intn(50)), float64(rng.Intn(50))})
		}
		part := relation.SingletonPartitioning(rel.Schema())
		for _, workers := range []int{1, 2} {
			opt := DefaultOptions()
			opt.DiameterThreshold = 0.1
			opt.Workers = workers
			if _, err := Ingest(rel, part, opt); !errors.Is(err, cftree.ErrOverflow) {
				t.Errorf("%s, workers=%d: Ingest error %v, want cftree.ErrOverflow", tc.name, workers, err)
			}
		}
		opt := DefaultOptions()
		opt.PostScan = false
		im, err := NewIncrementalMiner(part, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Scan(func(_ int, tuple []float64) error { return im.Add(tuple) }); err != nil {
			t.Fatal(err)
		}
		if _, err := im.Summary(); !errors.Is(err, cftree.ErrOverflow) {
			t.Errorf("%s: incremental Summary error %v, want cftree.ErrOverflow", tc.name, err)
		}
	}
}

// TestIngestPagedOutliersConserveTuples: with PageOutliers and a Phase I
// budget, every group's clusters must hold all the tuples the summary
// counts. Absorbing the paged outliers at the end of the scan can
// overflow the budget again, and the closing rebuild pages some back
// out; those clusters belong in the summary too, not in a store nobody
// drains.
func TestIngestPagedOutliersConserveTuples(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.NewRelation(relation.MustSchema(
			relation.Attribute{Name: "x", Kind: relation.Interval},
			relation.Attribute{Name: "y", Kind: relation.Interval},
		))
		for i := 0; i < 1000; i++ {
			rel.MustAppend([]float64{100 + rng.Float64(), 300 + rng.Float64()})
			rel.MustAppend([]float64{500 + rng.Float64(), 700 + rng.Float64()})
		}
		for i := 0; i < 50; i++ {
			rel.MustAppend([]float64{rng.Float64() * 1e7, rng.Float64() * 1e7})
		}
		opt := DefaultOptions()
		opt.PostScan = false
		opt.PageOutliers = true
		opt.DiameterThreshold = 1
		opt.MemoryLimit = 6 << 10
		s, err := Ingest(rel, relation.SingletonPartitioning(rel.Schema()), opt)
		if err != nil {
			t.Fatalf("seed %d: Ingest: %v", seed, err)
		}
		paged := 0
		for _, g := range s.Groups {
			var n int64
			for _, a := range g.Clusters {
				n += a.N
			}
			if n != s.Tuples {
				t.Errorf("seed %d, group %s: clusters hold %d tuples, summary counts %d", seed, g.Name, n, s.Tuples)
			}
			paged += g.OutliersPaged
		}
		if paged == 0 {
			t.Fatalf("seed %d: no outliers paged; the workload no longer exercises paging", seed)
		}
	}
}

// TestQueryBaseLeavesSummaryUntouched: QueryBase works on the summary's
// own ACFs, not a clone (a server memoizes bases beside the summary they
// came from), so no query, with or without global refinement and with
// every query mode on, may change one encoded byte of it.
func TestQueryBaseLeavesSummaryUntouched(t *testing.T) {
	rel := mixedNominalRelation(rand.New(rand.NewSource(93)), 600)
	opt := DefaultOptions()
	opt.PostScan = false
	opt.DiameterThresholds = []float64{0, 0, 4, 5}
	opt.FrequencyFraction = 0.04
	s, err := Ingest(rel, relation.SingletonPartitioning(rel.Schema()), opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	before, err := summary.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, refine := range []bool{true, false} {
		q := opt.Query()
		q.GlobalRefine = refine
		q.Measures = true
		q.SweepFactors = []float64{0.5, 1}
		q.TopK = 5
		res, err := QuerySummary(s, q)
		if err != nil {
			t.Fatalf("GlobalRefine=%v: QuerySummary: %v", refine, err)
		}
		if len(res.Rules) == 0 {
			t.Fatalf("GlobalRefine=%v: no rules; the query reads too little of the summary", refine)
		}
		after, err := summary.Encode(s)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("GlobalRefine=%v: the query changed the summary's bytes", refine)
		}
	}
}
