package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/summary"
)

// The query-mode differential suite. The contract under test: every
// query mode (measures, group filters, sweep, top-k) is exactly
// deterministic post-processing of the unfiltered rule set — the fused
// engine answer equals the exported helpers applied, in the documented
// order, to the base answer, bit for bit, at every worker count,
// batch-ingested or incremental, merged-shard or single-pass.

// kitchenRelation builds a mixed nominal/interval relation with exact
// integral values, so ACF sums are exact in float64 and therefore
// independent of accumulation order — shard merges and worker counts
// cannot perturb anything. Three jobs with distinct salary bands and a
// correlated age column give multi-group rules for the filters to bite
// on.
func kitchenSchema() *relation.Schema {
	s := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "Age", Kind: relation.Interval},
		relation.Attribute{Name: "Salary", Kind: relation.Interval},
	)
	// Pre-register every job name in a fixed order so dictionary codes —
	// and with them cluster numbering — coincide between shards, splits
	// and the whole relation regardless of first-seen order. Without
	// this the merged-vs-single differentials would compare isomorphic
	// rule sets under permuted cluster IDs.
	for _, name := range []string{"DBA", "Mgr", "Eng"} {
		s.Attr(0).Dict.Code(name)
	}
	return s
}

func kitchenRelation(rng *rand.Rand, n int) *relation.Relation {
	r := relation.NewRelation(kitchenSchema())
	dict := r.Schema().Attr(0).Dict
	jobs := []struct {
		name   string
		age    float64
		salary float64
	}{
		{"DBA", 30, 40000},
		{"Mgr", 45, 90000},
		{"Eng", 35, 60000},
	}
	for i := 0; i < n; i++ {
		j := jobs[rng.Intn(len(jobs))]
		// Integral jitter keeps values exact; DBAs occasionally earn the
		// nearby alternative so some degrees are strictly between 0 and 1.
		age := j.age + float64(rng.Intn(3))
		salary := j.salary
		if j.name == "DBA" && rng.Intn(3) == 0 {
			salary = 46000
		}
		r.MustAppend([]float64{dict.Code(j.name), age, salary})
	}
	return r
}

// kitchenQuery is the base (no modes) query configuration for the
// kitchen relation.
func kitchenQuery() QueryOptions {
	q := plantedOptions().Query()
	q.DegreeFactor = 1
	return q
}

// modeTable enumerates the query modes the differential covers; every
// entry is applied on top of kitchenQuery.
func modeTable() []struct {
	name string
	mut  func(*QueryOptions)
} {
	return []struct {
		name string
		mut  func(*QueryOptions)
	}{
		{"measures", func(q *QueryOptions) { q.Measures = true }},
		{"ante-filter", func(q *QueryOptions) { q.AntecedentGroups = []string{"Job"} }},
		{"cons-filter", func(q *QueryOptions) { q.ConsequentGroups = []string{"Salary"} }},
		{"both-filters", func(q *QueryOptions) {
			q.AntecedentGroups = []string{"Job"}
			q.ConsequentGroups = []string{"Age", "Salary"}
		}},
		{"sweep", func(q *QueryOptions) { q.SweepFactors = []float64{0.25, 0.5, 1} }},
		{"topk", func(q *QueryOptions) { q.TopK = 3 }},
		{"everything", func(q *QueryOptions) {
			q.Measures = true
			q.AntecedentGroups = []string{"Job"}
			q.ConsequentGroups = []string{"Salary"}
			q.SweepFactors = []float64{0.5, 1}
			q.TopK = 2
		}},
	}
}

// postProcess applies the exported helpers to a base (mode-free) result
// in the documented pipeline order. This deliberately re-states the
// composition instead of calling the engine's own WithQueryModes: if
// the engine ever fuses a mode into rule formation for speed, the
// differential still pins the semantics.
func postProcess(t *testing.T, res *Result, q QueryOptions, s *summary.Summary) {
	t.Helper()
	if q.Measures {
		AnnotateMeasures(res)
	}
	if len(q.AntecedentGroups) > 0 || len(q.ConsequentGroups) > 0 {
		resolve := func(names []string) []int {
			out := make([]int, len(names))
			for i, n := range names {
				g, ok := s.GroupIndex(n)
				if !ok {
					t.Fatalf("unknown group %q", n)
				}
				out[i] = g
			}
			return out
		}
		res.Rules = FilterRules(res.Rules, res.Clusters,
			resolve(q.AntecedentGroups), resolve(q.ConsequentGroups))
	}
	if len(q.SweepFactors) > 0 {
		res.Sweep = SweepRules(res.Rules, q.SweepFactors)
	}
	if q.TopK > 0 {
		res.Rules = res.TopRules(q.TopK)
	}
}

// sameModeOutput asserts bit-for-bit equality of everything a query
// mode can influence: rules (with measure annotations) and sweep.
func sameModeOutput(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Fatalf("%s: rules differ:\n got  %+v\n want %+v", label, got.Rules, want.Rules)
	}
	if !reflect.DeepEqual(got.Sweep, want.Sweep) {
		t.Fatalf("%s: sweep differs:\n got  %+v\n want %+v", label, got.Sweep, want.Sweep)
	}
}

// TestQueryModesAreDeterministicPostProcessing is the tentpole
// differential: fused engine output ≡ helper post-processing of the
// base answer, for every mode, at workers 1, 2, 4 and 8.
func TestQueryModesAreDeterministicPostProcessing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rel := kitchenRelation(rng, 400)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false
	s, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}

	var serial *Result // workers=1 "everything" output, for cross-worker pinning
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range modeTable() {
			q := kitchenQuery()
			q.Workers = workers
			base, err := QuerySummary(s, q)
			if err != nil {
				t.Fatalf("workers=%d base query: %v", workers, err)
			}
			mode.mut(&q)
			fused, err := QuerySummary(s, q)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, mode.name, err)
			}
			if len(base.Rules) == 0 {
				t.Fatal("differential degenerated: no base rules")
			}
			postProcess(t, base, q, s)
			label := mode.name + "/workers=" + string(rune('0'+workers))
			sameModeOutput(t, fused, base, label)

			if mode.name == "everything" {
				if serial == nil {
					serial = fused
				} else {
					sameModeOutput(t, fused, serial, label+" vs workers=1")
				}
			}
		}
	}
}

// TestQueryModesMergedShards: the fused mode output over a merged-shard
// summary equals the output over a single-pass summary of the same
// data — measures included, since ACF.N is additive.
func TestQueryModesMergedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	whole := relation.NewRelation(kitchenSchema())
	var shards []*summary.Summary
	opt := plantedOptions()
	opt.PostScan = false
	for sh := 0; sh < 3; sh++ {
		shard := kitchenRelation(rng, 150)
		s, err := Ingest(shard, relation.SingletonPartitioning(shard.Schema()), opt)
		if err != nil {
			t.Fatalf("shard %d Ingest: %v", sh, err)
		}
		shards = append(shards, s)
		if err := shard.Scan(func(_ int, tuple []float64) error {
			// Re-encode through the whole relation's dictionary: shard
			// dictionaries grew independently.
			name := shard.Schema().Attr(0).Dict.Value(tuple[0])
			return whole.Append([]float64{whole.Schema().Attr(0).Dict.Code(name), tuple[1], tuple[2]})
		}); err != nil {
			t.Fatalf("shard %d copy: %v", sh, err)
		}
	}
	merged := shards[0]
	var err error
	for _, s := range shards[1:] {
		if merged, err = summary.Merge(merged, s); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	single, err := Ingest(whole, relation.SingletonPartitioning(whole.Schema()), opt)
	if err != nil {
		t.Fatalf("single-pass Ingest: %v", err)
	}

	for _, mode := range modeTable() {
		q := kitchenQuery()
		q.GlobalRefine = true // re-join per-shard interval clusters
		mode.mut(&q)
		mres, err := QuerySummary(merged, q)
		if err != nil {
			t.Fatalf("%s merged: %v", mode.name, err)
		}
		sres, err := QuerySummary(single, q)
		if err != nil {
			t.Fatalf("%s single: %v", mode.name, err)
		}
		sameModeOutput(t, mres, sres, mode.name+" merged vs single")
	}
}

// TestQueryModesBatchVsIncremental: a summary snapshotted from the
// incremental miner answers mode queries identically to one from a
// batch ingest of the same tuples.
func TestQueryModesBatchVsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rel := kitchenRelation(rng, 300)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false

	batch, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	inc, err := NewIncrementalMiner(part, opt)
	if err != nil {
		t.Fatalf("NewIncrementalMiner: %v", err)
	}
	if err := rel.Scan(func(_ int, tuple []float64) error { return inc.Add(tuple) }); err != nil {
		t.Fatalf("Add: %v", err)
	}
	streamed, err := inc.Summary()
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}

	for _, mode := range modeTable() {
		q := kitchenQuery()
		mode.mut(&q)
		bres, err := QuerySummary(batch, q)
		if err != nil {
			t.Fatalf("%s batch: %v", mode.name, err)
		}
		ires, err := QuerySummary(streamed, q)
		if err != nil {
			t.Fatalf("%s incremental: %v", mode.name, err)
		}
		sameModeOutput(t, ires, bres, mode.name+" incremental vs batch")
	}
}

// TestMeasureProperties is the quickcheck-style invariant sweep: over
// seeded random kitchen relations and random valid query options, every
// annotated rule satisfies the measure ranges, and measures are
// identical across worker counts and between split-shard-merged and
// single-pass summaries.
func TestMeasureProperties(t *testing.T) {
	opt := plantedOptions()
	opt.PostScan = false
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 120 + rng.Intn(240)
		rel := kitchenRelation(rng, n)
		part := relation.SingletonPartitioning(rel.Schema())
		s, err := Ingest(rel, part, opt)
		if err != nil {
			t.Fatalf("seed %d: Ingest: %v", seed, err)
		}

		q := kitchenQuery()
		q.Measures = true
		q.FrequencyFraction = []float64{0.02, 0.05, 0.1}[rng.Intn(3)]
		q.DegreeFactor = []float64{0.5, 1}[rng.Intn(2)]
		q.GlobalRefine = rng.Intn(2) == 0

		res, err := QuerySummary(s, q)
		if err != nil {
			t.Fatalf("seed %d: QuerySummary: %v", seed, err)
		}
		for i, r := range res.Rules {
			m := r.Measures
			if m == nil {
				t.Fatalf("seed %d: rule %d not annotated", seed, i)
			}
			if m.Support < 0 || m.Support > 1 {
				t.Errorf("seed %d: rule %d Support = %v outside [0,1]", seed, i, m.Support)
			}
			if m.Confidence < 0 || m.Confidence > 1 {
				t.Errorf("seed %d: rule %d Confidence = %v outside [0,1]", seed, i, m.Confidence)
			}
			if m.Lift < 0 {
				t.Errorf("seed %d: rule %d Lift = %v < 0", seed, i, m.Lift)
			}
			if m.Conviction < 0 && m.Conviction != ConvictionInfinite {
				t.Errorf("seed %d: rule %d Conviction = %v: negative but not the sentinel", seed, i, m.Conviction)
			}
			if (m.Conviction == ConvictionInfinite) != (m.Confidence == 1) {
				t.Errorf("seed %d: rule %d Conviction sentinel (%v) disagrees with Confidence (%v)",
					seed, i, m.Conviction, m.Confidence)
			}
		}

		// Worker invariance.
		q8 := q
		q8.Workers = 8
		res8, err := QuerySummary(s, q8)
		if err != nil {
			t.Fatalf("seed %d: workers=8: %v", seed, err)
		}
		sameModeOutput(t, res8, res, "seed workers=8")

		// Merge invariance: split the relation into two alternating
		// shards with independent dictionaries and merge their summaries.
		even, odd := relation.NewRelation(kitchenSchema()), relation.NewRelation(kitchenSchema())
		if err := rel.Scan(func(i int, tuple []float64) error {
			dst := even
			if i%2 == 1 {
				dst = odd
			}
			name := rel.Schema().Attr(0).Dict.Value(tuple[0])
			return dst.Append([]float64{dst.Schema().Attr(0).Dict.Code(name), tuple[1], tuple[2]})
		}); err != nil {
			t.Fatalf("seed %d: split: %v", seed, err)
		}
		se, err := Ingest(even, relation.SingletonPartitioning(even.Schema()), opt)
		if err != nil {
			t.Fatalf("seed %d: even Ingest: %v", seed, err)
		}
		so, err := Ingest(odd, relation.SingletonPartitioning(odd.Schema()), opt)
		if err != nil {
			t.Fatalf("seed %d: odd Ingest: %v", seed, err)
		}
		ms, err := summary.Merge(se, so)
		if err != nil {
			t.Fatalf("seed %d: Merge: %v", seed, err)
		}
		qr := q
		qr.GlobalRefine = true
		mres, err := QuerySummary(ms, qr)
		if err != nil {
			t.Fatalf("seed %d: merged query: %v", seed, err)
		}
		sres, err := QuerySummary(s, qr)
		if err != nil {
			t.Fatalf("seed %d: single query: %v", seed, err)
		}
		sameModeOutput(t, mres, sres, "seed merged vs single")
	}
}

// TestConvictionSentinel pins the documented divergence encoding: a
// perfect rule (degree 0 ⇒ confidence 1) reports ConvictionInfinite,
// and the sentinel survives a JSON round trip as plain -1 — JSON cannot
// carry +Inf, which is why the sentinel exists.
func TestConvictionSentinel(t *testing.T) {
	rel := jobSalaryRelation() // Mgr salaries are always 90000: a degree-0 rule
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false
	s, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	q := opt.Query()
	q.Measures = true
	res, err := QuerySummary(s, q)
	if err != nil {
		t.Fatalf("QuerySummary: %v", err)
	}
	found := false
	for _, r := range res.Rules {
		if r.Degree != 0 {
			continue
		}
		found = true
		if r.Measures.Confidence != 1 {
			t.Errorf("degree-0 rule has Confidence %v, want 1", r.Measures.Confidence)
		}
		if r.Measures.Conviction != ConvictionInfinite {
			t.Errorf("degree-0 rule has Conviction %v, want sentinel %d", r.Measures.Conviction, ConvictionInfinite)
		}
	}
	if !found {
		t.Fatal("test degenerated: no degree-0 rule mined")
	}

	blob, err := json.Marshal(res.Rules[0].Measures)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back RuleMeasures
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("Unmarshal(%s): %v", blob, err)
	}
	if back != *res.Rules[0].Measures {
		t.Errorf("measures changed across JSON: %+v vs %+v", back, *res.Rules[0].Measures)
	}
}

// TestQueryModeErrors: option/summary mismatches surface as ErrBadQuery
// (the serving layer maps the class to HTTP 400).
func TestQueryModeErrors(t *testing.T) {
	rel := jobSalaryRelation()
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false
	s, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	q := opt.Query()
	q.AntecedentGroups = []string{"NoSuchGroup"}
	if _, err := QuerySummary(s, q); err == nil {
		t.Error("unknown group accepted")
	} else if !errors.Is(err, ErrBadQuery) {
		t.Errorf("unknown-group error not ErrBadQuery: %v", err)
	}
}
