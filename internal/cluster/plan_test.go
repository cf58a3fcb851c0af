package cluster

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/pkg/client"
)

// TestPlanDeterminism pins the shard plan as a pure function of
// (rows, want): stable bytes, contiguous coverage, row order intact.
func TestPlanDeterminism(t *testing.T) {
	csv := testCSV(3, 100)
	rel, ends, err := relation.ParseCSV(csv, 1)
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	a, err := planShards(csv, ends, 4)
	if err != nil {
		t.Fatalf("planShards: %v", err)
	}
	b, err := planShards(csv, ends, 4)
	if err != nil {
		t.Fatalf("planShards: %v", err)
	}
	if len(a) != 4 {
		t.Fatalf("plan has %d shards, want 4", len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("shard %d differs between two plans of the same relation", i)
		}
	}
	// The shards' parsed rows add up to the relation.
	rows := 0
	for i, shard := range a {
		srel, err := relation.ReadCSV(bytes.NewReader(shard))
		if err != nil {
			t.Fatalf("shard %d does not parse: %v", i, err)
		}
		rows += srel.Len()
	}
	if rows != rel.Len() {
		t.Errorf("plan covers %d rows, want %d", rows, rel.Len())
	}
	// More shards than rows clamps to one row per shard.
	tiny, err := planShards(csv, ends, 1000)
	if err != nil {
		t.Fatalf("planShards(1000): %v", err)
	}
	if len(tiny) != rel.Len() {
		t.Errorf("oversharded plan has %d shards, want %d", len(tiny), rel.Len())
	}
	if _, err := planShards(csv, ends[:1], 2); err == nil {
		t.Error("planning an empty relation succeeded")
	}
}

// FuzzPlanShards: for any body ParseCSV accepts and any want from 1 to
// 8, the shards cut from the body parse, in shard order, to the body's
// own rows — the same schema, interval values bit for bit, nominal
// values as strings — in ⌈rows/want⌉-row contiguous ranges. A worker
// therefore mines exactly the rows the coordinator would have parsed.
//
// darc plans from relation.SampleCSV, which parses only the advisor's
// sample, so two more properties hold. On a body ParseCSV accepts, the
// sampled plan's record ends equal ParseCSV's and its sample holds the
// AdvisorRows rows of ParseCSV's relation. On a body ParseCSV rejects,
// either the sampled plan rejects it or ParseCSV rejects one of the
// shards it plans: validation moves to the workers, it never vanishes.
func FuzzPlanShards(f *testing.F) {
	f.Add([]byte("name:nominal,v\n\"a,b\",1\n\"line\none\",2\n\"q\"\"x\",3\n"), uint8(2))
	f.Add([]byte("a,b:interval\r\n1,2\r\n3,4\r\n5,6\r\n"), uint8(1))
	f.Add([]byte("a,b\n1,2\n\n\n3,4\n\n5,6\n"), uint8(2))
	f.Add([]byte("a,b\n1,2\n3,4\n5,6"), uint8(3))
	f.Add([]byte("Segment:nominal,Spend\n,1\n0,2\n,3\n0,4\n"), uint8(3))
	f.Add([]byte("a,b\n1,2\n3\n4,5,6\n"), uint8(2))
	f.Add([]byte("a,b\n1,2\nx,3\n"), uint8(2))
	f.Add([]byte("a:nominal,b\n\xc2\xa0x,1\ny,\xc2\xa02\n"), uint8(2))
	f.Add(testCSV(1, 20), uint8(7))
	f.Add(badCellCSV(1, 260, outsideSample(260, 260), "x"), uint8(4))
	f.Fuzz(func(t *testing.T, body []byte, wantShards uint8) {
		n := int(wantShards)%8 + 1
		rel, ends, err := relation.ParseCSV(body, 1)
		sample, planEnds, planErr := relation.SampleCSV(body, func(rows int) []int {
			return core.AdvisorRows(rows, core.AdvisorOptions{})
		})
		if err != nil {
			if planErr != nil {
				return
			}
			shards, err := planShards(body, planEnds, n)
			if err != nil {
				return
			}
			for _, shard := range shards {
				if _, _, err := relation.ParseCSV(shard, 1); err != nil {
					return
				}
			}
			t.Fatalf("ParseCSV rejects %q, but the sampled plan and all %d of its shards pass", body, len(shards))
		}
		if planErr != nil {
			t.Fatalf("ParseCSV accepts %q, the sampled plan rejects it: %v", body, planErr)
		}
		if !slices.Equal(planEnds, ends) {
			t.Fatalf("sampled plan's ends %v, ParseCSV's %v\nbody: %q", planEnds, ends, body)
		}
		assertRows(t, "sample", sample, rel, core.AdvisorRows(rel.Len(), core.AdvisorOptions{}))
		if rel.Len() == 0 {
			return
		}
		if len(ends) != rel.Len()+1 {
			t.Fatalf("%d record ends for %d rows", len(ends), rel.Len())
		}
		shards, err := planShards(body, ends, n)
		if err != nil {
			t.Fatalf("planShards(%d): %v", n, err)
		}
		k := min(n, rel.Len())
		per := (rel.Len() + k - 1) / k
		row := 0
		for i, shard := range shards {
			srel, err := relation.ReadCSV(bytes.NewReader(shard))
			if err != nil {
				t.Fatalf("shard %d of %q does not parse: %v\nshard: %q", i, body, err, shard)
			}
			if got, want := srel.Len(), min(per, rel.Len()-row); got != want {
				t.Fatalf("shard %d holds %d rows, want %d (%d per shard)", i, got, want, per)
			}
			idx := make([]int, srel.Len())
			for r := range idx {
				idx[r] = row + r
			}
			assertRows(t, fmt.Sprintf("shard %d", i), srel, rel, idx)
			row += srel.Len()
		}
		if row != rel.Len() {
			t.Fatalf("shards hold %d rows, body %d", row, rel.Len())
		}
	})
}

// assertRows fails unless got holds exactly rows idx of rel: the same
// schema names and kinds, interval values bit for bit and nominal
// values as strings.
func assertRows(t *testing.T, what string, got, rel *relation.Relation, idx []int) {
	t.Helper()
	schema := rel.Schema()
	if got.Len() != len(idx) || got.Schema().Width() != schema.Width() {
		t.Fatalf("%s is %d×%d, want %d×%d", what, got.Len(), got.Schema().Width(), len(idx), schema.Width())
	}
	for a := 0; a < schema.Width(); a++ {
		if x, y := schema.Attr(a), got.Schema().Attr(a); x.Name != y.Name || x.Kind != y.Kind {
			t.Fatalf("%s attribute %d is %q %v, want %q %v", what, a, y.Name, y.Kind, x.Name, x.Kind)
		}
	}
	for r, row := range idx {
		for a, w := range got.Tuple(r) {
			v := rel.Tuple(row)[a]
			attr := schema.Attr(a)
			if attr.Kind == relation.Nominal {
				if g, want := got.Schema().Attr(a).Dict.Value(w), attr.Dict.Value(v); g != want {
					t.Fatalf("row %d, %q: %s holds %q, body %q", row, attr.Name, what, g, want)
				}
			} else if math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("row %d, %q: %s holds %v, body %v", row, attr.Name, what, w, v)
			}
		}
	}
}

// wbcdBody renders an n-row WBCD-like relation as a CSV body, as
// perfbench's cluster_mixed sends it.
func wbcdBody(tb testing.TB, n int) []byte {
	tb.Helper()
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = n
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// planSink keeps BenchmarkClusterPlan's result live.
var planSink []int64

// BenchmarkClusterPlan times darc's plan of a 100K-row WBCD body (about
// 56 MB, cluster_mixed's size) with derived thresholds: the line scan
// for the record ends, the parse of the advisor's 200 rows and the
// advisor over them. The shard copies planShards cuts come after it.
func BenchmarkClusterPlan(b *testing.B) {
	body := wbcdBody(b, 100_000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ends, _, err := planIngest(body, client.IngestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		planSink = ends
	}
}

// heapAllocs returns the heap bytes f allocates, read from the runtime's
// cumulative allocation counter.
func heapAllocs(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// TestClusterPlanAllocs bounds what darc allocates to plan an ingest.
// With thresholds pinned the plan holds the record ends (8 B a row, a
// WBCD row is about 557 B of body) and no parsed relation, so it stays
// under 1/16 of the body. Derived thresholds add the advisor's 200
// parsed rows and their pairwise distances, a cost fixed by the sample
// size: beyond the record ends, a 20K-row plan allocates what a 10K-row
// plan does.
func TestClusterPlanAllocs(t *testing.T) {
	plan := func(body []byte, opt client.IngestOptions) uint64 {
		t.Helper()
		var err error
		n := heapAllocs(func() { planSink, _, err = planIngest(body, opt) })
		if err != nil {
			t.Fatalf("planIngest: %v", err)
		}
		return n
	}
	small, large := wbcdBody(t, 10_000), wbcdBody(t, 20_000)
	d0s := make([]float64, 30)
	for i := range d0s {
		d0s[i] = 2
	}
	pinned := plan(large, client.IngestOptions{D0s: d0s})
	if pinned >= uint64(len(large)/16) {
		t.Errorf("a pinned plan of a %d-byte body allocated %d bytes, want under %d", len(large), pinned, len(large)/16)
	}
	extra := func(body []byte, rows int) int64 {
		return int64(plan(body, client.IngestOptions{})) - 8*int64(rows+1)
	}
	e10, e20 := extra(small, 10_000), extra(large, 20_000)
	if e20-e10 > 64<<10 {
		t.Errorf("beyond its record ends a derived plan allocated %d bytes at 20K rows against %d at 10K", e20, e10)
	}
	t.Logf("pinned plan %d bytes for a %d-byte body; derived plan beyond the ends %d (10K rows), %d (20K rows)", pinned, len(large), e10, e20)
}
