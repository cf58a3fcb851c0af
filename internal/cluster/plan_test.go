package cluster

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/relation"
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

// FuzzPlanShards: for any body ReadCSV accepts and any want from 1 to
// 8, the shards cut from the body parse, in shard order, to the body's
// own rows — the same schema, interval values bit for bit, nominal
// values as strings — in ⌈rows/want⌉-row contiguous ranges. A worker
// therefore mines exactly the rows the coordinator parsed.
func FuzzPlanShards(f *testing.F) {
	f.Add([]byte("name:nominal,v\n\"a,b\",1\n\"line\none\",2\n\"q\"\"x\",3\n"), uint8(2))
	f.Add([]byte("a,b:interval\r\n1,2\r\n3,4\r\n5,6\r\n"), uint8(1))
	f.Add([]byte("a,b\n1,2\n\n\n3,4\n\n5,6\n"), uint8(2))
	f.Add([]byte("a,b\n1,2\n3,4\n5,6"), uint8(3))
	f.Add([]byte("Segment:nominal,Spend\n,1\n0,2\n,3\n0,4\n"), uint8(3))
	f.Add(testCSV(1, 20), uint8(7))
	f.Fuzz(func(t *testing.T, body []byte, wantShards uint8) {
		rel, ends, err := relation.ParseCSV(body, 1)
		if err != nil || rel.Len() == 0 {
			return
		}
		if len(ends) != rel.Len()+1 {
			t.Fatalf("%d record ends for %d rows", len(ends), rel.Len())
		}
		n := int(wantShards)%8 + 1
		shards, err := planShards(body, ends, n)
		if err != nil {
			t.Fatalf("planShards(%d): %v", n, err)
		}
		k := min(n, rel.Len())
		per := (rel.Len() + k - 1) / k
		schema := rel.Schema()
		row := 0
		for i, shard := range shards {
			srel, err := relation.ReadCSV(bytes.NewReader(shard))
			if err != nil {
				t.Fatalf("shard %d of %q does not parse: %v\nshard: %q", i, body, err, shard)
			}
			if got, want := srel.Len(), min(per, rel.Len()-row); got != want {
				t.Fatalf("shard %d holds %d rows, want %d (%d per shard)", i, got, want, per)
			}
			for a := 0; a < schema.Width(); a++ {
				if x, y := schema.Attr(a), srel.Schema().Attr(a); x.Name != y.Name || x.Kind != y.Kind {
					t.Fatalf("shard %d attribute %d is %q %v, want %q %v", i, a, y.Name, y.Kind, x.Name, x.Kind)
				}
			}
			for r := 0; r < srel.Len(); r++ {
				for a, w := range srel.Tuple(r) {
					v := rel.Tuple(row)[a]
					attr := schema.Attr(a)
					if attr.Kind == relation.Nominal {
						if got, want := srel.Schema().Attr(a).Dict.Value(w), attr.Dict.Value(v); got != want {
							t.Fatalf("row %d, %q: shard %d holds %q, body %q", row, attr.Name, i, got, want)
						}
					} else if math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("row %d, %q: shard %d holds %v, body %v", row, attr.Name, i, w, v)
					}
				}
				row++
			}
		}
		if row != rel.Len() {
			t.Fatalf("shards hold %d rows, body %d", row, rel.Len())
		}
	})
}
