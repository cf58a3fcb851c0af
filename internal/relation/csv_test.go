package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadCSV(t *testing.T) {
	in := strings.NewReader(
		"job:nominal,age,salary:interval\n" +
			"Mgr,30,40000\n" +
			"DBA,30,41000\n" +
			"Mgr,45,90000\n")
	r, err := ReadCSV(in)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	s := r.Schema()
	if s.Attr(0).Kind != Nominal || s.Attr(1).Kind != Interval || s.Attr(2).Kind != Interval {
		t.Errorf("kinds = %v %v %v", s.Attr(0).Kind, s.Attr(1).Kind, s.Attr(2).Kind)
	}
	// Same nominal value must map to the same code.
	if r.Tuple(0)[0] != r.Tuple(2)[0] {
		t.Error("Mgr coded differently on two rows")
	}
	if r.Tuple(0)[0] == r.Tuple(1)[0] {
		t.Error("Mgr and DBA share a code")
	}
	if r.Tuple(1)[2] != 41000 {
		t.Errorf("salary = %v", r.Tuple(1)[2])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty input", ""},
		{"bad kind", "a:bogus\n1\n"},
		{"short row", "a,b\n1\n"},
		{"non-numeric interval", "a\nhello\n"},
		{"duplicate names", "a,a\n1,2\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "job", Kind: Nominal},
		Attribute{Name: "salary", Kind: Interval},
	)
	r := NewRelation(s)
	for _, row := range []struct {
		job    string
		salary float64
	}{{"Mgr", 40000}, {"DBA", 41000.5}, {"DBA", -3}} {
		r.MustAppend([]float64{s.Attr(0).Dict.Code(row.job), row.salary})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV(round trip): %v", err)
	}
	if got.Len() != r.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		// Nominal codes are assigned in first-seen order on both sides, so
		// the numeric tuples must match exactly.
		if !reflect.DeepEqual(got.Tuple(i), r.Tuple(i)) {
			t.Errorf("row %d = %v, want %v", i, got.Tuple(i), r.Tuple(i))
		}
	}
	for i := 0; i < s.Width(); i++ {
		if got.Schema().Attr(i).Kind != s.Attr(i).Kind || got.Schema().Attr(i).Name != s.Attr(i).Name {
			t.Errorf("attr %d = %+v", i, got.Schema().Attr(i))
		}
	}
}

// TestCSVRoundTripProperty: any interval-valued relation survives a
// write/read cycle bit-for-bit (floats are emitted with full precision).
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64, rows uint8, cols uint8) bool {
		nc := int(cols)%4 + 1
		nr := int(rows) % 32
		rng := rand.New(rand.NewSource(seed))
		attrs := make([]Attribute, nc)
		for i := range attrs {
			attrs[i] = Attribute{Name: string(rune('a' + i)), Kind: Interval}
		}
		r := NewRelation(MustSchema(attrs...))
		tuple := make([]float64, nc)
		for i := 0; i < nr; i++ {
			for j := range tuple {
				tuple[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
			}
			r.MustAppend(tuple)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, r); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != r.Len() {
			return false
		}
		for i := 0; i < r.Len(); i++ {
			if !reflect.DeepEqual(got.Tuple(i), r.Tuple(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, cell := range []string{"NaN", "Inf", "-Inf", "1e999"} {
		if _, err := ReadCSV(strings.NewReader("a\n" + cell + "\n")); err == nil {
			t.Errorf("cell %q accepted", cell)
		}
	}
}

// TestParseCSVPresizeIsBounded: ParseCSV sizes the relation from the
// rows its first pass counts, so neither a body of blank lines behind a
// wide header nor short rows behind one may make it allocate more than
// the body's own size (100 columns × 100K lines would otherwise ask for
// 80 MB). The short rows are rejected before the relation is allocated:
// their comma count cannot match the header's width. Both bodies run at
// one to four chunks, the 1 MiB floor on a chunk waived.
func TestParseCSVPresizeIsBounded(t *testing.T) {
	var header bytes.Buffer
	for i := 0; i < 100; i++ {
		if i > 0 {
			header.WriteByte(',')
		}
		fmt.Fprintf(&header, "c%d", i)
	}
	header.WriteByte('\n')
	blank := header.String() + "1" + strings.Repeat(",1", 99) + strings.Repeat("\n", 100_000)
	short := header.String() + strings.Repeat("1\n", 100_000)
	for _, c := range []struct {
		name   string
		body   []byte
		reject bool
	}{
		{"blank lines", []byte(blank), false},
		{"one-cell rows", []byte(short), true},
	} {
		for k := 1; k <= 4; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var ends []int64
			rel, err := parseCSV(c.body, &ends, k, 1)
			runtime.ReadMemStats(&after)
			if c.reject {
				if err == nil {
					t.Fatalf("%s, %d chunks: parsed %d rows", c.name, k, rel.Len())
				}
			} else if err != nil || rel.Len() != 1 {
				t.Fatalf("%s, %d chunks: ParseCSV: %v", c.name, k, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(4*len(c.body)) {
				t.Errorf("%s, %d chunks: ParseCSV of a %d-byte body allocated %d bytes", c.name, k, len(c.body), got)
			}
		}
	}
}
