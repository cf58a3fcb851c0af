package relation_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// wbcdBody renders a datagen WBCD-like relation of n tuples as CSV, byte
// for byte what `datagen -workload wbcd` prints.
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

// nominalBody renders an unquoted mixed relation through WriteCSV:
// nominal, interval and ordinal columns, repeated nominal values.
func nominalBody(tb testing.TB, n int) []byte {
	tb.Helper()
	s := relation.MustSchema(
		relation.Attribute{Name: "job", Kind: relation.Nominal},
		relation.Attribute{Name: "age", Kind: relation.Interval},
		relation.Attribute{Name: "rank", Kind: relation.Ordinal},
	)
	rel := relation.NewRelation(s)
	for i := 0; i < n; i++ {
		job := s.Attr(0).Dict.Code(fmt.Sprintf("job-%d", i%7))
		rel.MustAppend([]float64{job, 20 + float64(i%45) + 0.25, float64(i % 5)})
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseCSVScansWithoutFallback guards that ParseCSV's scanner, not
// its encoding/csv fallback, parses what datagen and WriteCSV emit for
// unquoted relations. The fallback allocates at least one string per
// row (encoding/csv's record), so a 1K-row body held under 100
// allocations can only have gone through the scanner.
func TestParseCSVScansWithoutFallback(t *testing.T) {
	for name, body := range map[string][]byte{
		"wbcd":    wbcdBody(t, 1000),
		"nominal": nominalBody(t, 1000),
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := relation.ParseCSV(body, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 100 {
			t.Errorf("%s: ParseCSV of 1000 rows made %.0f allocations; the encoding/csv fallback ran", name, allocs)
		}
	}
}

// TestParseCSVChunksMatchSerial: cut into 1 to 8 chunks (the 1 MiB
// floor waived), the scan must return what the one-chunk scan and the
// encoding/csv loop return: the same values bit for bit, the same
// record ends, and every nominal dictionary in the same code order.
// nominalBody repeats seven values with a period that starts each
// chunk at a different one, so every later chunk's local codes differ
// from the global ones and the dictionary merge must rewrite them.
func TestParseCSVChunksMatchSerial(t *testing.T) {
	for name, body := range map[string][]byte{
		"wbcd":    wbcdBody(t, 20_000),
		"nominal": nominalBody(t, 20_000),
	} {
		want, wantEnds, err := relation.ParseCSVChunks(body, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := relation.ReadCSVReference(body)
		if err != nil {
			t.Fatalf("%s: encoding/csv: %v", name, err)
		}
		assertSameRelation(t, name+", encoding/csv", ref, want)
		for k := 2; k <= 8; k++ {
			got, gotEnds, err := relation.ParseCSVChunks(body, k)
			if err != nil {
				t.Fatalf("%s, %d chunks: %v", name, k, err)
			}
			if !slices.Equal(gotEnds, wantEnds) {
				t.Errorf("%s, %d chunks: record ends differ from the one-chunk scan's", name, k)
			}
			assertSameRelation(t, fmt.Sprintf("%s, %d chunks", name, k), got, want)
		}
	}
}

// assertSameRelation fails unless got has want's schema, dictionaries
// in code order and value bits.
func assertSameRelation(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	gs, ws := got.Schema(), want.Schema()
	if gs.Width() != ws.Width() || got.Len() != want.Len() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Len(), gs.Width(), want.Len(), ws.Width())
	}
	for i := 0; i < ws.Width(); i++ {
		g, w := gs.Attr(i), ws.Attr(i)
		if g.Name != w.Name || g.Kind != w.Kind {
			t.Fatalf("%s: attribute %d is %q %v, want %q %v", what, i, g.Name, g.Kind, w.Name, w.Kind)
		}
		if w.Kind != relation.Nominal {
			continue
		}
		if g.Dict.Len() != w.Dict.Len() {
			t.Fatalf("%s: attribute %d has %d values, want %d", what, i, g.Dict.Len(), w.Dict.Len())
		}
		for c := 0; c < w.Dict.Len(); c++ {
			if gv, wv := g.Dict.Value(float64(c)), w.Dict.Value(float64(c)); gv != wv {
				t.Fatalf("%s: attribute %d codes %q as %d, want %q", what, i, gv, c, wv)
			}
		}
	}
	for r := 0; r < want.Len(); r++ {
		for i, v := range want.Tuple(r) {
			if g := got.Tuple(r)[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: row %d, column %d is %v, want %v", what, r, i, g, v)
			}
		}
	}
}

// BenchmarkParseCSV parses a 20K-row WBCD-like body with ParseCSV's
// scanner and with the encoding/csv loop it falls back to, and a
// 100K-row one (about 56 MB, bulk_ingest's size) with the scanner on
// one goroutine and at GOMAXPROCS, the width dard's POST /v1/ingest
// parses at.
func BenchmarkParseCSV(b *testing.B) {
	small, large := wbcdBody(b, 20_000), wbcdBody(b, 100_000)
	procs := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name  string
		body  []byte
		parse func([]byte) error
	}{
		{"scanner", small, func(body []byte) error { _, _, err := relation.ParseCSV(body, 1); return err }},
		{"encoding-csv", small, func(body []byte) error { _, err := relation.ReadCSVReference(body); return err }},
		{"100K/width=1", large, func(body []byte) error { _, _, err := relation.ParseCSV(body, 1); return err }},
		{fmt.Sprintf("100K/width=%d", procs), large, func(body []byte) error { _, _, err := relation.ParseCSV(body, procs); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
