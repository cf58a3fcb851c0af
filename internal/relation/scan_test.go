package relation_test

import (
	"bytes"
	"fmt"
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
			if _, _, err := relation.ParseCSV(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 100 {
			t.Errorf("%s: ParseCSV of 1000 rows made %.0f allocations; the encoding/csv fallback ran", name, allocs)
		}
	}
}

// BenchmarkParseCSV parses a 20K-row WBCD-like body with ParseCSV's
// scanner and with the encoding/csv loop it falls back to.
func BenchmarkParseCSV(b *testing.B) {
	body := wbcdBody(b, 20_000)
	for _, bc := range []struct {
		name  string
		parse func([]byte) error
	}{
		{"scanner", func(body []byte) error { _, _, err := relation.ParseCSV(body); return err }},
		{"encoding-csv", func(body []byte) error { _, err := relation.ReadCSVReference(body); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
