package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV ensures arbitrary input never panics the reader: it must
// either parse or return an error, and anything that parses must survive
// a write/read round trip with its schema, its interval values bit for
// bit and its nominal values as strings.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("a:nominal,b:interval\nx,1\ny,2\n")
	f.Add("a:bogus\n1\n")
	f.Add("")
	f.Add("a\n\n")
	f.Add("a,a\n1,2\n")
	f.Add("a:interval\nNaN\n")
	f.Add("a\n1e309\n")
	f.Add("a:nominal,b\n,1\n0,2\n")
	f.Add("a:nominal\n\"\"\n0\n")
	f.Add("a:nominal\n\"x\r\r\ny\"\n\" z\"\n")
	f.Fuzz(func(t *testing.T, input string) {
		rel, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV after successful ReadCSV: %v", err)
		}
		emitted := buf.String()
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput: %q\nemitted: %q", err, input, emitted)
		}
		if back.Len() != rel.Len() {
			t.Fatalf("round trip lost rows: %d vs %d\ninput: %q\nemitted: %q", back.Len(), rel.Len(), input, emitted)
		}
		s, bs := rel.Schema(), back.Schema()
		for i := 0; i < s.Width(); i++ {
			if a, b := s.Attr(i), bs.Attr(i); a.Name != b.Name || a.Kind != b.Kind {
				t.Fatalf("attribute %d: %q %v came back as %q %v\ninput: %q\nemitted: %q", i, a.Name, a.Kind, b.Name, b.Kind, input, emitted)
			}
		}
		for r := 0; r < rel.Len(); r++ {
			for i, v := range rel.Tuple(r) {
				w := back.Tuple(r)[i]
				if a := s.Attr(i); a.Kind == Nominal {
					if a.Dict.Value(v) != bs.Attr(i).Dict.Value(w) {
						t.Fatalf("row %d, %q: nominal %q came back as %q\ninput: %q\nemitted: %q",
							r, a.Name, a.Dict.Value(v), bs.Attr(i).Dict.Value(w), input, emitted)
					}
				} else if math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("row %d, %q: %v came back as %v\ninput: %q\nemitted: %q", r, s.Attr(i).Name, v, w, input, emitted)
				}
			}
		}
	})
}
