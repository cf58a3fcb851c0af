package relation

import (
	"bytes"
	"math"
	"slices"
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

// FuzzParseCSV pins ParseCSV's byte scanner to the encoding/csv loop it
// falls back to (readCSV): on every input both sides agree on whether
// there is an error and on its text, and on success on the schema's
// names and kinds, every nominal dictionary in code order, every
// value's bits and the record ends. The scanner cuts each input into a
// drawn chunk count of 1 to 8, the 1 MiB floor on a chunk waived, so
// the chunked passes and the dictionary merge run on small inputs too.
func FuzzParseCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n",
		"a:nominal,b:ordinal\nx,1\ny,2\nx,3\n",
		"a:nominal,b\n\"x,y\",1\n",
		"a,b\r\n1,2\r\n",
		"a,b\n1,2\r3,4\n",
		"a\n\n1\n\n\n2",
		"a,b\n\n\n",
		"a:nominal,b\n  x ,\t 1 \n\tx, 2\t\n",
		"a\n\xc2\xa01\n",
		"a:nominal\n\xc2\xa0x\n",
		"a:nominal\nx\xc2\xa0\n",
		"a\n1\xc2\xa0\n",
		"a\n0x1p3\n",
		"a\n1_0\n",
		"a\n+1.5e3\n",
		"a\n-0\n",
		"a\n.5\n",
		"a\nInf\n",
		"a\n1e309\n",
		"a,b\n1\n",
		"a,b\n1,2,3\n",
		"a,b\n1,2\n3\n",
		"a\n   \n",
		"a:nominal\n \t\n",
		"a:nominal,b\n,1\n \v\f,2",
		"",
		"a:bogus\n1\n",
		"a:nominal,b\nx,1\ny,2\nz,3\ny,4\nw,5\nx,6\n",
		"a:nominal,b:nominal\np,q\n\nq,p\n\n\np,p\nr,q\n",
	} {
		for _, k := range []uint8{0, 2, 5} {
			f.Add(seed, k)
		}
	}
	f.Fuzz(func(t *testing.T, input string, k uint8) {
		body := []byte(input)
		var gotEnds []int64
		got, gotErr := parseCSV(body, &gotEnds, int(k%8)+1, 1)
		var wantEnds []int64
		want, wantErr := readCSV(bytes.NewReader(body), &wantEnds)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("errors differ: scanner %v, encoding/csv %v\ninput: %q, %d chunks", gotErr, wantErr, input, k%8+1)
		}
		if gotErr != nil {
			return
		}
		if !slices.Equal(gotEnds, wantEnds) {
			t.Fatalf("record ends %v, want %v\ninput: %q", gotEnds, wantEnds, input)
		}
		gs, ws := got.Schema(), want.Schema()
		if gs.Width() != ws.Width() || got.Len() != want.Len() {
			t.Fatalf("shape %dx%d, want %dx%d\ninput: %q", got.Len(), gs.Width(), want.Len(), ws.Width(), input)
		}
		for i := 0; i < ws.Width(); i++ {
			g, w := gs.Attr(i), ws.Attr(i)
			if g.Name != w.Name || g.Kind != w.Kind {
				t.Fatalf("attribute %d: %q %v, want %q %v\ninput: %q", i, g.Name, g.Kind, w.Name, w.Kind, input)
			}
			if w.Kind == Nominal && !slices.Equal(g.Dict.values, w.Dict.values) {
				t.Fatalf("attribute %d dictionary %q, want %q\ninput: %q", i, g.Dict.values, w.Dict.values, input)
			}
		}
		for r := 0; r < want.Len(); r++ {
			for i, v := range want.Tuple(r) {
				if g := got.Tuple(r)[i]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("row %d, column %d: %v, want %v\ninput: %q", r, i, g, v, input)
				}
			}
		}
	})
}
