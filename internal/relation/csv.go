package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/parallel"
)

// CSV format used by the cmd/ tools:
//
//	name:kind,name:kind,...      header, kind ∈ {interval, ordinal, nominal}
//	v11,v12,...                  one row per tuple
//
// A header cell without ":kind" defaults to interval. Nominal cells may hold
// arbitrary strings; interval and ordinal cells must parse as floats.

// ReadCSV reads a relation in the annotated-header format from rd. It
// reads the whole input into memory first and parses it with ParseCSV
// at GOMAXPROCS, the width dard's POST /v1/ingest parses at by default.
func ReadCSV(rd io.Reader) (*Relation, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, rd); err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	return parseCSV(buf.Bytes(), nil, runtime.GOMAXPROCS(0), chunkBytes)
}

// ParseCSV parses a relation in the annotated-header format from body
// and reports where each record ends in it: ends[0] is the byte offset
// just past the header record and ends[i] the offset just past data row
// i-1. The header is therefore body[:ends[0]] and rows [lo, hi) are
// body[ends[lo]:ends[hi]] — a byte range that parses, behind the same
// header, to exactly those rows (blank lines between records travel
// with the record after them).
//
// The header goes through encoding/csv; the rows go through a byte
// scanner that handles the plain, unquoted form WriteCSV and datagen
// emit. Whatever the scanner does not handle exactly as encoding/csv
// would, it hands back: the whole body is then parsed again by the
// encoding/csv loop (readCSV), so relations, record ends and error
// text never depend on which path ran. The triggers are a '"' or '\r'
// anywhere in the body, a row whose field count differs from the
// header's, a numeric cell that strconv.ParseFloat rejects or parses
// non-finite, and a nominal cell whose first byte after ASCII-space
// trimming is non-ASCII (encoding/csv also trims leading Unicode
// spaces).
//
// The scanner cuts the rows into min(width, ⌈row bytes / 1 MiB⌉)
// chunks and scans them on that many goroutines (see scanRows): width 0
// or 1, or a body with at most 1 MiB of rows, scans on the calling
// goroutine. The relation, its dictionary codes and the record ends are
// the same at every width.
func ParseCSV(body []byte, width int) (*Relation, []int64, error) {
	var ends []int64
	rel, err := parseCSV(body, &ends, width, chunkBytes)
	return rel, ends, err
}

// chunkBytes is the row bytes that earn the scanner one more chunk: a
// goroutine pays off only over a chunk far longer than it takes to
// start one.
const chunkBytes = 1 << 20

// parseCSV is ParseCSV that records the ends only when ends is non-nil
// and cuts min(width, ⌈row bytes / minChunk⌉) chunks. Tests pass
// minChunk 1 to cut even a small body into width chunks.
func parseCSV(body []byte, ends *[]int64, width, minChunk int) (*Relation, error) {
	schema, start, err := plainHeader(body)
	if err != nil {
		return nil, err
	}
	if schema == nil {
		return readCSV(bytes.NewReader(body), ends)
	}
	rel := NewRelation(schema)
	k := max(1, min(width, (len(body)-start+minChunk-1)/minChunk))
	if !scanRows(rel, body, start, ends, k) {
		return readCSV(bytes.NewReader(body), ends)
	}
	return rel, nil
}

// plainHeader reads the header of a body the byte scanner can take and
// returns its schema and the offset where the rows start. A body with a
// '"' or '\r' anywhere is left to the encoding/csv loop: plainHeader
// then returns a nil schema and a nil error.
func plainHeader(body []byte) (*Schema, int, error) {
	if bytes.IndexByte(body, '"') >= 0 || bytes.IndexByte(body, '\r') >= 0 {
		return nil, 0, nil
	}
	cr := csv.NewReader(bytes.NewReader(body))
	cr.TrimLeadingSpace = true
	schema, err := readHeader(cr)
	if err != nil {
		return nil, 0, err
	}
	return schema, int(cr.InputOffset()), nil
}

// SampleCSV reads from body what a row-range shard plan needs without
// parsing every row: the schema, the record ends exactly as ParseCSV
// reports them, and the rows pick(rows) names, parsed into a relation
// over that schema. pick gets the body's row count and returns
// ascending row indices below it. Every other row is checked only for
// its field count; its cells are left to whoever parses its shard.
//
// The line scan takes a body the byte scanner would take: no '"' or
// '\r', every row with the header's field count, and picked rows the
// scanner parses. Anything else, a picked row with a bad cell included,
// is parsed in full by ParseCSV at width 1 and the picked rows are
// copied out of that relation, so a rejected body fails with
// ParseCSV's error, naming its line.
func SampleCSV(body []byte, pick func(rows int) []int) (*Relation, []int64, error) {
	if sample, ends := sampleRows(body, pick); sample != nil {
		return sample, ends, nil
	}
	rel, ends, err := ParseCSV(body, 1)
	if err != nil {
		return nil, nil, err
	}
	sample := NewRelation(rel.Schema())
	for _, r := range pick(rel.Len()) {
		sample.MustAppend(rel.Tuple(r))
	}
	return sample, ends, nil
}

// sampleRows is SampleCSV's line scan. It returns a nil relation where
// SampleCSV must parse the whole body instead. Nominal cells of the
// picked rows are coded in first-seen order over the picked rows.
func sampleRows(body []byte, pick func(rows int) []int) (*Relation, []int64) {
	schema, start, _ := plainHeader(body) // SampleCSV's ParseCSV reports a bad header
	if schema == nil {
		return nil, nil
	}
	w := schema.Width()
	all := csvChunk{lo: start, hi: len(body)}
	if !all.count(body, w-1) {
		return nil, nil
	}
	ends := make([]int64, all.rows+1)
	ends[0] = int64(start)
	all.recordEnds(body, ends[1:])
	rows := pick(all.rows)
	data := make([]float64, len(rows)*w)
	dicts := schema.dicts()
	for j, r := range rows {
		row := csvChunk{lo: int(ends[r]), hi: int(ends[r+1]), dicts: dicts}
		if !row.parse(body, schema, data[j*w:(j+1)*w], nil) {
			return nil, nil
		}
	}
	return &Relation{schema: schema, data: data, rows: len(rows)}, ends
}

// csvChunk is one range of scanRows' row region, body[lo:hi]; lo is the
// start of a line.
type csvChunk struct {
	lo, hi int
	rows   int // non-empty lines, counted by pass 1
	row0   int // rows in the chunks before this one
	// dicts holds the chunk's nominal dictionaries, indexed by
	// attribute: the schema's own for the first chunk, chunk-local ones
	// for the others, which the merge folds into the schema's.
	dicts []*Dictionary
	ok    bool // the last pass accepted every row
}

// scanRows parses the rows of body, which start at offset start, into
// rel and stores their record ends (header end first) in *ends when
// ends is non-nil. It reports false, leaving *ends untouched, on the
// first thing it does not handle exactly as readCSV would. A row is
// split at every ','; cells lose leading ASCII spaces as
// TrimLeadingSpace would, and numeric cells trailing ones too, as
// strings.TrimSpace would; a blank line is skipped.
//
// The row region is cut at line starts into k chunks, scanned in two
// passes, each one goroutine per chunk through parallel.For (k = 1 runs
// both on the caller):
//
//  1. Count each chunk's non-empty lines and check each one's ','
//     bytes. An accepted row has exactly width−1 commas, so a line with
//     any other count has the wrong field count, and the body falls
//     back before the relation is allocated. Blank lines thus cost no
//     backing, and short rows behind a wide header commit none ahead of
//     their rejection.
//  2. Allocate the relation's backing and the record ends at exactly
//     the counted size and parse each chunk into its own slice of both.
//     The first chunk codes nominal cells in the schema's dictionaries;
//     later chunks code them in chunk-local ones.
//
// A serial merge then registers each later chunk's local values in the
// schema's dictionary, in chunk order and local first-seen order, and
// rewrites that chunk's nominal cells. Codes therefore come out in
// first-seen order over the whole body, as a one-chunk scan assigns
// them.
func scanRows(rel *Relation, body []byte, start int, ends *[]int64, k int) bool {
	s := rel.schema
	w := s.Width()
	chunks := cutChunks(body, start, k)
	parallel.For(k, k, func(c int) { chunks[c].ok = chunks[c].count(body, w-1) })
	rows := 0
	for c := range chunks {
		ch := &chunks[c]
		if !ch.ok {
			return false
		}
		ch.row0 = rows
		rows += ch.rows
	}

	data := make([]float64, rows*w)
	var recEnds []int64
	if ends != nil {
		recEnds = make([]int64, rows+1)
		recEnds[0] = int64(start)
	}
	parallel.For(k, k, func(c int) {
		ch := &chunks[c]
		ch.dicts = s.dicts()
		for i, d := range ch.dicts {
			if d != nil && c > 0 {
				ch.dicts[i] = NewDictionary()
			}
		}
		var chEnds []int64
		if recEnds != nil {
			chEnds = recEnds[1+ch.row0 : 1+ch.row0+ch.rows]
		}
		ch.ok = ch.parse(body, s, data[ch.row0*w:(ch.row0+ch.rows)*w], chEnds)
	})
	for _, ch := range chunks {
		if !ch.ok {
			return false
		}
	}

	for _, ch := range chunks[1:] {
		for i, local := range ch.dicts {
			if local == nil {
				continue
			}
			global := s.attrs[i].Dict
			remap := make([]float64, local.Len())
			for j, v := range local.values {
				remap[j] = global.Code(v)
			}
			for r := ch.row0; r < ch.row0+ch.rows; r++ {
				cell := &data[r*w+i]
				*cell = remap[int(*cell)]
			}
		}
	}
	rel.data, rel.rows = data, rows
	if ends != nil {
		*ends = recEnds
	}
	return true
}

// cutChunks cuts body[start:] into k ranges of about equal size, each
// ending just past a '\n' (the last at len(body)). A range is empty when
// one line spans its whole share.
func cutChunks(body []byte, start, k int) []csvChunk {
	chunks := make([]csvChunk, k)
	lo := start
	for c := range chunks {
		hi := len(body)
		if c < k-1 {
			t := max(lo, start+(len(body)-start)*(c+1)/k)
			if i := bytes.IndexByte(body[t:], '\n'); i >= 0 {
				hi = t + i + 1
			}
		}
		chunks[c].lo, chunks[c].hi = lo, hi
		lo = hi
	}
	return chunks
}

// count is pass 1 over the chunk: it counts the non-empty lines and
// reports whether each has exactly commas ',' bytes, stopping at the
// first that does not.
func (ch *csvChunk) count(body []byte, commas int) bool {
	for off := ch.lo; off < ch.hi; {
		var line []byte
		line, off = nextLine(body, off, ch.hi)
		if len(line) > 0 {
			if bytes.Count(line, []byte{','}) != commas {
				return false
			}
			ch.rows++
		}
	}
	return true
}

// recordEnds writes the end offset of each of the chunk's non-empty
// lines into ends (len ch.rows), as parse does.
func (ch *csvChunk) recordEnds(body []byte, ends []int64) {
	r := 0
	for off := ch.lo; off < ch.hi; {
		var line []byte
		line, off = nextLine(body, off, ch.hi)
		if len(line) > 0 {
			ends[r] = int64(off)
			r++
		}
	}
}

// nextLine returns the line of body[off:hi] that starts at off, without
// its '\n', and the offset just past it.
func nextLine(body []byte, off, hi int) ([]byte, int) {
	line := body[off:hi]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		return line[:i], off + i + 1
	}
	return line, hi
}

// parse is pass 2 over the chunk: it writes its rows' cells into data
// (len rows × width) and each row's end offset into ends when ends is
// non-nil, coding nominal cells in ch.dicts. It reports false on the
// first thing readCSV would not parse the same way.
func (ch *csvChunk) parse(body []byte, s *Schema, data []float64, ends []int64) bool {
	w := s.Width()
	n, r := 0, 0
	for off := ch.lo; off < ch.hi; {
		var line []byte
		line, off = nextLine(body, off, ch.hi)
		if len(line) == 0 {
			continue
		}
		for field := 0; ; field++ {
			if field == w {
				return false
			}
			cell := line
			comma := bytes.IndexByte(line, ',')
			if comma >= 0 {
				cell, line = line[:comma], line[comma+1:]
			}
			cell = trimASCIISpace(cell, true, false)
			if d := ch.dicts[field]; d != nil {
				if len(cell) > 0 && cell[0] >= utf8.RuneSelf {
					return false
				}
				data[n] = d.codeBytes(cell)
			} else {
				v, err := strconv.ParseFloat(string(trimASCIISpace(cell, false, true)), 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
				data[n] = v
			}
			n++
			if comma < 0 {
				if field != w-1 {
					return false
				}
				break
			}
		}
		if ends != nil {
			ends[r] = int64(off)
		}
		r++
	}
	return true
}

// trimASCIISpace drops the ASCII spaces unicode.IsSpace knows (other
// than the line terminators, which never reach a cell) from the chosen
// ends of b.
func trimASCIISpace(b []byte, left, right bool) []byte {
	isSpace := func(c byte) bool { return c == ' ' || c == '\t' || c == '\v' || c == '\f' }
	for left && len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for right && len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// readHeader reads the annotated header record and builds its schema.
func readHeader(cr *csv.Reader) (*Schema, error) {
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		name, kindStr, found := strings.Cut(h, ":")
		kind := Interval
		if found {
			kind, err = ParseKind(kindStr)
			if err != nil {
				return nil, fmt.Errorf("relation: header column %d: %w", i, err)
			}
		}
		attrs[i] = Attribute{Name: strings.TrimSpace(name), Kind: kind}
	}
	return NewSchema(attrs...)
}

// readCSV is the encoding/csv parse loop: ParseCSV's fallback and the
// reference its scanner is tested against. It appends each record's
// end offset to *ends when ends is non-nil.
func readCSV(rd io.Reader, ends *[]int64) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.TrimLeadingSpace = true
	schema, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	if ends != nil {
		*ends = append(*ends, cr.InputOffset())
	}
	rel := NewRelation(schema)
	tuple := make([]float64, schema.Width())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(rec) != schema.Width() {
			return nil, fmt.Errorf("relation: line %d has %d fields, want %d", line, len(rec), schema.Width())
		}
		for i, cell := range rec {
			a := schema.Attr(i)
			if a.Kind == Nominal {
				tuple[i] = a.Dict.Code(cell)
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, fmt.Errorf("relation: line %d, column %q: %w", line, a.Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("relation: line %d, column %q: non-finite value %q", line, a.Name, cell)
			}
			tuple[i] = v
		}
		rel.MustAppend(tuple)
		if ends != nil {
			*ends = append(*ends, cr.InputOffset())
		}
	}
	return rel, nil
}

// WriteCSV writes the relation in the annotated-header format to w.
// Whatever ReadCSV accepted, WriteCSV writes back so that ReadCSV
// yields the same schema, values and nominal strings.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema().Width())
	for i := range header {
		a := r.Schema().Attr(i)
		header[i] = csvCell(a.Name) + ":" + a.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	rec := make([]string, len(header))
	err := r.Scan(func(_ int, tuple []float64) error {
		for i, v := range tuple {
			a := r.Schema().Attr(i)
			if a.Kind == Nominal && a.Dict != nil {
				if s, known := a.Dict.value(v); known {
					rec[i] = csvCell(s)
					continue
				}
			}
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if len(rec) == 1 && rec[0] == "" {
			// csv.Writer renders a lone empty field as a blank line,
			// which ReadCSV skips; a quoted empty field keeps the row.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	})
	if err != nil {
		return fmt.Errorf("relation: writing CSV row: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// csvCell prepares a string for csv.Writer so that ReadCSV reads it
// back unchanged: csv.Reader folds a "\r\n" line end to "\n" even
// inside a quoted field, so a literal "\r\n" goes out as "\r\r\n".
func csvCell(s string) string {
	return strings.ReplaceAll(s, "\r\n", "\r\r\n")
}
