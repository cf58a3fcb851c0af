package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// CSV format used by the cmd/ tools:
//
//	name:kind,name:kind,...      header, kind ∈ {interval, ordinal, nominal}
//	v11,v12,...                  one row per tuple
//
// A header cell without ":kind" defaults to interval. Nominal cells may hold
// arbitrary strings; interval and ordinal cells must parse as floats.

// ReadCSV reads a relation in the annotated-header format from rd. It
// reads the whole input into memory first and parses it with ParseCSV.
func ReadCSV(rd io.Reader) (*Relation, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, rd); err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	return parseCSV(buf.Bytes(), nil)
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
func ParseCSV(body []byte) (*Relation, []int64, error) {
	var ends []int64
	rel, err := parseCSV(body, &ends)
	return rel, ends, err
}

// parseCSV is ParseCSV that records the ends only when ends is non-nil.
func parseCSV(body []byte, ends *[]int64) (*Relation, error) {
	if bytes.IndexByte(body, '"') >= 0 || bytes.IndexByte(body, '\r') >= 0 {
		return readCSV(bytes.NewReader(body), ends)
	}
	cr := csv.NewReader(bytes.NewReader(body))
	cr.TrimLeadingSpace = true
	schema, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	if !scanRows(rel, body, cr.InputOffset(), ends) {
		return readCSV(bytes.NewReader(body), ends)
	}
	return rel, nil
}

// scanRows parses the rows of body, which start at offset start, into
// rel and appends their record ends (header end first) to *ends when
// ends is non-nil. It reports false, leaving *ends untouched, on the
// first thing it does not handle exactly as readCSV would. A row is
// split at every ','; cells lose leading ASCII spaces as
// TrimLeadingSpace would, and numeric cells trailing ones too, as
// strings.TrimSpace would; a blank line is skipped.
//
// The relation and the ends are pre-sized from the newline count, but
// never beyond the body's own size: blank lines, or short rows behind a
// wide header, must not commit more memory than the body occupies
// before the scan rejects them.
func scanRows(rel *Relation, body []byte, start int64, ends *[]int64) bool {
	s := rel.schema
	w := s.Width()
	rows := min(bytes.Count(body[start:], []byte{'\n'})+1, len(body)/(8*max(w, 1))+1)
	rel.data = make([]float64, 0, rows*w)
	var recEnds []int64
	if ends != nil {
		recEnds = append(make([]int64, 0, rows+1), start)
	}
	for off := int(start); off < len(body); {
		line := body[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			off += i + 1
		} else {
			off = len(body)
		}
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
			if a := &s.attrs[field]; a.Kind == Nominal {
				if len(cell) > 0 && cell[0] >= utf8.RuneSelf {
					return false
				}
				rel.data = append(rel.data, a.Dict.codeBytes(cell))
			} else {
				v, err := strconv.ParseFloat(string(trimASCIISpace(cell, false, true)), 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
				rel.data = append(rel.data, v)
			}
			if comma < 0 {
				if field != w-1 {
					return false
				}
				break
			}
		}
		rel.rows++
		if ends != nil {
			recEnds = append(recEnds, int64(off))
		}
	}
	if ends != nil {
		*ends = recEnds
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
