package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CSV format used by the cmd/ tools:
//
//	name:kind,name:kind,...      header, kind ∈ {interval, ordinal, nominal}
//	v11,v12,...                  one row per tuple
//
// A header cell without ":kind" defaults to interval. Nominal cells may hold
// arbitrary strings; interval and ordinal cells must parse as floats.

// ReadCSV reads a relation in the annotated-header format from rd.
func ReadCSV(rd io.Reader) (*Relation, error) {
	return readCSV(rd, nil)
}

// ReadCSVRecordEnds is ReadCSV that also reports where each record ends
// in the input: ends[0] is the byte offset just past the header record
// and ends[i] the offset just past data row i-1. The header is therefore
// input[:ends[0]] and rows [lo, hi) are input[ends[lo]:ends[hi]] — a
// byte range that parses, behind the same header, to exactly those rows
// (blank lines between records travel with the record after them).
func ReadCSVRecordEnds(rd io.Reader) (*Relation, []int64, error) {
	var ends []int64
	rel, err := readCSV(rd, &ends)
	return rel, ends, err
}

// readCSV is the one parse loop behind ReadCSV and ReadCSVRecordEnds;
// it appends each record's end offset to *ends when ends is non-nil.
func readCSV(rd io.Reader, ends *[]int64) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	if ends != nil {
		*ends = append(*ends, cr.InputOffset())
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
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
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
