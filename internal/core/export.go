package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/relation"
)

// Export types: a stable, self-describing JSON form of a mining result
// for downstream tooling. Cluster references are resolved into readable
// descriptions; raw IDs are kept for joins.

// ExportedCluster is the JSON form of a frequent cluster.
type ExportedCluster struct {
	ID          int       `json:"id"`
	Group       string    `json:"group"`
	Description string    `json:"description"`
	Size        int64     `json:"size"`
	Centroid    []float64 `json:"centroid"`
	Lo          []float64 `json:"lo,omitempty"`
	Hi          []float64 `json:"hi,omitempty"`
	Diameter    float64   `json:"diameter"`
	BoxExact    bool      `json:"boxExact"`
}

// ExportedRule is the JSON form of a DAR. Measures appears only when
// the query computed them (RuleMeasures.Conviction uses the
// ConvictionInfinite sentinel, -1, where the measure diverges).
type ExportedRule struct {
	Antecedent  []int         `json:"antecedent"`
	Consequent  []int         `json:"consequent"`
	Description string        `json:"description"`
	Degree      float64       `json:"degree"`
	Support     int64         `json:"support"` // -1 when not counted
	Measures    *RuleMeasures `json:"measures,omitempty"`
}

// ExportedResult is the JSON document. Sweep appears only when the
// query asked for a degree-factor sweep.
type ExportedResult struct {
	Tuples   int               `json:"tuples"`
	Clusters []ExportedCluster `json:"clusters"`
	Rules    []ExportedRule    `json:"rules"`
	Sweep    []SweepPoint      `json:"sweep,omitempty"`
	PhaseI   ExportedPhaseI    `json:"phaseI"`
	PhaseII  ExportedPhaseII   `json:"phaseII"`
}

// ExportedPhaseI summarizes Phase I.
type ExportedPhaseI struct {
	DurationMS    float64 `json:"durationMs"`
	ClustersFound int     `json:"clustersFound"`
	Frequent      int     `json:"frequentClusters"`
	Rebuilds      int     `json:"rebuilds"`
	Bytes         int     `json:"bytes"`
}

// ExportedPhaseII summarizes Phase II.
type ExportedPhaseII struct {
	DurationMS float64 `json:"durationMs"`
	GraphNodes int     `json:"graphNodes"`
	GraphEdges int     `json:"graphEdges"`
	Cliques    int     `json:"cliques"`
}

// WriteJSON renders the result as the ExportedResult document: two-space
// indented with a trailing newline, byte for byte what encoding/json's
// Encoder with SetIndent("", "  ") prints for it, in one Write. It is
// the document `darminer query -json` prints and dard and darc serve.
//
// The document is appended into one buffer in a single pass with
// encoding/json's rules written out: fields in the Exported* tag order,
// a nil slice as null and an empty one as [], lo, hi, measures and
// sweep omitted when empty, floats by appendJSONFloat and strings by
// appendJSONString. Each cluster is described once per document, and
// its rules copy those bytes. A NaN or infinity fails as encoding/json
// fails, with a *json.UnsupportedValueError for the first one in
// document order, and nothing is written.
//
// The pass is a Frame's head, then the body Frame.Body renders, then
// the frame's tail, so the document equals NewFrame(res)'s Head, Body
// and Tail concatenated.
func WriteJSON(w io.Writer, res *Result, rel relation.Source, part *relation.Partitioning) error {
	d := docWriter{b: make([]byte, 0, frameHint(res)+bodyHint(res, nil))}
	desc := d.head(res, rel.Schema(), part)
	d.body(res, d.b, desc)
	d.tail(res)
	err := d.err
	if err == nil {
		_, err = w.Write(d.b)
	}
	return encodingErr(err)
}

// Frame is the part of a result's WriteJSON document that its rules and
// sweep do not touch: the head, from "{" through `"rules": `, and the
// tail, from the "phaseI" member to the closing newline. Every answer
// WithQueryModes derives from one base shares the base's clusters and
// statistics, and so its frame; a server renders the frame once per
// base, and each answer renders only its Body. A Frame is never
// modified after NewFrame returns it.
type Frame struct {
	head, tail []byte
	// desc[id] is where cluster id's escaped description sits in head;
	// Body copies rule descriptions from there.
	desc []span
}

// NewFrame renders res's frame. A NaN or infinity in the clusters block
// fails it with WriteJSON's error. Head and tail share one allocation
// of exactly their length.
func NewFrame(res *Result, rel relation.Source, part *relation.Partitioning) (*Frame, error) {
	d := docWriter{b: make([]byte, 0, frameHint(res))}
	desc := d.head(res, rel.Schema(), part)
	n := len(d.b)
	d.tail(res)
	if d.err != nil {
		return nil, encodingErr(d.err)
	}
	doc := append(make([]byte, 0, len(d.b)), d.b...)
	return &Frame{head: doc[:n:n], tail: doc[n:], desc: desc}, nil
}

// Head returns the document's bytes before the rules array.
func (f *Frame) Head() []byte { return f.head }

// Tail returns the document's bytes after the rules array and sweep.
func (f *Frame) Tail() []byte { return f.tail }

// Size is the bytes the frame holds: head, tail and the description
// index (two ints a cluster).
func (f *Frame) Size() int { return len(f.head) + len(f.tail) + 16*len(f.desc) }

// Body renders res's rules array and its sweep member, if any: the
// bytes between the frame's Head and Tail. res must have the frame's
// clusters (the frame's result, or an answer WithQueryModes derived
// from it). A NaN or infinity in a rule or the sweep fails it with
// WriteJSON's error.
func (f *Frame) Body(res *Result) ([]byte, error) {
	d := docWriter{b: make([]byte, 0, bodyHint(res, f.desc))}
	d.body(res, f.head, f.desc)
	if d.err != nil {
		return nil, encodingErr(d.err)
	}
	return d.b, nil
}

func encodingErr(err error) error {
	if err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	return nil
}

// frameHint estimates a frame's length, so that it is usually appended
// without regrowing: 248 bytes per cluster and 96 per cluster dimension
// (centroid, lo and hi), plus the tail. On the 20K and 100K WBCD
// summaries the clusters block runs 336–342 bytes a cluster.
func frameHint(res *Result) int {
	n := 512
	for _, c := range res.Clusters {
		n += 248 + 96*len(c.ACF.LS[c.ACF.Own])
	}
	return n
}

// bodyHint estimates a body's length: 172 bytes per rule with its
// description suffix, 18 per cluster it names besides its description
// (an ID line and a join), 184 per rule's measures and 72 per sweep
// point. Each description's length is read from where desc says the
// head holds it; before the head is written (desc nil) it allows 64
// bytes, over twice what the WBCD clusters' take. With desc it runs
// 2–5% over the 20K and 100K WBCD answers' bodies, so a body is
// appended without regrowing and keeps little spare capacity.
func bodyHint(res *Result, desc []span) int {
	n := 64 + 72*len(res.Sweep)
	for _, r := range res.Rules {
		n += 172
		for _, ids := range [2][]int{r.Antecedent, r.Consequent} {
			for _, id := range ids {
				w := 64
				if desc != nil {
					w = desc[id].end - desc[id].start
				}
				n += 18 + w
			}
		}
		if r.Measures != nil {
			n += 184
		}
	}
	return n
}

// docWriter appends WriteJSON document parts to b. err holds the first
// unsupported float; once it is set the document is discarded.
type docWriter struct {
	b   []byte
	err error
}

type span struct{ start, end int }

// indent is sliced for the two spaces per level that begin each line.
const indent = "            "

// head appends the document up to the rules array: "{", the tuple
// count and the clusters block, and `"rules": `. It returns where each
// cluster's escaped description landed in b.
func (d *docWriter) head(res *Result, schema *relation.Schema, part *relation.Partitioning) []span {
	d.b = append(d.b, '{')
	d.field(1, "tuples", true)
	d.b = strconv.AppendInt(d.b, int64(res.PhaseI.TuplesScanned), 10)
	d.field(1, "clusters", false)
	desc := d.clusters(res, schema, part)
	d.field(1, "rules", false)
	return desc
}

// body appends the rules array and the sweep member, whose rule
// descriptions copy from head at desc.
func (d *docWriter) body(res *Result, head []byte, desc []span) {
	d.rules(res, head, desc)
	if len(res.Sweep) > 0 {
		d.field(1, "sweep", false)
		d.b = append(d.b, '[')
		for i, p := range res.Sweep {
			d.element(2, i)
			d.b = append(d.b, '{')
			d.field(3, "factor", true)
			d.float(p.Factor)
			d.intField(3, "rules", p.Rules)
			d.close(2, '}')
		}
		d.close(1, ']')
	}
}

// tail appends the phaseI and phaseII members and closes the document.
func (d *docWriter) tail(res *Result) {
	d.field(1, "phaseI", false)
	d.b = append(d.b, '{')
	d.field(2, "durationMs", true)
	d.float(float64(res.PhaseI.Duration.Microseconds()) / 1000)
	d.intField(2, "clustersFound", res.PhaseI.ClustersFound)
	d.intField(2, "frequentClusters", res.PhaseI.FrequentClusters)
	d.intField(2, "rebuilds", res.PhaseI.Rebuilds)
	d.intField(2, "bytes", res.PhaseI.Bytes)
	d.close(1, '}')
	d.field(1, "phaseII", false)
	d.b = append(d.b, '{')
	d.field(2, "durationMs", true)
	d.float(float64(res.PhaseII.Duration.Microseconds()) / 1000)
	d.intField(2, "graphNodes", res.PhaseII.GraphNodes)
	d.intField(2, "graphEdges", res.PhaseII.GraphEdges)
	d.intField(2, "cliques", res.PhaseII.Cliques)
	d.close(1, '}')
	d.close(0, '}')
	d.b = append(d.b, '\n')
}

// clusters appends the clusters array, null when there are none (the
// nil slice of an empty export), and returns where each description
// landed.
func (d *docWriter) clusters(res *Result, schema *relation.Schema, part *relation.Partitioning) []span {
	if len(res.Clusters) == 0 {
		d.b = append(d.b, "null"...)
		return nil
	}
	desc := make([]span, len(res.Clusters))
	var raw []byte
	d.b = append(d.b, '[')
	for i, c := range res.Clusters {
		d.element(2, i)
		d.b = append(d.b, '{')
		d.field(3, "id", true)
		d.b = strconv.AppendInt(d.b, int64(c.ID), 10)
		d.field(3, "group", false)
		d.b = appendJSONString(d.b, part.Group(c.Group).Name)
		d.field(3, "description", false)
		raw = c.appendDescription(raw[:0], schema, part)
		start := len(d.b) + 1 // past the opening quote
		d.b = appendJSONString(d.b, raw)
		desc[i] = span{start, len(d.b) - 1}
		d.field(3, "size", false)
		d.b = strconv.AppendInt(d.b, c.Size, 10)
		d.field(3, "centroid", false)
		d.centroid(3, c)
		if len(c.Lo) > 0 {
			d.field(3, "lo", false)
			d.floats(3, c.Lo)
		}
		if len(c.Hi) > 0 {
			d.field(3, "hi", false)
			d.floats(3, c.Hi)
		}
		d.field(3, "diameter", false)
		d.float(c.Diameter())
		d.field(3, "boxExact", false)
		d.b = strconv.AppendBool(d.b, c.BoxExact)
		d.close(2, '}')
	}
	d.close(1, ']')
	return desc
}

// rules appends the rules array, null when there are none. A rule's
// description is its clusters' escaped descriptions, copied from head,
// joined by appendSignature; the joins and the degree suffix need no
// escaping (see appendSignature).
func (d *docWriter) rules(res *Result, head []byte, desc []span) {
	if len(res.Rules) == 0 {
		d.b = append(d.b, "null"...)
		return
	}
	described := func(b []byte, id int) []byte {
		s := desc[id]
		return append(b, head[s.start:s.end]...)
	}
	d.b = append(d.b, '[')
	for i := range res.Rules {
		r := &res.Rules[i]
		d.element(2, i)
		d.b = append(d.b, '{')
		d.field(3, "antecedent", true)
		d.ints(3, r.Antecedent)
		d.field(3, "consequent", false)
		d.ints(3, r.Consequent)
		d.field(3, "description", false)
		d.b = append(d.b, '"')
		d.b = appendDegree(appendSignature(d.b, *r, described), *r)
		d.b = append(d.b, '"')
		d.field(3, "degree", false)
		d.float(r.Degree)
		d.field(3, "support", false)
		d.b = strconv.AppendInt(d.b, r.Support, 10)
		if m := r.Measures; m != nil {
			d.field(3, "measures", false)
			d.b = append(d.b, '{')
			d.field(4, "support", true)
			d.float(m.Support)
			d.field(4, "confidence", false)
			d.float(m.Confidence)
			d.field(4, "lift", false)
			d.float(m.Lift)
			d.field(4, "conviction", false)
			d.float(m.Conviction)
			d.close(3, '}')
		}
		d.close(2, '}')
	}
	d.close(1, ']')
}

// newline starts a line at the given nesting depth.
func (d *docWriter) newline(depth int) {
	d.b = append(d.b, '\n')
	d.b = append(d.b, indent[:2*depth]...)
}

// field starts an object member on its own line: a comma unless it is
// the object's first, then `"name": `. Names are ASCII constants.
func (d *docWriter) field(depth int, name string, first bool) {
	if !first {
		d.b = append(d.b, ',')
	}
	d.newline(depth)
	d.b = append(d.b, '"')
	d.b = append(d.b, name...)
	d.b = append(d.b, '"', ':', ' ')
}

// intField appends a member, not an object's first, holding v.
func (d *docWriter) intField(depth int, name string, v int) {
	d.field(depth, name, false)
	d.b = strconv.AppendInt(d.b, int64(v), 10)
}

// element starts array element i on its own line.
func (d *docWriter) element(depth, i int) {
	if i > 0 {
		d.b = append(d.b, ',')
	}
	d.newline(depth)
}

// close ends an object or non-empty array whose members sit one level
// deeper than depth.
func (d *docWriter) close(depth int, c byte) {
	d.newline(depth)
	d.b = append(d.b, c)
}

// ints appends an int array whose member line sits at depth.
func (d *docWriter) ints(depth int, xs []int) {
	switch {
	case xs == nil:
		d.b = append(d.b, "null"...)
		return
	case len(xs) == 0:
		d.b = append(d.b, "[]"...)
		return
	}
	d.b = append(d.b, '[')
	for i, x := range xs {
		d.element(depth+1, i)
		d.b = strconv.AppendInt(d.b, int64(x), 10)
	}
	d.close(depth, ']')
}

// floats appends a float array whose member line sits at depth.
func (d *docWriter) floats(depth int, xs []float64) {
	switch {
	case xs == nil:
		d.b = append(d.b, "null"...)
		return
	case len(xs) == 0:
		d.b = append(d.b, "[]"...)
		return
	}
	d.b = append(d.b, '[')
	for i, x := range xs {
		d.element(depth+1, i)
		d.float(x)
	}
	d.close(depth, ']')
}

// centroid appends c.Centroid() without materializing it: null for an
// empty cluster, as Centroid returns nil there, and each LS/N otherwise.
func (d *docWriter) centroid(depth int, c *Cluster) {
	if c.ACF.N == 0 {
		d.b = append(d.b, "null"...)
		return
	}
	ls, n := c.ACF.LS[c.ACF.Own], float64(c.ACF.N)
	if len(ls) == 0 {
		d.b = append(d.b, "[]"...)
		return
	}
	d.b = append(d.b, '[')
	for i, v := range ls {
		d.element(depth+1, i)
		d.float(v / n)
	}
	d.close(depth, ']')
}

// float appends f, or records encoding/json's error for a NaN or an
// infinity if it is the document's first.
func (d *docWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if d.err == nil {
			d.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	d.b = appendJSONFloat(d.b, f)
}

// appendJSONFloat appends a finite f as encoding/json does, in the ES6
// number-to-string form: shortest 'f' digits, switching to 'e' for
// nonzero |f| < 1e-6 or >= 1e21, with a one-digit negative exponent
// unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted and escaped as encoding/json's
// Encoder does by default: \", \\, \b, \f, \n, \r and \t by name, every
// other control byte and the HTML-unsafe <, > and & as \u00XX in
// lowercase hex, U+2028 and U+2029 as \u2028 and \u2029, and each byte
// of invalid UTF-8 as \ufffd. Everything else is copied.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
