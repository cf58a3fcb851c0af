// Package relation provides the relational substrate every miner in this
// repository consumes: attribute schemas, in-memory columnar relations,
// CSV input/output, and the attribute-group partitioning that the paper's
// algorithms are defined over (Section 4.3: "a single partitioning of the
// attributes into disjoint sets (X_i) over which there is a meaningful
// distance metric").
//
// All attribute values are carried as float64. Interval attributes use the
// value directly; nominal attributes store a code assigned by a Dictionary
// and are compared only under the 0/1 metric; ordinal attributes store a
// rank. This uniform encoding lets clustering features (internal/cf) and
// distance metrics (internal/distance) operate on plain numeric vectors
// while the schema preserves the measurement-scale semantics the paper is
// about.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an attribute by its scale of measurement, following the
// taxonomy the paper takes from Jain & Dubes [JD88]: nominal values are
// names with no relative meaning, ordinal values have meaning only relative
// to each other, and interval values are ordered with meaningful separation.
type Kind int

const (
	// Interval attributes are ordered and the separation between values
	// has meaning (e.g. Salary, Age). These are the subject of the paper.
	Interval Kind = iota
	// Ordinal attributes are ordered but separations are not meaningful
	// (e.g. a ranking). Equi-depth partitioning is appropriate for them.
	Ordinal
	// Nominal attributes are unordered names (e.g. Job). Only the 0/1
	// discrete metric applies.
	Nominal
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Interval:
		return "interval"
	case Ordinal:
		return "ordinal"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a string (as used in CSV header annotations and CLI
// flags) into a Kind. It accepts the String forms, case-insensitively.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "interval", "quantitative", "numeric":
		return Interval, nil
	case "ordinal":
		return Ordinal, nil
	case "nominal", "categorical":
		return Nominal, nil
	default:
		return 0, fmt.Errorf("relation: unknown attribute kind %q", s)
	}
}

// Attribute describes a single column of a relation.
type Attribute struct {
	// Name is the column name as it appears in headers and rule output.
	Name string
	// Kind is the attribute's scale of measurement.
	Kind Kind
	// Dict translates nominal values to codes and back. Nil for interval
	// and ordinal attributes.
	Dict *Dictionary
}

// Schema is an ordered list of attributes, analogous to the paper's relation
// schema R = {A_1, ..., A_m}.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs:  make([]Attribute, len(attrs)),
		byName: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute name %q", a.Name)
		}
		if a.Kind == Nominal && a.Dict == nil {
			a.Dict = NewDictionary()
		}
		s.attrs[i] = a
		s.byName[a.Name] = i
	}
	return s, nil
}

// dicts returns each attribute's dictionary, indexed by attribute: nil
// for the numeric ones.
func (s *Schema) dicts() []*Dictionary {
	out := make([]*Dictionary, len(s.attrs))
	for i, a := range s.attrs {
		if a.Kind == Nominal {
			out[i] = a.Dict
		}
	}
	return out
}

// MustSchema is NewSchema that panics on error; intended for tests,
// examples, and statically known schemas.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns the number of attributes (|R| = m in the paper).
func (s *Schema) Width() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Group is a set of attribute positions treated as a unit for clustering —
// one of the paper's disjoint attribute sets X_i. Most groups contain a
// single attribute; multi-attribute groups are used when a semantically
// meaningful joint distance metric exists (the paper's Latitude/Longitude
// example in Section 5.2).
type Group struct {
	// Name labels the group in rule output. For single-attribute groups it
	// defaults to the attribute name.
	Name string
	// Attrs are schema positions, in ascending order, without duplicates.
	Attrs []int
}

// Dims returns the dimensionality |X| of the group.
func (g Group) Dims() int { return len(g.Attrs) }

// Partitioning is a complete partitioning of (a subset of) a schema's
// attributes into disjoint groups. The paper's algorithms take exactly one
// such partitioning as input (Section 4.3, footnote 2).
type Partitioning struct {
	schema *Schema
	groups []Group
	// attrGroup[i] is the group index owning attribute i, or -1.
	attrGroup []int
}

// NewPartitioning validates that the groups reference valid, mutually
// disjoint attributes of the schema.
func NewPartitioning(s *Schema, groups []Group) (*Partitioning, error) {
	if s == nil {
		return nil, fmt.Errorf("relation: nil schema")
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("relation: a partitioning needs at least one group")
	}
	p := &Partitioning{
		schema:    s,
		groups:    make([]Group, len(groups)),
		attrGroup: make([]int, s.Width()),
	}
	for i := range p.attrGroup {
		p.attrGroup[i] = -1
	}
	for gi, g := range groups {
		if len(g.Attrs) == 0 {
			return nil, fmt.Errorf("relation: group %d (%q) is empty", gi, g.Name)
		}
		attrs := append([]int(nil), g.Attrs...)
		sort.Ints(attrs)
		for k, a := range attrs {
			if a < 0 || a >= s.Width() {
				return nil, fmt.Errorf("relation: group %q references attribute %d outside schema of width %d", g.Name, a, s.Width())
			}
			if k > 0 && attrs[k-1] == a {
				return nil, fmt.Errorf("relation: group %q repeats attribute %d", g.Name, a)
			}
			if p.attrGroup[a] != -1 {
				return nil, fmt.Errorf("relation: attribute %q is in two groups", s.Attr(a).Name)
			}
			p.attrGroup[a] = gi
		}
		name := g.Name
		if name == "" {
			names := make([]string, len(attrs))
			for k, a := range attrs {
				names[k] = s.Attr(a).Name
			}
			name = strings.Join(names, "+")
		}
		p.groups[gi] = Group{Name: name, Attrs: attrs}
	}
	return p, nil
}

// SingletonPartitioning places every attribute of the schema in its own
// group — the common case in the paper ("most often each X_i [is] an
// individual attribute").
func SingletonPartitioning(s *Schema) *Partitioning {
	groups := make([]Group, s.Width())
	for i := 0; i < s.Width(); i++ {
		groups[i] = Group{Name: s.Attr(i).Name, Attrs: []int{i}}
	}
	p, err := NewPartitioning(s, groups)
	if err != nil {
		// Unreachable: singleton groups over a valid schema cannot clash.
		panic(err)
	}
	return p
}

// Schema returns the schema the partitioning is defined over.
func (p *Partitioning) Schema() *Schema { return p.schema }

// NumGroups returns the number of attribute groups M.
func (p *Partitioning) NumGroups() int { return len(p.groups) }

// Group returns the group at index gi.
func (p *Partitioning) Group(gi int) Group { return p.groups[gi] }

// GroupOf returns the index of the group owning schema attribute a, or -1
// if the attribute is not part of the partitioning.
func (p *Partitioning) GroupOf(a int) int { return p.attrGroup[a] }

// Project copies the group's attribute values out of a full-width tuple
// into dst, which must have length g.Dims(). It returns dst to allow
// chaining. Project is the t[X] operation of the paper.
func (p *Partitioning) Project(gi int, tuple []float64, dst []float64) []float64 {
	g := p.groups[gi]
	for k, a := range g.Attrs {
		dst[k] = tuple[a]
	}
	return dst
}
