package relation

import "sort"

// Dictionary maps nominal string values to dense float64 codes and back.
// Codes are assigned in first-seen order starting at 0. Because nominal
// values are only ever compared under the 0/1 discrete metric, the numeric
// value of a code carries no meaning beyond identity.
type Dictionary struct {
	codes  map[string]float64
	values []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{codes: make(map[string]float64)}
}

// Code returns the code for v, assigning a fresh one if v is new.
func (d *Dictionary) Code(v string) float64 {
	if c, ok := d.codes[v]; ok {
		return c
	}
	c := float64(len(d.values))
	d.codes[v] = c
	d.values = append(d.values, v)
	return c
}

// codeBytes is Code for a value held as bytes; only a new value
// allocates.
func (d *Dictionary) codeBytes(v []byte) float64 {
	if c, ok := d.codes[string(v)]; ok {
		return c
	}
	return d.Code(string(v))
}

// Lookup returns the code for v and whether v has been seen.
func (d *Dictionary) Lookup(v string) (float64, bool) {
	c, ok := d.codes[v]
	return c, ok
}

// Value returns the string for a code, or "" if the code is unknown.
func (d *Dictionary) Value(code float64) string {
	v, _ := d.value(code)
	return v
}

// value returns the string for a code and whether the code is known —
// which Value cannot tell apart from a known empty string. Codes are
// produced only by Code, so any non-integral or out-of-range float is
// unknown by construction.
func (d *Dictionary) value(code float64) (string, bool) {
	i := int(code)
	if float64(i) != code || i < 0 || i >= len(d.values) {
		return "", false
	}
	return d.values[i], true
}

// Len returns the number of distinct values seen.
func (d *Dictionary) Len() int { return len(d.values) }

// Values returns all known values in sorted order (for stable output).
func (d *Dictionary) Values() []string {
	out := append([]string(nil), d.values...)
	sort.Strings(out)
	return out
}
