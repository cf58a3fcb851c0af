package relation

import "bytes"

// ReadCSVReference exposes the encoding/csv loop (ParseCSV's fallback)
// to the external tests and benchmarks.
func ReadCSVReference(body []byte) (*Relation, error) {
	return readCSV(bytes.NewReader(body), nil)
}
