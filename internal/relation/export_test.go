package relation

import "bytes"

// ReadCSVReference exposes the encoding/csv loop (ParseCSV's fallback)
// to the external tests and benchmarks.
func ReadCSVReference(body []byte) (*Relation, error) {
	return readCSV(bytes.NewReader(body), nil)
}

// ParseCSVChunks is ParseCSV with its rows cut into k chunks whatever
// their size: the 1 MiB floor on a chunk is waived, so small bodies
// exercise the chunked scan and its dictionary merge.
func ParseCSVChunks(body []byte, k int) (*Relation, []int64, error) {
	var ends []int64
	rel, err := parseCSV(body, &ends, k, 1)
	return rel, ends, err
}
