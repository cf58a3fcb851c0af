package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/distance"
	"repro/internal/relation"
)

// deriveSeed splits the workload seed into independent streams
// (splitmix64 over seed and stream number).
func deriveSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// wbcdCSV renders the WBCD-like relation of n tuples for seed, byte for
// byte what `datagen -workload wbcd -tuples n -seed seed` prints.
func wbcdCSV(n int, seed int64) ([]byte, error) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = n
	cfg.Seed = seed
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// csvRows indexes a rendered CSV: the header line and the byte offset
// of every data row.
type csvRows struct {
	data   []byte
	header int   // length of the header line, newline included
	starts []int // offset of each data row
}

func indexCSV(data []byte) csvRows {
	h := bytes.IndexByte(data, '\n') + 1
	c := csvRows{data: data, header: h}
	for off := h; off < len(data); {
		c.starts = append(c.starts, off)
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			break
		}
		off += n + 1
	}
	return c
}

// rotated renders the relation with its data rows rotated left by k
// rows into dst (reused across calls), so one generated relation yields
// many distinct ingest bodies of identical size and statistics.
func (c csvRows) rotated(dst []byte, k int) []byte {
	dst = append(dst[:0], c.data[:c.header]...)
	if len(c.starts) == 0 {
		return dst
	}
	k %= len(c.starts)
	cut := c.starts[k]
	dst = append(dst, c.data[cut:]...)
	return append(dst, c.data[c.header:cut]...)
}

// rotatedRelation is rel with its rows rotated left by k: what
// relation.ReadCSV yields for csvRows.rotated(k).
func rotatedRelation(rel *relation.Relation, k int) *relation.Relation {
	out := relation.NewRelation(rel.Schema())
	n := rel.Len()
	for i := 0; i < n; i++ {
		out.MustAppend(rel.Tuple((i + k) % n))
	}
	return out
}

// queryDoc is one query-options document of the read workloads. Zero
// fields are omitted, so the server applies its defaults.
type queryDoc struct {
	Metric           string    `json:"metric,omitempty"`
	DegreeFactor     float64   `json:"degreeFactor,omitempty"`
	Measures         bool      `json:"measures,omitempty"`
	AntecedentGroups []string  `json:"antecedentGroups,omitempty"`
	ConsequentGroups []string  `json:"consequentGroups,omitempty"`
	SweepFactors     []float64 `json:"sweepFactors,omitempty"`
	TopK             int       `json:"topK,omitempty"`
}

// options resolves the document the way the query endpoint documents
// it (absent fields take core.DefaultQueryOptions), independently of
// the server's own parser, so the reference renderer checks that too.
func (d queryDoc) options() (core.QueryOptions, error) {
	q := core.DefaultQueryOptions()
	if d.Metric != "" {
		m, ok := distance.ParseClusterMetric(d.Metric)
		if !ok {
			return q, fmt.Errorf("unknown metric %q", d.Metric)
		}
		q.Metric = m
	}
	if d.DegreeFactor != 0 {
		q.DegreeFactor = d.DegreeFactor
	}
	q.Measures = d.Measures
	q.AntecedentGroups = d.AntecedentGroups
	q.ConsequentGroups = d.ConsequentGroups
	q.SweepFactors = d.SweepFactors
	q.TopK = d.TopK
	core.NormalizeGroupFilters(&q)
	return q, q.Validate()
}

// universeGroups sizes the group filters of the universe: each of the
// first universeGroups attributes appears once as an antecedent and
// once as a consequent filter.
const universeGroups = 17

// universe is the fixed set of option documents the read workloads
// draw from, in popularity order. It varies topK, degreeFactor,
// measures, sweepFactors and the group filters, and is sized so that
// the distinct responses over a WBCD-like 100K-tuple summary total
// about twice dard's default 64 MiB result cache: the cache both hits
// and evicts. The metric stays D2: a D0 or D1 query over such a
// summary runs for longer than dard's 30 s query budget. The
// popularity order is a fixed shuffle, independent of the workload
// seed, so every seed has the same hot set.
type universe struct {
	docs   []queryDoc
	bodies [][]byte
}

func newUniverse() (*universe, error) {
	var docs []queryDoc
	groups := []struct{ ante, cons []string }{{nil, nil}}
	for i := 0; i < universeGroups; i++ {
		g := []string{fmt.Sprintf("a%02d", i)}
		groups = append(groups, struct{ ante, cons []string }{nil, g}, struct{ ante, cons []string }{g, nil})
	}
	for _, df := range []float64{0, 0.5, 0.75} {
		for _, topK := range []int{0, 10, 50} {
			for _, measures := range []bool{false, true} {
				for _, sweep := range []bool{false, true} {
					for _, g := range groups {
						d := queryDoc{DegreeFactor: df, TopK: topK, Measures: measures,
							AntecedentGroups: g.ante, ConsequentGroups: g.cons}
						if sweep {
							top := df
							if top == 0 {
								top = 1
							}
							d.SweepFactors = []float64{top / 4, top / 2}
						}
						docs = append(docs, d)
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	u := &universe{docs: docs, bodies: make([][]byte, len(docs))}
	for i, d := range docs {
		if _, err := d.options(); err != nil {
			return nil, fmt.Errorf("universe doc %d: %w", i, err)
		}
		b, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		u.bodies[i] = b
	}
	return u, nil
}

// zipfExponent skews draws toward the head of the popularity order.
const zipfExponent = 1.1

// docStream draws document indices from a seeded Zipf over the
// universe. Each client owns one stream.
type docStream struct{ z *rand.Zipf }

func newDocStream(u *universe, seed int64) docStream {
	r := rand.New(rand.NewSource(seed))
	return docStream{z: rand.NewZipf(r, zipfExponent, 1, uint64(len(u.docs)-1))}
}

func (s docStream) next() int { return int(s.z.Uint64()) }
