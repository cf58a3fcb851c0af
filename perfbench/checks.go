package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/summary"
)

// stripDurations removes every `"durationMs": …` line from a rendered
// query document: the engine's wall-clock timings are the only bytes of
// a served query that may differ from the reference.
func stripDurations(body []byte) []byte {
	key := []byte(`"durationMs":`)
	if !bytes.Contains(body, key) {
		return body
	}
	out := make([]byte, 0, len(body))
	for len(body) > 0 {
		i := bytes.Index(body, key)
		if i < 0 {
			return append(out, body...)
		}
		start := bytes.LastIndexByte(body[:i], '\n') + 1
		end := len(body)
		if j := bytes.IndexByte(body[i:], '\n'); j >= 0 {
			end = i + j + 1
		}
		out = append(out, body[:start]...)
		body = body[end:]
	}
	return out
}

var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// bodyKey names one query whose answer must never change: a document
// over one summary artifact.
type bodyKey struct {
	summary string
	doc     int
}

// bodyLog records, per query, the distinct bodies served (by hash of
// the body with its timings stripped) and how often each was served.
// Hashing the raw body first means a cache hit, which repeats bytes
// already seen, costs no stripping.
type bodyLog struct {
	mu     sync.Mutex
	raw    map[uint64]uint64 // raw hash → stripped hash
	served map[bodyKey]map[uint64]int
}

func newBodyLog() *bodyLog {
	return &bodyLog{raw: make(map[uint64]uint64), served: make(map[bodyKey]map[uint64]int)}
}

func (l *bodyLog) record(k bodyKey, body []byte) {
	rh := hashBytes(body)
	l.mu.Lock()
	sh, ok := l.raw[rh]
	l.mu.Unlock()
	if !ok {
		sh = hashBytes(stripDurations(body))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.raw[rh] = sh
	m := l.served[k]
	if m == nil {
		m = make(map[uint64]int)
		l.served[k] = m
	}
	m[sh]++
}

// keys returns the recorded queries in a stable order.
func (l *bodyLog) keys() []bodyKey {
	l.mu.Lock()
	defer l.mu.Unlock()
	ks := make([]bodyKey, 0, len(l.served))
	for k := range l.served {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].summary != ks[j].summary {
			return ks[i].summary < ks[j].summary
		}
		return ks[i].doc < ks[j].doc
	})
	return ks
}

// verify compares every served body against the reference rendering
// of its query and returns the number of responses that differ, with
// an error naming the first reference failure or else the queries that
// were answered wrongly. ref may be called from several goroutines at
// once.
func (l *bodyLog) verify(ref func(bodyKey) ([]byte, error), parallel int) (int, error) {
	keys := l.keys()
	var (
		mu       sync.Mutex
		bad      int
		firstErr error
		wrong    []string
		wg       sync.WaitGroup
	)
	work := make(chan bodyKey)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				want, err := ref(k)
				wantHash := hashBytes(stripDurations(want))
				l.mu.Lock()
				n, total := 0, 0
				for h, count := range l.served[k] {
					total += count
					if err != nil || h != wantHash {
						n += count
					}
				}
				l.mu.Unlock()
				mu.Lock()
				bad += n
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s doc %d: %w", k.summary, k.doc, err)
				}
				if err == nil && n > 0 {
					wrong = append(wrong, fmt.Sprintf("%s doc %d (%d of %d answers)", k.summary, k.doc, n, total))
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	if firstErr == nil && len(wrong) > 0 {
		sort.Strings(wrong)
		firstErr = fmt.Errorf("wrong answers to %s", strings.Join(wrong, ", "))
	}
	return bad, firstErr
}

// renderQuery is the reference for a served query: the pure Phase II
// engine over the decoded artifact, rendered as `darminer query -json`
// renders it.
func renderQuery(sum *summary.Summary, q core.QueryOptions) ([]byte, *core.Result, error) {
	res, err := core.QuerySummary(sum, q)
	if err != nil {
		return nil, nil, err
	}
	body, err := renderResult(sum, res)
	return body, res, err
}

func renderResult(sum *summary.Summary, res *core.Result) ([]byte, error) {
	schema, err := sum.Schema()
	if err != nil {
		return nil, err
	}
	part, err := sum.Partitioning(schema)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, res, relation.NewRelation(schema), part); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// clusterCount totals the clusters of every group, as ingest acks do.
func clusterCount(sum *summary.Summary) int {
	n := 0
	for _, g := range sum.Groups {
		n += len(g.Clusters)
	}
	return n
}
