package server

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// resultCache is a byte-budgeted LRU over rendered query responses.
// Keys are (summary name, summary version, canonical query options):
// the version component makes entries for a re-ingested or merged
// summary unreachable the instant the catalog bumps it, and invalidate
// removes them eagerly so a hot merge cannot strand a budget's worth of
// dead bytes behind live traffic.
//
// A query answer is held as its own body (core.Frame.Body: the rules
// and the sweep) and served inside the frame of its base; a diff is
// held as its whole document. Either way the served bytes are the ones
// the miss that populated the entry served, but for the frame's Phase
// I/II durationMs should its base have been rebuilt in between — the
// served-vs-CLI differential, which drops durationMs, relies on this.
//
// The same budget and LRU also hold the query memo: the base rule sets
// (core.QueryBase) of the summary versions recent misses ran on and
// their frames, under keys of their own (see baseCacheKey), weighed by
// baseBytes plus the frame, so every frame is weighed once, in its
// base's entry. An answer is stored only where it fits beside its
// resident base, and storing or hitting it refreshes the base after
// it, so eviction takes a base's answers before the base.
type resultCache struct {
	budget int64 // <= 0 disables caching entirely

	mu    sync.Mutex
	m     map[string]*cacheEntry
	bytes int64
	clock uint64
}

// cacheEntry holds a query answer's body and its base's key, a diff's
// document, or a memoized base with its frame — or, when the frame
// failed to render, the error it failed with.
type cacheEntry struct {
	key      string
	body     []byte
	baseKey  string
	base     *core.Result
	frame    *core.Frame
	frameErr error
	size     int64
	lastUse  uint64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, m: make(map[string]*cacheEntry)}
}

// cacheKey renders the composite key: name, version, canonical option
// string, separated by a byte that cannot appear in catalog names or
// canonical strings, so keys can never collide across summaries (and
// diff keys — see diffCacheKey — stay in their own namespace).
func cacheKey(name string, version uint64, canonical string) string {
	return name + "\x00" + strconv.FormatUint(version, 10) + "\x00" + canonical
}

// baseCacheKey renders the memo key of q's base rule set over one
// summary version: the "base" marker in the third segment keeps it
// apart from query keys (whose third segment starts "metric=") and
// from diff keys, and the name prefix lets invalidate drop it with the
// bodies. Every query sharing q.BaseOptions() shares the entry.
func baseCacheKey(name string, version uint64, q core.QueryOptions) string {
	return name + "\x00" + strconv.FormatUint(version, 10) + "\x00base\x00" + q.BaseOptions().CanonicalKey()
}

// baseBytes weighs a memoized base for the cache budget: the ACFs of
// its clusters plus its rules (an 80-byte Rule and its cluster IDs).
func baseBytes(res *core.Result) int64 {
	var n int64
	for _, c := range res.Clusters {
		n += int64(c.ACF.Bytes())
	}
	for _, r := range res.Rules {
		n += 80 + 8*int64(len(r.Antecedent)+len(r.Consequent))
	}
	return n
}

// get returns the cached diff document under key, updating recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	e := c.lookup(key)
	if e == nil {
		return nil, false
	}
	return e.body, true
}

// getAnswer returns the query answer under key and its base's frame,
// refreshing the answer and then the base. An answer whose base is not
// resident is a miss.
func (c *resultCache) getAnswer(key string) (*core.Frame, []byte, bool) {
	if c.budget <= 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, nil, false
	}
	b, ok := c.m[e.baseKey]
	if !ok {
		return nil, nil, false
	}
	c.use(e)
	c.use(b)
	return b.frame, e.body, true
}

// getBase returns the memoized base under key, its frame and the error
// its frame failed with, updating recency; base is nil when none is
// memoized.
func (c *resultCache) getBase(key string) (base *core.Result, frame *core.Frame, frameErr error) {
	e := c.lookup(key)
	if e == nil {
		return nil, nil, nil
	}
	return e.base, e.frame, e.frameErr
}

func (c *resultCache) lookup(key string) *cacheEntry {
	if c.budget <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil
	}
	c.use(e)
	return e
}

func (c *resultCache) use(e *cacheEntry) {
	c.clock++
	e.lastUse = c.clock
}

// put stores a diff document, evicting least-recently-used entries to
// fit the budget. Bodies larger than the whole budget are not cached.
func (c *resultCache) put(key string, body []byte) {
	c.store(&cacheEntry{key: key, body: body, size: int64(len(body))})
}

// putAnswer stores a query answer's body, to be served inside the frame
// of the base memoized under baseKey. An answer is useless without its
// base: it is not stored if the base is not resident, or if the two do
// not fit the budget together.
func (c *resultCache) putAnswer(key, baseKey string, body []byte) {
	c.store(&cacheEntry{key: key, body: body, baseKey: baseKey, size: int64(len(body))})
}

// putBase memoizes a base rule set and its frame, or the error its
// frame failed with. Neither may be modified afterwards: every later
// miss on its version reads them concurrently.
func (c *resultCache) putBase(key string, base *core.Result, frame *core.Frame, frameErr error) {
	e := &cacheEntry{key: key, base: base, frame: frame, frameErr: frameErr, size: baseBytes(base)}
	if frame != nil {
		e.size += int64(frame.Size())
	}
	c.store(e)
}

func (c *resultCache) store(e *cacheEntry) {
	if c.budget <= 0 || e.size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.m[e.baseKey]
	if e.baseKey != "" && (b == nil || e.size+b.size > c.budget) {
		return
	}
	if old, ok := c.m[e.key]; ok {
		c.bytes -= old.size
	}
	c.use(e)
	c.m[e.key] = e
	c.bytes += e.size
	if b != nil {
		c.use(b)
	}
	for c.bytes > c.budget {
		var victim *cacheEntry
		for _, v := range c.m {
			if v.key == e.key {
				continue
			}
			if victim == nil || v.lastUse < victim.lastUse ||
				(v.lastUse == victim.lastUse && v.key < victim.key) {
				victim = v
			}
		}
		if victim == nil {
			return
		}
		delete(c.m, victim.key)
		c.bytes -= victim.size
	}
}

// invalidate eagerly removes every entry belonging to a summary name
// (all versions), memoized bases included. Called on ingest-over,
// merge and install. Diff entries name two summaries — the old side as
// the key prefix, the new side after the "diff" marker — and go when
// either is invalidated. (Version embedding already makes stale
// entries unreachable; this sweep just frees their bytes promptly.)
func (c *resultCache) invalidate(name string) {
	if c.budget <= 0 {
		return
	}
	prefix := name + "\x00"
	diffMark := "\x00diff\x00" + name + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.m {
		if strings.HasPrefix(key, prefix) || strings.Contains(key, diffMark) {
			delete(c.m, key)
			c.bytes -= e.size
		}
	}
}

// stats returns the gauges of the query answers' bodies and the diffs
// for /metrics.
func (c *resultCache) stats() (entries int, bytes int64) { return c.count(false) }

// baseStats returns the memoized bases' gauges, frames included; with
// stats they account for the whole budget.
func (c *resultCache) baseStats() (entries int, bytes int64) { return c.count(true) }

func (c *resultCache) count(bases bool) (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.m {
		if (e.base != nil) == bases {
			entries++
			bytes += e.size
		}
	}
	return entries, bytes
}
