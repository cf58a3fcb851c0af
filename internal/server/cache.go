package server

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// resultCache is a byte-budgeted LRU over fully rendered query
// responses. Keys are (summary name, summary version, canonical query
// options): the version component makes entries for a re-ingested or
// merged summary unreachable the instant the catalog bumps it, and
// invalidate removes them eagerly so a hot merge cannot strand a
// budget's worth of dead bytes behind live traffic.
//
// Values are the exact response bodies served to clients, so a cache
// hit is byte-identical to the miss that populated it — the
// served-vs-CLI differential relies on this.
//
// The same budget and LRU also hold the query memo: the base rule sets
// (core.QueryBase) of the summary versions recent misses ran on, under
// keys of their own (see baseCacheKey), weighed by baseBytes.
type resultCache struct {
	budget int64 // <= 0 disables caching entirely

	mu    sync.Mutex
	m     map[string]*cacheEntry
	bytes int64
	clock uint64
}

// cacheEntry holds either a rendered body or a memoized base.
type cacheEntry struct {
	key     string
	body    []byte
	base    *core.Result
	size    int64
	lastUse uint64
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

// get returns the cached body for key, updating recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	e := c.lookup(key)
	if e == nil {
		return nil, false
	}
	return e.body, true
}

// getBase returns the memoized base under key, updating recency.
func (c *resultCache) getBase(key string) (*core.Result, bool) {
	e := c.lookup(key)
	if e == nil {
		return nil, false
	}
	return e.base, true
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
	c.clock++
	e.lastUse = c.clock
	return e
}

// put stores a body, evicting least-recently-used entries to fit the
// budget. Bodies larger than the whole budget are not cached.
func (c *resultCache) put(key string, body []byte) {
	c.store(&cacheEntry{key: key, body: body, size: int64(len(body))})
}

// putBase memoizes a base rule set. The base must never be modified
// afterwards: every later miss on its version reads it concurrently.
func (c *resultCache) putBase(key string, base *core.Result) {
	c.store(&cacheEntry{key: key, base: base, size: baseBytes(base)})
}

func (c *resultCache) store(e *cacheEntry) {
	if c.budget <= 0 || e.size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[e.key]; ok {
		c.bytes -= old.size
	}
	c.clock++
	e.lastUse = c.clock
	c.m[e.key] = e
	c.bytes += e.size
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

// stats returns the rendered bodies' gauges for /metrics.
func (c *resultCache) stats() (entries int, bytes int64) { return c.count(false) }

// baseStats returns the memoized bases' gauges; with stats they account
// for the whole budget.
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
