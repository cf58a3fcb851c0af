package server

import (
	"sync"

	"repro/internal/core"
)

// flightGroup deduplicates concurrent identical work: the first caller
// of Do for a key executes fn, every caller that arrives while that
// execution is in flight blocks on the same call and shares its result.
// It is a minimal analogue of x/sync/singleflight (not vendored here;
// the repo builds offline) specialized to the query path's
// (flightValue, error) results. Query, diff and base flights share one
// group; their keys live in the result cache's disjoint namespaces.
// Request timeouts are enforced a layer above (the handler races Do
// against the request context), so an abandoned flight keeps running
// and its result still lands in the cache for future requests.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightValue is what one execution hands every caller of its flight:
// the rendered response (a query answer's frame and body, or a diff's
// document) and the catalog versions it was rendered from, so a
// waiter's response names the same versions as the executor's — or,
// for a base flight (Server.queryBase), the base rule set it built and
// its frame.
type flightValue struct {
	body       []byte
	frame      *core.Frame
	version    uint64 // the queried summary's version; a diff's old one
	newVersion uint64 // a diff's new summary's version
	base       *core.Result
}

// flightCall is one in-flight execution. done is closed exactly once,
// after val/err are set; waiters read them only after done.
type flightCall struct {
	done    chan struct{}
	waiters int
	val     flightValue
	err     error
}

// pending reports how many callers are blocked on the in-flight
// execution for key (0 when nothing is in flight). Tests use it to
// hold a flight open until every concurrent request has joined, making
// the "N requests, one execution" assertion deterministic.
func (g *flightGroup) pending(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

// Do returns the result of fn for key, executing it at most once across
// concurrent callers. shared reports whether this caller joined an
// execution started by another (false for the executor itself; callers
// that arrive after the flight lands start a fresh one — result reuse
// across completed flights is the result cache's job, not this type's).
func (g *flightGroup) Do(key string, fn func() (flightValue, error)) (val flightValue, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, inFlight := g.m[key]; inFlight {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
