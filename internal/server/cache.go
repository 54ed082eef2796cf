package server

import (
	"container/list"
	"strings"
	"sync"
)

// resultCache is a small LRU over finished mining results, keyed by
// (database name, database generation, canonicalized mining options). A
// database re-upload bumps the generation, so stale entries are never
// served; they simply age out of the LRU. Only complete (non-truncated)
// results are cached, which makes entries worker-count invariant: the
// sequential and parallel miners produce identical complete results.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry
	// flights holds the cold mines in progress by key: an identical request
	// that misses while one runs waits for its result instead of mining
	// the same key again.
	flights map[string]*flight

	hits, misses uint64
}

// flight is one cold mine that identical concurrent requests share.
type flight struct {
	done chan struct{} // closed by complete
	out  *mineOutcome  // the complete result; nil sends waiters to mine for themselves
}

type cacheEntry struct {
	key string
	res *mineOutcome
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil // caching disabled
	}
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
		flights: make(map[string]*flight),
	}
}

// lookup returns the cached outcome for key on a hit. On a miss it returns
// the flight to wait for when an identical mine is already running, or
// registers a new one with lead set: the caller then mines and must call
// complete exactly once. A disabled cache neither caches nor coalesces.
func (c *resultCache) lookup(key string) (out *mineOutcome, f *flight, lead bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res, nil, false
	}
	c.misses++
	if f := c.flights[key]; f != nil {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// complete ends one request's mining run. Only a complete result is
// cached: truncated runs (budget hit, stream aborted, ctx cancelled) are
// request-specific and scheduling-dependent, so they are never replayed to
// other clients. When the caller leads flight f, its waiters get the cached
// result, or nil (out nil or truncated), which sends them to mine for
// themselves.
func (c *resultCache) complete(key string, f *flight, out *mineOutcome) {
	if c == nil {
		return
	}
	if out != nil && out.result.Truncated {
		out = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if out != nil {
		c.putLocked(key, out)
	}
	if f != nil {
		f.out = out
		delete(c.flights, key)
		close(f.done)
	}
}

func (c *resultCache) putLocked(key string, res *mineOutcome) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// purgePrefix drops every entry whose key starts with prefix. Used when a
// database is deleted: its per-name generation counter restarts at 1 on
// re-upload, so old keys could otherwise collide with the new contents.
func (c *resultCache) purgePrefix(prefix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.order.Remove(el)
			delete(c.entries, key)
		}
	}
}

// counters returns (hits, misses, size) for /healthz introspection.
func (c *resultCache) counters() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
