package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// cacheKey identifies one release: the dataset at a specific epoch crossed
// with the full parameter point. Identical submissions against an
// unchanged dataset are O(1); any Append bumps the epoch and naturally
// invalidates without eviction logic.
type cacheKey struct {
	dataset        string
	epoch          int
	algorithm      core.Algorithm
	k              int
	t              float64
	skipAssessment bool
	// warm separates warm-mode and cold releases: a warm run seeded from an
	// earlier epoch may yield a (validly anonymized) partition different from
	// the cold one, and a cold=true client asked for exactly the cold one.
	warm bool
	// sharded separates sharded-construction releases from serial ones, and
	// workers (set only on sharded keys — sharded output varies with the
	// engine worker budget, serial output does not) pins the budget the
	// release was built under: a sharded result must never be served for a
	// serial request, or for a sharded request under a different budget.
	sharded bool
	workers int
}

// resultCache is a small mutex-guarded LRU over formatted releases. A
// release is immutable once built, so an entry shares it by pointer with
// the job records that ran or hit it.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	rel *release
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *resultCache) get(k cacheKey) (*release, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rel, true
}

// evictDataset drops every cached release of the named dataset — the
// unregistration path, where a later dataset reusing the name must never
// be served the old dataset's releases.
func (c *resultCache) evictDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*cacheEntry).key; key.dataset == name {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		el = next
	}
}

func (c *resultCache) put(k cacheKey, rel *release) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).rel = rel
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, rel: rel})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
