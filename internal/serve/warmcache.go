package serve

import (
	"container/list"
	"sync"

	"hunipu"
)

// warmCache is the per-key dual-potential store for streaming clients:
// a client that tags its requests with a stable Request.Key gets each
// solve warm-started from the previous solve's duals (tracking
// workloads re-solve near-identical matrices every frame). A bounded
// LRU — streams that go quiet age out. Entries remember the matrix
// shape they came from; a key whose stream changes shape misses until
// the next solve repopulates it, since hunipu.WithWarmStart requires
// dimension-matched priors.
type warmCache struct {
	mu  sync.Mutex
	ll  *list.List // front = most recent
	idx map[string]*list.Element
}

type warmEntry struct {
	key        string
	rows, cols int
	duals      *hunipu.Duals
}

// warmCacheKeys is how many stream keys the server's warm cache holds.
const warmCacheKeys = 128

func newWarmCache() *warmCache {
	return &warmCache{ll: list.New(), idx: make(map[string]*list.Element)}
}

// get returns the cached duals for key when they match the rows×cols
// shape, marking the key most-recently-used.
func (c *warmCache) get(key string, rows, cols int) *hunipu.Duals {
	if key == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*warmEntry)
	if e.rows != rows || e.cols != cols {
		return nil
	}
	return e.duals
}

// put stores the duals of a solved rows×cols request under key,
// evicting the least-recently-used key when full.
func (c *warmCache) put(key string, rows, cols int, d *hunipu.Duals) {
	if key == "" || d == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		el.Value = &warmEntry{key: key, rows: rows, cols: cols, duals: d}
		return
	}
	c.idx[key] = c.ll.PushFront(&warmEntry{key: key, rows: rows, cols: cols, duals: d})
	if c.ll.Len() > warmCacheKeys {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.idx, last.Value.(*warmEntry).key)
	}
}

// len reports the number of cached keys.
func (c *warmCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
