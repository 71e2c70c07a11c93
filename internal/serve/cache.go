package serve

import (
	"container/list"
	"context"
	"sync"
)

// Cache is the deterministic result cache: an LRU over canonical job keys
// with single-flight coalescing. The replay-determinism guarantee (equal
// canonical configs produce byte-identical outcomes, any worker count) is
// what makes caching sound — a hit returns exactly the bytes a fresh run
// would have produced.
//
// Entries are inserted in-flight by the first requester (the leader);
// concurrent requests for the same key join the entry and wait for the
// leader's result instead of running the simulation again. In-flight
// entries are pinned: eviction only ever removes completed entries, so a
// burst of distinct requests cannot evict work that is still being paid
// for.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recently used
	idx map[string]*list.Element // key -> element whose Value is *Entry

	hits, misses, joins uint64
}

// Entry is one cache slot. Result and Err are valid only after Done closes.
type Entry struct {
	Key    string
	Done   chan struct{}
	Result []byte
	Err    error
}

// NewCache creates a cache bounded to capacity completed entries (<=0 means
// a small default).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 128
	}
	return &Cache{cap: capacity, ll: list.New(), idx: make(map[string]*list.Element)}
}

func (e *Entry) completed() bool {
	select {
	case <-e.Done:
		return true
	default:
		return false
	}
}

// Begin looks key up. The first requester gets (entry, true) and must call
// Complete exactly once; everyone else gets (entry, false) and
// waits on it. A completed entry counts as a hit, an in-flight one as a
// join, a fresh insertion as a miss.
func (c *Cache) Begin(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*Entry)
		if e.completed() {
			c.hits++
		} else {
			c.joins++
		}
		return e, false
	}
	c.misses++
	e := &Entry{Key: key, Done: make(chan struct{})}
	c.idx[key] = c.ll.PushFront(e)
	c.evictLocked()
	return e, true
}

// Complete publishes the leader's result (or failure). Failed runs are not
// cached: the entry is removed so the next identical request leads again,
// but waiters still observe the error through the entry they hold.
func (c *Cache) Complete(e *Entry, result []byte, err error) {
	c.mu.Lock()
	if err != nil {
		c.removeLocked(e.Key)
	}
	c.mu.Unlock()
	e.Result, e.Err = result, err
	close(e.Done)
}

// Put unconditionally stores a completed result, bypassing single-flight.
// Trace-enabled jobs use it: they always execute (the event log cannot come
// from the cache) yet still publish their bytes for later requests.
func (c *Cache) Put(key string, result []byte) {
	e := &Entry{Key: key, Done: make(chan struct{}), Result: result}
	close(e.Done)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key)
	c.idx[key] = c.ll.PushFront(e)
	c.evictLocked()
}

// Wait blocks until the entry completes or ctx is cancelled.
func (e *Entry) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-e.Done:
		return e.Result, e.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// removeLocked drops key from the index and list (in-flight or not).
func (c *Cache) removeLocked(key string) {
	if el, ok := c.idx[key]; ok {
		c.ll.Remove(el)
		delete(c.idx, key)
	}
}

// evictLocked trims least-recently-used *completed* entries down to cap.
func (c *Cache) evictLocked() {
	over := c.ll.Len() - c.cap
	if over <= 0 {
		return
	}
	for el := c.ll.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if e := el.Value.(*Entry); e.completed() {
			c.ll.Remove(el)
			delete(c.idx, e.Key)
			over--
		}
		el = prev
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Joins uint64
	Entries             int
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Joins: c.joins, Entries: c.ll.Len()}
}
