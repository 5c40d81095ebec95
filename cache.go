package treesched

// lru is the Solver's bounded decomposition cache: a map plus an intrusive
// doubly-linked recency list. When a put overflows the capacity, only the
// least-recently used entry is evicted — the earlier design reset the whole
// map, so one burst of one-off networks would also evict the hot networks a
// scheduling service solves on forever. Not safe for concurrent use;
// callers hold the Solver's mutex.
type lru[V any] struct {
	capacity   int
	entries    map[string]*lruEntry[V]
	head, tail *lruEntry[V] // head = most recently used
	// hits/misses count get outcomes since construction, surfaced through
	// Solver.CacheStats so cache effectiveness (a miss decomposes a
	// network) is observable without a profiler.
	hits   uint64
	misses uint64
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{capacity: capacity, entries: make(map[string]*lruEntry[V])}
}

func (c *lru[V]) len() int { return len(c.entries) }

// get returns the cached value and refreshes its recency. It takes the key
// as bytes, which the lookup reads without copying.
func (c *lru[V]) get(key []byte) (V, bool) {
	e, ok := c.entries[string(key)]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

// counters snapshots the cache's size and hit/miss counts.
func (c *lru[V]) counters() CacheCounters {
	return CacheCounters{Len: len(c.entries), Hits: c.hits, Misses: c.misses}
}

// put inserts or refreshes a key, evicting the least-recently used entry
// when the cache is full.
func (c *lru[V]) put(key string, v V) {
	if e, ok := c.entries[key]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	if len(c.entries) >= c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.key)
	}
	e := &lruEntry[V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
}

func (c *lru[V]) moveToFront(e *lruEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lru[V]) pushFront(e *lruEntry[V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
