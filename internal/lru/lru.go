// Package lru implements a small, synchronized least-recently-used cache:
// the server's cache of mining results. (A mining run memoises its own
// queue's binding sets in internal/core; no cache of query results outlives
// a run.)
//
// The recency list is intrusive: entries live in a growable arena slice and
// link to each other by index, so a Put allocates no per-entry list nodes
// (the arena grows amortized and evicted slots are recycled through a free
// list).
package lru

import "sync"

// none marks the absence of a link or free slot.
const none = int32(-1)

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// Cache is a fixed-capacity LRU map. The zero value is not usable; create
// caches with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	arena    []entry[K, V]
	items    map[K]int32 // created lazily on the first Put
	head     int32       // most recently used
	tail     int32       // least recently used
	free     int32       // head of the recycled-slot list (linked via next)

	hits, misses uint64
}

// New returns a cache holding at most capacity entries. A capacity <= 0
// yields a cache that stores nothing (all lookups miss).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, head: none, tail: none, free: none}
}

// unlink removes slot i from the recency list.
func (c *Cache[K, V]) unlink(i int32) {
	e := &c.arena[i]
	if e.prev != none {
		c.arena[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.arena[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront inserts slot i as the most recently used.
func (c *Cache[K, V]) pushFront(i int32) {
	e := &c.arena[i]
	e.prev = none
	e.next = c.head
	if c.head != none {
		c.arena[c.head].prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.items[key]; ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.hits++
		return c.arena[i].val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key with val, evicting the least recently used
// entry when over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.items[key]; ok {
		c.arena[i].val = val
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		return
	}
	if c.items == nil {
		c.items = make(map[K]int32)
	}
	var i int32
	switch {
	case len(c.items) >= c.capacity:
		// Recycle the least recently used slot in place.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.arena[i].key)
	case c.free != none:
		i = c.free
		c.free = c.arena[i].next
	default:
		c.arena = append(c.arena, entry[K, V]{})
		i = int32(len(c.arena) - 1)
	}
	c.arena[i].key = key
	c.arena[i].val = val
	c.items[key] = i
	c.pushFront(i)
}

// Len returns the current number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns cumulative hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
