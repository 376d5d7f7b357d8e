// Package cache implements a PCR-aware record cache. The paper observes
// that PCRs "can reduce cache pressure since a subset of the data is used
// for training" (§5): a record cached at scan group g occupies only the
// prefix bytes of group g, and — because every quality level is a prefix of
// the same byte stream — a later request for a higher group can be served
// by fetching only the missing delta bytes and appending them to the cached
// prefix. Conventional record formats can do neither: their cache entries
// are all-or-nothing.
//
// The cache is an LRU over record prefixes with byte-budget eviction.
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Fetcher reads a byte range of a record from backing storage. It is the
// integration point for both real files (os.File.ReadAt) and the iosim
// virtual-clock devices.
type Fetcher func(record int, offset, length int64) ([]byte, error)

// Stats counts cache activity.
type Stats struct {
	// Hits are requests fully served from cache.
	Hits int64 `json:"hits"`
	// UpgradeHits are requests served by a delta read: the cached prefix
	// plus only the missing bytes.
	UpgradeHits int64 `json:"upgrade_hits"`
	// Misses are requests with no usable cached prefix.
	Misses int64 `json:"misses"`
	// BytesFetched counts bytes read from backing storage.
	BytesFetched int64 `json:"bytes_fetched"`
	// BytesServed counts bytes returned to callers.
	BytesServed int64 `json:"bytes_served"`
	// Evictions counts evicted entries.
	Evictions int64 `json:"evictions"`
}

type entry struct {
	record int
	prefix []byte
	elem   *list.Element
}

// Cache is a byte-budgeted LRU of PCR record prefixes. The global mutex
// guards only in-memory state; backing-store fetches run outside it under a
// per-record lock, so concurrent Gets for different records overlap their
// I/O while duplicate Gets for the same record coalesce into one fetch.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[int]*entry
	lru      *list.List // front = most recent; values are record ids
	fetch    Fetcher
	stats    Stats
	// fetching serializes backing fetches per record. Entries are never
	// removed; the map is bounded by the record count of the dataset.
	fetching map[int]*sync.Mutex
}

// New builds a cache with the given byte capacity over the fetcher.
func New(capacity int64, fetch Fetcher) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	if fetch == nil {
		return nil, fmt.Errorf("cache: nil fetcher")
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[int]*entry),
		lru:      list.New(),
		fetch:    fetch,
		fetching: make(map[int]*sync.Mutex),
	}, nil
}

// recordLock returns the per-record fetch mutex, creating it on first use.
func (c *Cache) recordLock(record int) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.fetching[record]
	if !ok {
		m = &sync.Mutex{}
		c.fetching[record] = m
	}
	return m
}

// serveLocked accounts a request served from the entry's prefix. Caller
// holds c.mu.
func (c *Cache) serveLocked(e *entry, prefixLen int64) []byte {
	c.lru.MoveToFront(e.elem)
	c.stats.BytesServed += prefixLen
	return e.prefix[:prefixLen:prefixLen]
}

// Get returns the first prefixLen bytes of the record, reading from the
// backing store only the bytes the cache does not already hold. The
// returned slice must not be modified.
func (c *Cache) Get(record int, prefixLen int64) ([]byte, error) {
	if prefixLen < 0 {
		return nil, fmt.Errorf("cache: negative prefix length")
	}

	// Fast path: a full hit costs only the global lock.
	c.mu.Lock()
	if e, ok := c.entries[record]; ok && int64(len(e.prefix)) >= prefixLen {
		c.stats.Hits++
		p := c.serveLocked(e, prefixLen)
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	// Slow path: a backing fetch is needed. Take the record's fetch lock so
	// concurrent requests for the same record don't fetch twice, then
	// re-check — a waiter may find the prefix already filled.
	rl := c.recordLock(record)
	rl.Lock()
	defer rl.Unlock()

	c.mu.Lock()
	var have int64
	if e, ok := c.entries[record]; ok {
		if int64(len(e.prefix)) >= prefixLen {
			c.stats.Hits++
			p := c.serveLocked(e, prefixLen)
			c.mu.Unlock()
			return p, nil
		}
		have = int64(len(e.prefix))
	}
	wasUpgrade := have > 0
	c.mu.Unlock()

	// Fetch the missing suffix without the global lock: only requests for
	// this record wait, others proceed.
	delta, err := c.fetch(record, have, prefixLen-have)
	if err != nil {
		return nil, err
	}
	if int64(len(delta)) != prefixLen-have {
		return nil, fmt.Errorf("cache: fetcher returned %d bytes, want %d", len(delta), prefixLen-have)
	}
	fetched := int64(len(delta))

	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[record]
	if !ok && have > 0 {
		// The base prefix was evicted (or invalidated) while we fetched the
		// delta. Growth is serialized by the record lock we hold, so the
		// entry cannot have changed any other way; re-fetch the base and
		// assemble the full prefix.
		c.mu.Unlock()
		base, err := c.fetch(record, 0, have)
		c.mu.Lock()
		if err != nil {
			return nil, err
		}
		if int64(len(base)) != have {
			return nil, fmt.Errorf("cache: fetcher returned %d bytes, want %d", len(base), have)
		}
		fetched += have
		delta = append(base, delta...)
		have = 0
		// The whole prefix came from backing store after all — count a
		// miss, not a delta-only upgrade.
		wasUpgrade = false
	}
	if wasUpgrade {
		c.stats.UpgradeHits++
	} else {
		c.stats.Misses++
	}
	c.stats.BytesFetched += fetched
	if e == nil {
		e = &entry{record: record, prefix: delta}
		e.elem = c.lru.PushFront(record)
		c.entries[record] = e
		c.used += int64(len(delta))
	} else {
		e.prefix = append(e.prefix, delta...)
		c.used += int64(len(delta))
	}
	// Serve (which moves the entry to the LRU front) before evicting:
	// eviction stops at the protected record, so the just-grown entry must
	// not be sitting at the back or nothing else gets evicted and the
	// byte budget is never enforced.
	p := c.serveLocked(e, prefixLen)
	c.evictLocked(record)
	return p, nil
}

// evictLocked drops least-recently-used entries until the budget holds,
// never evicting the protected record (the one just served).
func (c *Cache) evictLocked(protect int) {
	for c.used > c.capacity && c.lru.Len() > 1 {
		back := c.lru.Back()
		rec := back.Value.(int)
		if rec == protect {
			// The protected entry is LRU-last only when it is the sole
			// entry bigger than the budget; stop rather than evict it.
			return
		}
		e := c.entries[rec]
		c.used -= int64(len(e.prefix))
		delete(c.entries, rec)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
}

// Contains reports whether the cache holds at least prefixLen bytes of the
// record (without touching recency).
func (c *Cache) Contains(record int, prefixLen int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[record]
	return ok && int64(len(e.prefix)) >= prefixLen
}

// UsedBytes returns the bytes currently cached.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Invalidate drops one record's entry.
func (c *Cache) Invalidate(record int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[record]; ok {
		c.used -= int64(len(e.prefix))
		delete(c.entries, record)
		c.lru.Remove(e.elem)
	}
}
