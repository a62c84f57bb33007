package api

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// cacheEntry is one cached response: the marshaled JSON body and the
// HTTP status it was served with (only 200s are cached today, but the
// entry carries the code so that policy lives in one place).
type cacheEntry struct {
	key  string
	code int
	body []byte
}

// lruCache is a sharded LRU over rendered responses. Keys embed the
// snapshot serial, so a store hot-swap naturally invalidates every
// stale entry: old-generation keys stop being asked for and age out.
// Sharding keeps the lock off the hot path's profile at 6-figure QPS.
type lruCache struct {
	shards [cacheShards]lruShard
	seed   maphash.Seed
}

const cacheShards = 16

type lruShard struct {
	mu  sync.Mutex
	max int
	ll  *list.List
	m   map[string]*list.Element
}

// newLRUCache creates a cache holding up to capacity entries total
// (capacity < 1 disables caching: Get always misses, Put drops). The
// first capacity%cacheShards shards hold one entry more than the rest,
// so the shards add up to capacity exactly; below cacheShards, the
// shards past capacity hold none.
func newLRUCache(capacity int) *lruCache {
	c := &lruCache{seed: maphash.MakeSeed()}
	per, extra := max(capacity, 0)/cacheShards, max(capacity, 0)%cacheShards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = lruShard{max: n, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c
}

func (c *lruCache) shard(key string) *lruShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

// Get returns the cached entry and promotes it to most-recently-used.
func (c *lruCache) Get(key string) (cacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return cacheEntry{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(cacheEntry), true
}

// Put inserts (or refreshes) an entry, evicting from the cold end.
func (c *lruCache) Put(key string, code int, body []byte) {
	s := c.shard(key)
	if s.max < 1 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value = cacheEntry{key: key, code: code, body: body}
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(cacheEntry{key: key, code: code, body: body})
	for s.ll.Len() > s.max {
		cold := s.ll.Back()
		s.ll.Remove(cold)
		delete(s.m, cold.Value.(cacheEntry).key)
	}
}

// Len returns the total number of cached entries.
func (c *lruCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].ll.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// flightGroup collapses concurrent identical cache misses: one caller
// renders the response while the rest wait and share the result (the
// stdlib-only equivalent of x/sync/singleflight, specialized to
// response entries).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	ent  cacheEntry
	// waiters counts the callers parked on done (guarded by
	// flightGroup.mu), so tests can wait for "N callers are parked"
	// instead of guessing with a sleep.
	waiters int
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// Do runs render for key exactly once among concurrent callers.
// shared reports whether this caller got a result computed by another
// goroutine. Cleanup is deferred so a panicking render still releases
// waiters (they see a 500 entry) and frees the key; the panic itself
// propagates to net/http's per-connection recovery.
func (g *flightGroup) Do(key string, render func() cacheEntry) (ent cacheEntry, shared bool) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		call.waiters++
		g.mu.Unlock()
		<-call.done
		return call.ent, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	defer func() {
		if call.ent.code == 0 { // render panicked before assigning
			call.ent = cacheEntry{code: 500, body: []byte("{\"error\":\"internal error\"}\n")}
		}
		close(call.done)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}()
	call.ent = render()
	return call.ent, false
}
