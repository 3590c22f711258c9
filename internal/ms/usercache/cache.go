// Package usercache implements the sharded read-through cache the Model
// Server layers over the feature store: lock-striped CLOCK eviction,
// singleflight collapse of concurrent misses, negative caching for
// cold-start keys, and generation-guarded invalidation so an in-flight
// load can never re-insert fragments an upload has already superseded.
//
// The cache is generic over key and value so it carries the serving
// layer's own user fragments — the decoded profile, and the embedding as
// the store's immutable bytes, which the entry aliases rather than copies:
// a hit returns a value that is ready to score, with zero decoding, zero
// copying of store data and zero allocation.
package usercache

import "sync"

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits          int64 // entry present (positive or negative)
	Misses        int64 // entry absent; a load was (or will be) taken
	Collapsed     int64 // misses that waited on another caller's in-flight load
	Evictions     int64 // entries displaced by CLOCK to admit a new key
	Invalidations int64 // explicit Invalidate/Purge removals
	Negatives     int64 // hits served from a negative (known-absent) entry
	Size          int   // live entries right now
	Capacity      int   // configured entry capacity
}

// Cache is a sharded read-through cache. The zero value is not usable;
// build one with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   func(K) uint64
	cap    int
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	ok   bool // false: negative entry — the key is known absent
	ref  bool // CLOCK second-chance bit
	live bool
}

// flight is one in-flight load; later callers for the same key wait on
// wg instead of issuing their own load.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	ok  bool
	err error
}

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	idx   map[K]int // key -> slot
	slots []entry[K, V]
	size  int
	hand  int
	gen   uint64 // bumped by every invalidation; guards in-flight loads
	fl    map[K]*flight[V]

	hits, misses, collapsed, evictions, invalidations, negatives int64
}

// New builds a cache holding up to capacity entries across a power-of-two
// number of lock-striped shards (shards <= 0 picks a default scaled to
// the capacity). hash maps a key onto shards; it should mix well.
func New[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = 64
		for shards > 1 && capacity/shards < 64 {
			shards >>= 1
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], n), mask: uint64(n - 1), hash: hash, cap: per * n}
	for i := range c.shards {
		c.shards[i].idx = make(map[K]int, per)
		c.shards[i].slots = make([]entry[K, V], per)
		c.shards[i].fl = make(map[K]*flight[V])
	}
	return c
}

func (c *Cache[K, V]) shardOf(k K) *shard[K, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// GetOrLoad returns the cached value for k, loading it at most once per
// concurrent wave of callers: the first miss runs load, later callers
// block on the same flight and share its result (the singleflight
// collapse). load's ok result is cached too — false produces a negative
// entry, so repeated reads of an absent key stop costing loads. A load
// error is returned to every collapsed caller and nothing is cached.
func (c *Cache[K, V]) GetOrLoad(k K, load func() (V, bool, error)) (V, bool, error) {
	s := c.shardOf(k)
	s.mu.Lock()
	if i, present := s.idx[k]; present {
		e := &s.slots[i]
		e.ref = true
		s.hits++
		if !e.ok {
			s.negatives++
		}
		v, ok := e.val, e.ok
		s.mu.Unlock()
		return v, ok, nil
	}
	if f, inflight := s.fl[k]; inflight {
		s.collapsed++
		s.mu.Unlock()
		f.wg.Wait()
		return f.val, f.ok, f.err
	}
	s.misses++
	f := &flight[V]{}
	f.wg.Add(1)
	s.fl[k] = f
	gen := s.gen
	s.mu.Unlock()

	v, ok, err := load()

	s.mu.Lock()
	delete(s.fl, k)
	// Only insert if no invalidation hit this shard while the load was in
	// flight: the load may have read the store before the write that
	// triggered the invalidation landed.
	if err == nil && s.gen == gen {
		s.insert(k, v, ok)
	}
	s.mu.Unlock()
	f.val, f.ok, f.err = v, ok, err
	f.wg.Done()
	return v, ok, err
}

// Peek returns the cached value without loading: present reports whether
// an entry (positive or negative) exists, ok whether it is positive.
// Misses are counted; batch loaders that intend to fill the misses use
// PeekGen instead, which also captures the guard generation.
func (c *Cache[K, V]) Peek(k K) (v V, ok, present bool) {
	v, ok, present, _ = c.PeekGen(k)
	return v, ok, present
}

// PeekGen is Peek plus the shard generation observed in the same lock
// round. It is the batch-load protocol's first step: peek every key,
// read the backing store for the misses, then Add each loaded value with
// the generation captured here — one locked operation per key instead of
// separate Peek and Gen rounds.
func (c *Cache[K, V]) PeekGen(k K) (v V, ok, present bool, gen uint64) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, p := s.idx[k]; p {
		e := &s.slots[i]
		e.ref = true
		s.hits++
		if !e.ok {
			s.negatives++
		}
		return e.val, e.ok, true, s.gen
	}
	s.misses++
	return v, false, false, s.gen
}

// Add inserts a loaded value (ok=false for a negative entry) if the
// shard's generation still equals gen — the generation PeekGen returned
// before the caller read the backing store, so an invalidation that
// landed in between drops the insert instead of caching stale data.
// Used by batch loaders that bypass GetOrLoad's per-key singleflight.
func (c *Cache[K, V]) Add(k K, gen uint64, v V, ok bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return
	}
	s.insert(k, v, ok)
}

// insert stores (k, v, ok), evicting by CLOCK when the shard is full.
// Caller holds the shard lock.
func (s *shard[K, V]) insert(k K, v V, ok bool) {
	if i, present := s.idx[k]; present {
		e := &s.slots[i]
		e.val, e.ok, e.ref = v, ok, true
		return
	}
	var slot int
	if s.size < len(s.slots) {
		for s.slots[s.hand].live {
			s.hand = (s.hand + 1) % len(s.slots)
		}
		slot = s.hand
		s.size++
	} else {
		for {
			e := &s.slots[s.hand]
			if e.ref {
				e.ref = false
				s.hand = (s.hand + 1) % len(s.slots)
				continue
			}
			slot = s.hand
			delete(s.idx, e.key)
			s.evictions++
			break
		}
	}
	s.hand = (s.hand + 1) % len(s.slots)
	s.slots[slot] = entry[K, V]{key: k, val: v, ok: ok, ref: true, live: true}
	s.idx[k] = slot
}

// Invalidate removes k's entry (if any) and bumps the shard generation so
// any load in flight for this shard caches nothing.
func (c *Cache[K, V]) Invalidate(k K) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.invalidations++
	if i, present := s.idx[k]; present {
		var zero entry[K, V]
		s.slots[i] = zero
		delete(s.idx, k)
		s.size--
	}
}

// InvalidateNegative removes k's entry only if it is a negative
// (known-absent) one. Positive entries stay: callers use this for events
// that cannot stale stored data but do signal a cold-start key may be
// about to appear — e.g. live traffic naming a user the store has never
// seen — so the absence marker stops pinning the key as unknown.
func (c *Cache[K, V]) InvalidateNegative(k K) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, present := s.idx[k]; present && !s.slots[i].ok {
		s.gen++
		s.invalidations++
		var zero entry[K, V]
		s.slots[i] = zero
		delete(s.idx, k)
		s.size--
	}
}

// NegativeKeys collects the keys of every live negative (known-absent)
// entry. The negative set is the one cache fragment worth persisting
// across a restart: positive entries reload from the store on demand, but
// each lost negative entry costs a cold-start store miss to relearn. Used
// by the event log's snapshot writer.
func (c *Cache[K, V]) NegativeKeys() []K {
	var keys []K
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j := range s.slots {
			e := &s.slots[j]
			if e.live && !e.ok {
				keys = append(keys, e.key)
			}
		}
		s.mu.Unlock()
	}
	return keys
}

// InsertNegative seeds a negative entry for k under the shard's current
// generation — the snapshot-restore counterpart of NegativeKeys, called
// before the cache is shared, so there is no racing load to guard
// against.
func (c *Cache[K, V]) InsertNegative(k K) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero V
	s.insert(k, zero, false)
}

// Purge drops every entry and bumps every shard generation; use on events
// that may supersede arbitrarily many keys at once (model hot-swap after
// an upload wave).
func (c *Cache[K, V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.gen++
		s.invalidations++
		clear(s.idx)
		clear(s.slots)
		s.size = 0
		s.hand = 0
		s.mu.Unlock()
	}
}

// Len returns the live entry count.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.size
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates every shard's counters.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	st.Capacity = c.cap
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Collapsed += s.collapsed
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Negatives += s.negatives
		st.Size += s.size
		s.mu.Unlock()
	}
	return st
}
