// Package stream implements the online half of TitAnt's feature layer: a
// sharded, lock-striped streaming aggregate store that maintains the same
// per-user velocity/diversity counters, pairwise transfer priors, and
// per-city fraud statistics as feature.BuildAggregates — but incrementally,
// transaction by transaction, over a sliding window of time-bucketed ring
// buffers.
//
// The paper's serving path (Figure 5) reads aggregates that the nightly
// MaxCompute jobs materialised into Ali-HBase, so the statistics the Model
// Server scores against are up to a day stale ("T+1"). This store closes
// that gap for the aggregate fragment: Ingest is O(1) (two shard-striped
// ring-bucket updates plus one city-table update), reads are O(buckets),
// and a resident user costs one int32 per ring slot, a 32-byte sum record
// and an 8-byte record of list heads per bucket it has written, and one
// list cell per distinct counterparty in each, and per active day only in
// a bucket that saw a day other than the one it starts on. All of it
// lives in per-stripe chunked slabs addressed by int32 index, with no
// pointers in them, so the garbage collector never scans the window.
//
// Window semantics: time is bucketed into fixed-width buckets of
// bucketSeconds; the window covers the most recent Buckets buckets ending
// at the newest ingested transaction's bucket (the store's clock advances
// only by ingestion, so an idle store does not silently expire its
// contents). Users whose whole ring has expired are evicted
// opportunistically — one probe per stripe an ingest locks — so memory
// tracks the active user set; and a clock jump further than one full
// window ahead needs a second corroborating transaction before it is
// believed, so a single corrupt far-future timestamp cannot slide the
// window past all real traffic (see advanceClock). A Store configured
// with Buckets×bucketSeconds equal to the
// paper's 90-day reference window and fed the same transactions produces
// exactly the statistics BuildAggregates computes from that window — the
// stream_test.go oracle test enforces this equivalence, including after
// old buckets expire.
//
// The Store satisfies feature.Source, so feature.Extractor and the Model
// Server consume it interchangeably with the batch Aggregates. Today's
// consumers split along the paper's feature design: the Model Server's
// hot path reads the city statistics live (the only aggregate terms in
// the 52 basic features — per Section 3.2, relational velocity signals
// travel via node embeddings, not hand-built counters), while the
// per-user Stats/PairPrior surface serves extraction over a live window
// (feature.NewExtractor over the Store), the T+1 oracle equivalence
// tests, and operational introspection; a future feature-layout revision
// can put those terms on the wire without touching this package.
package stream

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"titant/internal/feature"
	"titant/internal/rng"
	"titant/internal/txn"
)

// Defaults mirror the paper's reference-window geometry: 90 day-wide
// buckets (Section 3.2's aggregate window) over 64 lock stripes.
const (
	DefaultShards        = 64
	DefaultBuckets       = txn.NetworkDays
	DefaultBucketSeconds = int64(24 * 60 * 60)
	DefaultCities        = 128
)

// config collects the option-settable geometry.
type config struct {
	shards     int
	buckets    int
	bucketSecs int64
	cities     int
}

// Option configures a Store built by New, mirroring the functional-option
// style of ms.New.
type Option func(*config)

// WithShards sets the lock-stripe count (rounded up to a power of two;
// values below 1 keep the default). More shards reduce write contention
// under concurrent ingest.
func WithShards(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// WithWindow sets the sliding-window geometry: buckets ring slots of
// bucketSeconds each. Non-positive values keep the defaults. The window
// span is buckets×bucketSeconds; finer buckets slide more smoothly at the
// cost of proportionally more read work.
func WithWindow(buckets int, bucketSeconds int64) Option {
	return func(c *config) {
		if buckets >= 1 {
			c.buckets = buckets
		}
		if bucketSeconds >= 1 {
			c.bucketSecs = bucketSeconds
		}
	}
}

// WithCities bounds the city table; city codes >= n are clamped to the
// last slot, matching feature.BuildAggregates.
func WithCities(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.cities = n
		}
	}
}

// Store is the streaming aggregate store. All methods are safe for
// concurrent use: per-user state is striped across shards, each guarded
// by its own RWMutex, and the city table has a dedicated lock with O(1)
// rolling-sum reads.
type Store struct {
	mask       uint64
	buckets    int
	bucketSecs int64
	shards     []shard
	city       cityStats

	// maxSeq is the newest ingested bucket sequence — the store's clock.
	// The live window is (maxSeq-buckets, maxSeq].
	maxSeq   atomic.Int64
	ingested atomic.Int64
	dropped  atomic.Int64

	// Far-future clock jumps need corroboration (see advanceClock);
	// this is the rare-path state, so a mutex is fine.
	jumpMu      sync.Mutex
	pendingJump int64
	pendingKey  uint64 // identity of the txn that proposed the jump
}

// noSeq marks an empty clock: far enough below any real sequence that
// maxSeq-buckets cannot underflow.
const noSeq = math.MinInt64 / 2

// New builds a streaming store with the given geometry.
func New(opts ...Option) *Store {
	cfg := config{
		shards:     DefaultShards,
		buckets:    DefaultBuckets,
		bucketSecs: DefaultBucketSeconds,
		cities:     DefaultCities,
	}
	for _, o := range opts {
		o(&cfg)
	}
	nshards := 1
	for nshards < cfg.shards {
		nshards <<= 1
	}
	s := &Store{
		mask:       uint64(nshards - 1),
		buckets:    cfg.buckets,
		bucketSecs: cfg.bucketSecs,
		shards:     make([]shard, nshards),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.users = make(map[txn.UserID]int32)
		sh.over = make(map[int32][2]int32)
		sh.outs.free, sh.ins.free, sh.days.free = -1, -1, -1
	}
	s.city.init(cfg.cities, cfg.buckets)
	s.maxSeq.Store(noSeq)
	s.pendingJump = noSeq
	return s
}

// Geometry accessors, for daemon flags and the stats endpoint.

// Shards returns the lock-stripe count.
func (s *Store) Shards() int { return len(s.shards) }

// Buckets returns the ring length of every window.
func (s *Store) Buckets() int { return s.buckets }

// Ingested returns the number of transactions accepted into the window.
func (s *Store) Ingested() int64 { return s.ingested.Load() }

// Dropped returns the number of transactions rejected at ingest time: older
// than the whole window, or with a timestamp the window cannot hold.
func (s *Store) Dropped() int64 { return s.dropped.Load() }

// shard is one lock stripe and the slabs of the users it owns. Every slab
// holds pointer-free records addressed by int32 index: a resident user is
// a row (its id, the newest sequence it wrote, and a ring of Buckets slot
// entries naming its bucket records), a bucket record is a sum record in
// bkts and, at the same index, the heads of its peer lists in lsts, and a
// list is cells in an arena. Rows, records and cells are recycled through
// free lists when a ring slot rotates or a user is evicted, so a
// long-lived store's slabs track its active set. A stripe spans several
// cache lines, so adjacent stripes' mutexes never share one. A record's
// day set on a side is its home day if the side has a count, else empty,
// unless the record saw another day or was restored with other day sets:
// then over holds both its sets exactly until it is recycled.
type shard struct {
	mu    sync.RWMutex
	users map[txn.UserID]int32 // resident user -> row

	ids      []txn.UserID // row -> user
	newest   []int64      // row -> newest sequence written; freeRow when free
	rings    []int32      // row*Buckets + seq%Buckets -> bucket record, -1 empty
	freeRows []int32
	hand     int32 // the row the next eviction probe looks at

	bkts     slab[bucket, [recordChunk]bucket]
	lsts     slab[lists, [recordChunk]lists] // record -> its peer list heads, beside bkts
	freeBkts []int32

	outs cells[txn.UserID, uint32]   // receiver -> transfer count
	ins  cells[txn.UserID, struct{}] // distinct senders
	over map[int32][2]int32          // record -> out and in day lists in days
	days cells[int32, struct{}]
}

// freeRow is a free row's newest sequence: later than any window, so the
// eviction probe passes over it.
const freeRow = math.MaxInt64

// bucket sums one user's activity inside one time bucket: seq is the
// bucket sequence the record holds. A record whose seq has fallen out of
// the window is skipped by readers and recycled by the next write to its
// ring slot. Two records share a cache line, and Velocity reads nothing
// else. Sums are out, in; counts saturate at math.MaxUint32, not wrap.
type bucket struct {
	seq    int64
	amount [2]float64
	count  [2]uint32
}

// lists heads the bucket record's peer lists in outs and ins (-1: empty).
type lists struct{ outPeers, inPeers int32 }

// inc adds one to a count, saturating: a wrapped count would show a hot
// sender as quiet.
func inc(n *uint32) {
	if *n < math.MaxUint32 {
		*n++
	}
}

func (s *Store) shardIndex(u txn.UserID) uint64 {
	return rng.Mix64(uint64(uint32(u))) & s.mask
}

func (s *Store) shardOf(u txn.UserID) *shard {
	return &s.shards[s.shardIndex(u)]
}

// seqOf converts a transaction timestamp to its bucket sequence.
func (s *Store) seqOf(day txn.Day, sec int32) int64 {
	return (int64(day)*86400 + int64(sec)) / s.bucketSecs
}

// home is the day sequence seq >= 0 starts on, seq·bucketSecs/86400 in
// 128 bits, or MinInt32 past int32. Any value would keep the day sets
// exact; it only decides which records go to the overflow.
func (s *Store) home(seq int64) int32 {
	hi, lo := bits.Mul64(uint64(seq), uint64(s.bucketSecs))
	if d := lo / 86400; hi == 0 && d <= math.MaxInt32 {
		return int32(d)
	}
	return math.MinInt32
}

// ring returns row's n ring slots.
func (sh *shard) ring(row int32, n int) []int32 {
	return sh.rings[int(row)*n : int(row+1)*n]
}

// slot returns u's bucket record for seq, making u resident and recycling
// the ring slot if it holds an older sequence. Callers hold the write
// lock.
func (sh *shard) slot(u txn.UserID, seq int64, n int) int32 {
	row, ok := sh.users[u]
	if !ok {
		row = sh.admit(u, n)
	}
	sh.newest[row] = max(sh.newest[row], seq)
	r := &sh.rings[int(row)*n+int(seq%int64(n))]
	if *r < 0 {
		if k := len(sh.freeBkts); k > 0 {
			*r, sh.freeBkts = sh.freeBkts[k-1], sh.freeBkts[:k-1]
		} else {
			*r = sh.bkts.grow()
			sh.lsts.grow()
		}
	} else if sh.bkts.at(*r).seq == seq {
		return *r
	} else {
		sh.dropLists(*r)
	}
	*sh.bkts.at(*r) = bucket{seq: seq}
	*sh.lsts.at(*r) = lists{-1, -1}
	return *r
}

// admit gives u a row with an empty ring.
func (sh *shard) admit(u txn.UserID, n int) int32 {
	var row int32
	if k := len(sh.freeRows); k > 0 {
		row, sh.freeRows = sh.freeRows[k-1], sh.freeRows[:k-1]
		sh.ids[row] = u
	} else {
		row = int32(len(sh.ids))
		sh.ids = append(sh.ids, u)
		sh.newest = append(sh.newest, 0)
		for range n {
			sh.rings = append(sh.rings, -1)
		}
	}
	sh.newest[row] = noSeq
	sh.users[u] = row
	return row
}

func (sh *shard) dropLists(r int32) {
	l := sh.lsts.at(r)
	sh.outs.drop(l.outPeers)
	sh.ins.drop(l.inPeers)
	if d, ok := sh.over[r]; ok {
		sh.days.drop(d[0])
		sh.days.drop(d[1])
		delete(sh.over, r)
	}
}

// apply applies side 0 (the sender's half) or 1 (the receiver's) of t to
// that user's bucket for seq: the sums, the active day, and the
// receiver's transfer count or the sender. Callers hold sh's write lock.
func (sh *shard) apply(t *txn.Transaction, side int, seq int64, n int, home int32) {
	r := sh.slot([2]txn.UserID{t.From, t.To}[side], seq, n)
	b, l := sh.bkts.at(r), sh.lsts.at(r)
	if d, ok := sh.over[r]; ok || int32(t.Day) != home {
		if !ok { // the first day off home: both sets go to the overflow
			d = [2]int32{-1, -1}
			for s, c := range b.count {
				if c > 0 {
					sh.days.add(&d[s], home)
				}
			}
		}
		sh.days.add(&d[side], int32(t.Day))
		sh.over[r] = d
	}
	inc(&b.count[side])
	b.amount[side] += float64(t.Amount)
	if side == 0 {
		c, _ := sh.outs.add(&l.outPeers, t.To)
		inc(&sh.outs.at(c).v)
	} else {
		sh.ins.add(&l.inPeers, t.From)
	}
}

// appendDays appends record r's out and in day sets to ds.
func (sh *shard) appendDays(ds *[2][]int32, r, home int32) {
	d, spilt := sh.over[r]
	for side, n := range sh.bkts.at(r).count {
		if spilt {
			ds[side] = sh.days.appendKeys(ds[side], d[side])
		} else if n > 0 {
			ds[side] = append(ds[side], home)
		}
	}
}

// List arenas. A list is a chain of cells, newest first, each a key and a
// value (a receiver's transfer count; nothing for a set). Most lists are
// a few cells long and a lookup walks them; one that grows past chainMax
// is given an open-addressing hash index over its cells, and its head
// then names the index (flag indexed) instead of a cell, so upserting
// into the bucket of a sender paying thousands of receivers stays O(1).
const (
	chainMax    = 8
	indexed     = 1 << 30 // head flag; cell indexes stay below it
	recordChunk = 128
	cellChunk   = 512
)

// slab is a stripe's array of records or cells, grown a chunk of type C
// at a time, so growing never copies what it holds. Records come in short
// chunks, so a stripe's last, part-filled one wastes little; cells in long
// ones, so the cells a list walk hops between lie on fewer pages.
type slab[T any, C [recordChunk]T | [cellChunk]T] struct {
	chunks []*C
	n      int32 // elements carved from chunks
}

// at returns element i. C's length is a constant in each instantiation,
// so the division and remainder compile to a shift and a mask, and c,
// a stack variable while C stays under 64 KiB, compiles to nothing.
func (s *slab[T, C]) at(i int32) *T {
	var c C
	k := uint32(len(c))
	return &(*s.chunks[uint32(i)/k])[uint32(i)%k]
}

// grow carves one more element and returns its index.
func (s *slab[T, C]) grow() int32 {
	var c C
	if s.n%int32(len(c)) == 0 {
		if s.n >= indexed {
			panic("stream: slab exhausted")
		}
		s.chunks = append(s.chunks, new(C))
	}
	s.n++
	return s.n - 1
}

type cell[K txn.UserID | int32, V any] struct {
	v    V // first: a zero-size V then adds no padding
	k    K
	next int32
}

// cells is one stripe's arena of list cells, reusing the cells of dropped
// lists. Those stay whole, so dropping one is O(1): free is the first
// cell of the last list dropped (-1: none), and the first cell of each
// dropped list keeps, in its key, the first cell of the one dropped
// before it.
type cells[K txn.UserID | int32, V any] struct {
	slab[cell[K, V], [cellChunk]cell[K, V]]
	free    int32
	idx     []index
	freeIdx []int32
}

// index is a long list's hash index: the list's head cell and length,
// and a power-of-two table of its cells keyed by hash (-1: empty slot),
// at most half full.
type index struct {
	head, n int32
	shift   uint8
	slots   []int32
}

func (c *cells[K, V]) alloc(k K, next int32) int32 {
	i := c.free
	if i >= 0 {
		if top := c.at(i); top.next >= 0 {
			c.at(top.next).k = top.k
			c.free = top.next
		} else {
			c.free = int32(top.k)
		}
	} else {
		i = c.grow()
	}
	*c.at(i) = cell[K, V]{k: k, next: next}
	return i
}

// first resolves a list head to the list's first cell (-1: empty).
func (c *cells[K, V]) first(h int32) int32 {
	if h >= indexed {
		return c.idx[h-indexed].head
	}
	return h
}

func (ix *index) home(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// find returns k's cell in the list headed h (-1: absent) and, for a
// list without an index, the list's length.
func (c *cells[K, V]) find(h int32, k K) (int32, int) {
	if h >= indexed {
		ix := &c.idx[h-indexed]
		for j := ix.home(int64(k)); ; j = (j + 1) & (len(ix.slots) - 1) {
			if s := ix.slots[j]; s < 0 || c.at(s).k == k {
				return s, int(ix.n)
			}
		}
	}
	n := 0
	for ; h >= 0; h = c.at(h).next {
		if c.at(h).k == k {
			return h, n
		}
		n++
	}
	return -1, n
}

// add returns k's cell in the list at *head, prepending a zero-valued one
// if k is absent; added reports which.
func (c *cells[K, V]) add(head *int32, k K) (cell int32, added bool) {
	h := *head
	i, n := c.find(h, k)
	if i >= 0 {
		return i, false
	}
	if h >= indexed {
		ix := &c.idx[h-indexed]
		ix.head = c.alloc(k, ix.head)
		if 2*(ix.n+1) > int32(len(ix.slots)) {
			c.rehash(ix, 2*len(ix.slots))
		} else {
			c.place(ix, ix.head)
		}
		return ix.head, true
	}
	i = c.alloc(k, h)
	*head = i
	if n == chainMax {
		id := int32(len(c.idx))
		if f := len(c.freeIdx); f > 0 {
			id, c.freeIdx = c.freeIdx[f-1], c.freeIdx[:f-1]
		} else {
			c.idx = append(c.idx, index{})
		}
		c.idx[id].head = i
		c.rehash(&c.idx[id], 4*chainMax)
		*head = indexed + id
	}
	return i, true
}

// rehash sizes ix's table to size slots and indexes every cell of its
// list, reusing the table a dropped list left behind when it is big
// enough.
func (c *cells[K, V]) rehash(ix *index, size int) {
	if cap(ix.slots) >= size {
		ix.slots = ix.slots[:size]
	} else {
		ix.slots = make([]int32, size)
	}
	for j := range ix.slots {
		ix.slots[j] = -1
	}
	ix.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	ix.n = 0
	for i := ix.head; i >= 0; i = c.at(i).next {
		c.place(ix, i)
	}
}

func (c *cells[K, V]) place(ix *index, i int32) {
	j := ix.home(int64(c.at(i).k))
	for ix.slots[j] >= 0 {
		j = (j + 1) & (len(ix.slots) - 1)
	}
	ix.slots[j] = i
	ix.n++
}

// drop returns the list headed h, and its index if it has one, to the
// free lists.
func (c *cells[K, V]) drop(h int32) {
	if h >= indexed {
		c.freeIdx = append(c.freeIdx, h-indexed)
		h = c.idx[h-indexed].head
	}
	if h >= 0 {
		c.at(h).k = K(c.free)
		c.free = h
	}
}

// appendKeys appends the keys of the list headed h to ks.
func (c *cells[K, V]) appendKeys(ks []K, h int32) []K {
	for i := c.first(h); i >= 0; i = c.at(i).next {
		ks = append(ks, c.at(i).k)
	}
	return ks
}

// distinct counts the distinct keys in ks, reordering it.
func distinct[K cmp.Ordered](ks []K) float64 {
	slices.Sort(ks)
	return float64(len(slices.Compact(ks)))
}

// advanceClock moves the window clock forward to seq. A jump further
// than one full window ahead of a non-empty clock needs corroboration:
// the first such transaction is rejected and remembered; a *different*
// far-future transaction within one window of the pending jump confirms
// the new epoch and advances the clock. This way a single corrupt or
// hostile timestamp (which would otherwise slide the window past all
// real traffic and permanently brick the store, since the clock is
// monotonic) is shed as a drop — the identity check means even an HTTP
// retry duplicating the corrupt request byte-for-byte cannot corroborate
// itself — while a genuine gap (a daemon idle longer than its window)
// recovers on the second distinct transaction of the resumed stream.
func (s *Store) advanceClock(seq int64, key uint64) bool {
	corroborated := false
	for {
		cur := s.maxSeq.Load()
		if seq <= cur {
			return true
		}
		if corroborated || cur == noSeq || seq-cur <= int64(s.buckets) {
			if s.maxSeq.CompareAndSwap(cur, seq) {
				return true
			}
			continue
		}
		s.jumpMu.Lock()
		pend := s.pendingJump
		if pend != noSeq && seq >= pend-int64(s.buckets) && seq <= pend+int64(s.buckets) &&
			key != s.pendingKey {
			// A second, distinct transaction agrees on the new epoch.
			s.pendingJump = noSeq
			s.jumpMu.Unlock()
			corroborated = true
			continue
		}
		s.pendingJump = seq
		s.pendingKey = key
		s.jumpMu.Unlock()
		return false
	}
}

// txnKey fingerprints a transaction's identity for jump corroboration.
func txnKey(t *txn.Transaction) uint64 {
	return rng.Mix64(uint64(t.ID)) ^ rng.Mix64(uint64(uint32(t.From))<<32|uint64(uint32(t.To))) ^ uint64(t.Sec)
}

// Ingest feeds one transaction into the live window: the sender's
// out-side, the receiver's in-side, and the city table. O(1) amortised:
// two striped list upserts plus constant ring-bucket arithmetic.
// Transactions older than the whole window (or further ahead of it than
// advanceClock tolerates) are counted in Dropped and otherwise ignored;
// accepted newer transactions advance the window, expiring buckets that
// fall off the far edge.
func (s *Store) Ingest(t *txn.Transaction) {
	seq := s.seqOf(t.Day, t.Sec)
	// The timeline starts at day 0: a negative sequence (negative wire
	// day/sec) is malformed input, and letting it through would index the
	// rings with a negative modulo. Days are kept, and snapshotted, as
	// int32, so one past that range is malformed too.
	if seq < 0 || t.Day != txn.Day(int32(t.Day)) || !s.advanceClock(seq, txnKey(t)) {
		s.dropped.Add(1)
		return
	}

	// Both halves happen under both shard locks, with a single in-window
	// decision: the window may slide between advanceClock and lock
	// acquisition, and deciding per-side could apply the sender's half of
	// a transaction but not the receiver's. Locks are ordered by shard
	// index so concurrent ingests cannot deadlock; per-user slots only
	// change under their shard lock, so the in-lock check is authoritative
	// and a stale write can never recycle a slot holding newer data.
	fi, ti := s.shardIndex(t.From), s.shardIndex(t.To)
	shFrom, shTo := &s.shards[fi], &s.shards[ti]
	first, second := shFrom, shTo
	if fi > ti {
		first, second = shTo, shFrom
	}
	first.mu.Lock()
	if second != first {
		second.mu.Lock()
	}
	if seq <= s.maxSeq.Load()-int64(s.buckets) {
		if second != first {
			second.mu.Unlock()
		}
		first.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	home := s.home(seq)
	shFrom.apply(t, 0, seq, s.buckets, home)
	shTo.apply(t, 1, seq, s.buckets, home)
	// Piggyback an eviction probe on each write lock already held — as
	// many as the users this ingest may have admitted — so memory tracks
	// the active user set, not the all-time one.
	low := s.windowLow()
	shFrom.evictOne(low, s.buckets)
	if second != first {
		shTo.evictOne(low, s.buckets)
	}

	if second != first {
		second.mu.Unlock()
	}
	first.mu.Unlock()

	s.city.add(seq, t.TransCity, t.Fraud)
	s.ingested.Add(1)
}

// evictOne probes the row under the stripe's clock hand and, if its
// newest bucket fell out of the window, frees the row, its records and
// their lists. One probe per ingest sweeps every row in turn, so a
// long-lived store sheds departed users at roughly its ingest rate.
// Callers hold the shard write lock.
func (sh *shard) evictOne(low int64, n int) {
	if len(sh.ids) == 0 {
		return
	}
	if int(sh.hand) >= len(sh.ids) {
		sh.hand = 0
	}
	row := sh.hand
	sh.hand++
	if sh.newest[row] >= low {
		return
	}
	ring := sh.ring(row, n)
	for i, r := range ring {
		if r >= 0 {
			sh.dropLists(r)
			sh.freeBkts = append(sh.freeBkts, r)
			ring[i] = -1
		}
	}
	delete(sh.users, sh.ids[row])
	sh.newest[row] = freeRow
	sh.freeRows = append(sh.freeRows, row)
}

// IngestBatch ingests a slice in order.
func (s *Store) IngestBatch(ts []txn.Transaction) {
	for i := range ts {
		s.Ingest(&ts[i])
	}
}

// windowLow returns the lowest in-window sequence (inclusive).
func (s *Store) windowLow() int64 {
	return s.maxSeq.Load() - int64(s.buckets) + 1
}

// Reads visit a user's ring in slot order (seq % Buckets ascending),
// skipping empty and expired slots, so every float sum adds the same
// terms in the same order whatever the history of the slabs — the reads
// are a function of the window's contents alone.

// Stats sums user u's live window into the same UserStats fragment the
// batch aggregates produce. O(buckets + in-window distinct entries).
func (s *Store) Stats(u txn.UserID) feature.UserStats {
	low := s.windowLow()
	sh := s.shardOf(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.users[u]
	if !ok {
		return feature.UserStats{}
	}
	var st feature.UserStats
	var rcv, snd []txn.UserID
	var days [2][]int32 // out, in
	for _, r := range sh.ring(row, s.buckets) {
		if r < 0 {
			continue
		}
		b, l := sh.bkts.at(r), sh.lsts.at(r)
		if b.seq < low {
			continue
		}
		st.OutCount += float64(b.count[0])
		st.InCount += float64(b.count[1])
		st.OutAmount += b.amount[0]
		st.InAmount += b.amount[1]
		rcv = sh.outs.appendKeys(rcv, l.outPeers)
		snd = sh.ins.appendKeys(snd, l.inPeers)
		sh.appendDays(&days, r, s.home(b.seq))
	}
	st.DistinctRcv = distinct(rcv)
	st.DistinctSnd = distinct(snd)
	st.OutDays = distinct(days[0])
	st.InDays = distinct(days[1])
	return st
}

// Velocity sums user u's in-window transfer counts and amounts without
// touching the distinct-entity lists: the count/amount record fields are
// plain accumulators, so the read is O(buckets) with zero allocation —
// cheap enough for the decision subsystem's velocity-cap rule predicates
// to call on the scoring hot path (Stats, by contrast, gathers and sorts
// the lists to reproduce the distinct counters exactly).
func (s *Store) Velocity(u txn.UserID) (outCount, outAmount, inCount, inAmount float64) {
	low := s.windowLow()
	sh := s.shardOf(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.users[u]
	if !ok {
		return 0, 0, 0, 0
	}
	// The slab header and the sums are locals: the shard's fields share
	// cache lines an ingest writes, and named results live in memory
	// under the defer.
	bkts := sh.bkts
	var oc, oa, ic, ia float64
	for _, r := range sh.ring(row, s.buckets) {
		if r < 0 {
			continue
		}
		b := bkts.at(r) // once: the compiler does not merge two
		if b.seq < low {
			continue
		}
		oc += float64(b.count[0])
		oa += b.amount[0]
		ic += float64(b.count[1])
		ia += b.amount[1]
	}
	return oc, oa, ic, ia
}

// PairPrior returns how many times from transferred to to inside the live
// window. O(buckets).
func (s *Store) PairPrior(from, to txn.UserID) float64 {
	low := s.windowLow()
	sh := s.shardOf(from)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.users[from]
	if !ok {
		return 0
	}
	var n float64
	for _, r := range sh.ring(row, s.buckets) {
		if r < 0 || sh.bkts.at(r).seq < low {
			continue
		}
		h := sh.lsts.at(r).outPeers
		if h >= indexed {
			h, _ = sh.outs.find(h, to)
		}
		for h >= 0 { // a short list, walked here: find is not inlined
			if c := sh.outs.at(h); c.k != to {
				h = c.next
				continue
			}
			n += float64(sh.outs.at(h).v)
			break
		}
	}
	return n
}

// Lookup returns city c's smoothed fraud rate and traffic share over the
// live window, satisfying feature.CitySource. O(1): rolling sums, not a
// ring scan.
func (s *Store) Lookup(c uint16) (fraud, share float64) {
	fraud, share, _ = s.LookupCity(c)
	return fraud, share
}

// LookupCity additionally reports the city's in-window transaction count,
// letting callers distinguish "genuinely quiet city" from "no data yet"
// (the Model Server falls back to the bundle's frozen table on the
// latter).
func (s *Store) LookupCity(c uint16) (fraud, share, txns float64) {
	return s.city.lookup(c)
}

// CityTable snapshots the live window's city statistics in the same form
// the batch aggregates export (e.g. for building a model bundle from a
// streamed window).
func (s *Store) CityTable() feature.CityTable {
	return s.city.snapshot()
}

// Store implements the full aggregate read surface.
var _ feature.Source = (*Store)(nil)

// cityStats maintains per-city windowed counts with rolling sums: adds
// rotate the ring eagerly (amortised O(cities) per bucket advance) under
// a mutex, while the rolling sums the scorer reads are atomic integers —
// Lookup is three atomic loads with no lock at all, so saturated ingest
// writers cannot starve the scoring hot path's tail latency. A reader
// racing a rotation may observe sums that are momentarily off by one
// bucket's contents; for windowed risk statistics that transient skew is
// harmless, and single-threaded use (the oracle tests) is exact.
type cityStats struct {
	mu       sync.Mutex // guards the ring bookkeeping below
	nbuckets int
	cities   int
	started  bool
	head     int64     // newest sequence represented in the ring
	seqs     []int64   // per-slot sequence currently held
	count    []float64 // [slot*cities + city] transactions
	fraud    []float64 // [slot*cities + city] fraud-labelled transactions

	// Live rolling sums over in-window slots; written under mu, read
	// lock-free. Counts are integers, so atomic.Int64 is exact.
	countSum []atomic.Int64
	fraudSum []atomic.Int64
	totalSum atomic.Int64
}

func (cs *cityStats) init(cities, buckets int) {
	cs.nbuckets = buckets
	cs.cities = cities
	cs.seqs = make([]int64, buckets)
	cs.count = make([]float64, buckets*cities)
	cs.fraud = make([]float64, buckets*cities)
	cs.countSum = make([]atomic.Int64, cities)
	cs.fraudSum = make([]atomic.Int64, cities)
}

func (cs *cityStats) clampCity(c uint16) int { return min(int(c), cs.cities-1) }

// expireSlot removes a slot's contents from the rolling sums and zeroes
// it. Callers hold mu.
func (cs *cityStats) expireSlot(slot int) {
	base := slot * cs.cities
	for c := 0; c < cs.cities; c++ {
		if n := cs.count[base+c]; n != 0 {
			cs.countSum[c].Add(-int64(n))
			cs.totalSum.Add(-int64(n))
			cs.fraudSum[c].Add(-int64(cs.fraud[base+c]))
			cs.count[base+c] = 0
			cs.fraud[base+c] = 0
		}
	}
}

func (cs *cityStats) add(seq int64, city uint16, isFraud bool) {
	c := cs.clampCity(city)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.started {
		cs.started = true
		cs.head = seq
		for i := range cs.seqs {
			cs.seqs[i] = noSeq
		}
	}
	if seq > cs.head {
		// Advancing the head expires exactly the slots the new sequences
		// will occupy — the buckets falling off the far edge of the window.
		steps := min(seq-cs.head, int64(cs.nbuckets))
		for k := seq - steps + 1; k <= seq; k++ {
			slot := int(k % int64(cs.nbuckets))
			cs.expireSlot(slot)
			cs.seqs[slot] = k
		}
		cs.head = seq
	}
	if seq <= cs.head-int64(cs.nbuckets) {
		// Shed: another writer slid the window between this transaction's
		// user-side commit and here, so the city table skips what the
		// user rings kept (both sides would have been dropped up front
		// had the slide happened earlier). The transaction still counts
		// as ingested; the skew is one boundary transaction per
		// concurrent slide and each table stays internally consistent.
		return
	}
	slot := int(seq % int64(cs.nbuckets))
	if cs.seqs[slot] != seq {
		cs.expireSlot(slot)
		cs.seqs[slot] = seq
	}
	cs.count[slot*cs.cities+c]++
	cs.countSum[c].Add(1)
	cs.totalSum.Add(1)
	if isFraud {
		cs.fraud[slot*cs.cities+c]++
		cs.fraudSum[c].Add(1)
	}
}

// lookup is lock-free: three atomic loads on the scoring hot path.
func (cs *cityStats) lookup(city uint16) (fraud, share, txns float64) {
	c := cs.clampCity(city)
	n := float64(cs.countSum[c].Load())
	fraud = (float64(cs.fraudSum[c].Load()) + feature.CitySmoothing*feature.CityFraudPrior) / (n + feature.CitySmoothing)
	if tot := float64(cs.totalSum.Load()); tot > 0 {
		share = n / tot
	}
	return fraud, share, n
}

// snapshot takes mu so the exported table is internally consistent (the
// sums only move under the lock).
func (cs *cityStats) snapshot() feature.CityTable {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ct := feature.CityTable{
		Fraud: make([]float64, cs.cities),
		Share: make([]float64, cs.cities),
	}
	total := float64(cs.totalSum.Load())
	for c := 0; c < cs.cities; c++ {
		n := float64(cs.countSum[c].Load())
		ct.Fraud[c] = (float64(cs.fraudSum[c].Load()) + feature.CitySmoothing*feature.CityFraudPrior) / (n + feature.CitySmoothing)
		if total > 0 {
			ct.Share[c] = n / total
		}
	}
	return ct
}
