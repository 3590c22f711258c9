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
// and memory per active user is bounded by the window geometry plus the
// user's in-window distinct counterparties — the minimum any exact
// distinct count requires.
//
// Window semantics: time is bucketed into fixed-width buckets of
// BucketSeconds; the window covers the most recent Buckets buckets ending
// at the newest ingested transaction's bucket (the store's clock advances
// only by ingestion, so an idle store does not silently expire its
// contents). Users whose whole ring has expired are evicted
// opportunistically — one probe per ingest — so memory tracks the active
// user set; and a clock jump further than one full window ahead needs a
// second corroborating transaction before it is believed, so a single
// corrupt far-future timestamp cannot slide the window past all real
// traffic (see advanceClock). A Store configured with
// Buckets×BucketSeconds equal to the
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
	"math"
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
		s.shards[i].users = make(map[txn.UserID]*userWindow)
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

// BucketSeconds returns the width of one ring bucket.
func (s *Store) BucketSeconds() int64 { return s.bucketSecs }

// WindowSeconds returns the total window span.
func (s *Store) WindowSeconds() int64 { return int64(s.buckets) * s.bucketSecs }

// Ingested returns the number of transactions accepted into the window.
func (s *Store) Ingested() int64 { return s.ingested.Load() }

// Dropped returns the number of transactions rejected as older than the
// whole window at ingest time.
func (s *Store) Dropped() int64 { return s.dropped.Load() }

// shard is one lock stripe. The trailing pad rounds the struct up to 64
// bytes so adjacent stripes sit on separate cache lines and uncorrelated
// ingests don't false-share their mutexes.
type shard struct {
	mu    sync.RWMutex // 24 bytes
	users map[txn.UserID]*userWindow
	_     [32]byte
}

// userWindow is one user's ring of time buckets.
type userWindow struct {
	buckets []bucket
}

// bucket aggregates one user's activity inside one time bucket. The maps
// are allocated lazily and cleared (not reallocated) on rotation. seq
// identifies which bucket sequence the slot currently holds; slots whose
// seq has fallen out of the window are skipped by readers and recycled by
// the next write.
type bucket struct {
	seq                 int64
	outCount, inCount   float64
	outAmount, inAmount float64
	outPeers            map[txn.UserID]float64  // receiver -> transfer count (distinct-rcv + pair prior)
	inPeers             map[txn.UserID]struct{} // distinct senders
	outDays, inDays     daySet                  // distinct active days
}

// daySet is a bucket's distinct active days, kept sorted. A bucket spans
// BucketSeconds of the timeline, so it holds one day or two at the default
// day-wide geometry and BucketSeconds/86400+1 at most: a slice, whose one
// element costs 8 bytes where a map's header and first group cost ~130,
// per side of every (user, bucket) the window has touched.
type daySet []txn.Day

func (s *daySet) add(d txn.Day) {
	if i, found := slices.BinarySearch(*s, d); !found {
		*s = slices.Insert(*s, i, d)
	}
}

// reset recycles a slot for a new sequence, keeping map and slice
// allocations.
func (b *bucket) reset(seq int64) {
	b.seq = seq
	b.outCount, b.inCount = 0, 0
	b.outAmount, b.inAmount = 0, 0
	clear(b.outPeers)
	clear(b.inPeers)
	b.outDays, b.inDays = b.outDays[:0], b.inDays[:0]
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

// slot returns the ring slot for seq, recycling it if it still holds an
// older sequence. Callers hold the shard lock.
func (w *userWindow) slot(seq int64) *bucket {
	b := &w.buckets[seq%int64(len(w.buckets))]
	if b.seq != seq {
		b.reset(seq)
	}
	return b
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
// out-side, the receiver's in-side, and the city table. O(1): two striped
// map upserts plus constant ring-bucket arithmetic. Transactions older
// than the whole window (or further ahead of it than advanceClock
// tolerates) are counted in Dropped and otherwise ignored; accepted newer
// transactions advance the window, expiring buckets that fall off the far
// edge.
func (s *Store) Ingest(t *txn.Transaction) {
	seq := s.seqOf(t.Day, t.Sec)
	// The timeline starts at day 0: a negative sequence (negative wire
	// day/sec) is malformed input, and letting it through would index the
	// rings with a negative modulo.
	if seq < 0 || !s.advanceClock(seq, txnKey(t)) {
		s.dropped.Add(1)
		return
	}

	// Both user-side writes happen under both shard locks, with a single
	// in-window decision: the window may slide between advanceClock and
	// lock acquisition, and deciding per-side could apply the sender's
	// half of a transaction but not the receiver's. Locks are ordered by
	// shard index so concurrent ingests cannot deadlock; per-user slots
	// only change under their shard lock, so the in-lock check is
	// authoritative and a stale write can never recycle a slot holding
	// newer data.
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
	b := shFrom.window(t.From, s.buckets).slot(seq)
	b.outCount++
	b.outAmount += float64(t.Amount)
	if b.outPeers == nil {
		b.outPeers = make(map[txn.UserID]float64, 4)
	}
	b.outPeers[t.To]++
	b.outDays.add(t.Day)

	b = shTo.window(t.To, s.buckets).slot(seq)
	b.inCount++
	b.inAmount += float64(t.Amount)
	if b.inPeers == nil {
		b.inPeers = make(map[txn.UserID]struct{}, 4)
	}
	b.inPeers[t.From] = struct{}{}
	b.inDays.add(t.Day)

	// Piggyback one eviction probe on the write lock already held: check
	// a pseudo-random resident of the sender's shard and delete it if its
	// whole ring has expired, so memory tracks the active user set, not
	// the all-time one.
	shFrom.evictOne(t.From, s.maxSeq.Load()-int64(s.buckets)+1)

	if second != first {
		second.mu.Unlock()
	}
	first.mu.Unlock()

	s.city.add(seq, t.TransCity, t.Fraud)
	s.ingested.Add(1)
}

// evictOne probes one map entry (Go's randomised iteration order makes
// successive probes hit different users) and deletes it if every bucket
// fell out of the window. Amortised O(1) per ingest; a long-lived store
// therefore sheds departed users at roughly its ingest rate. Callers hold
// the shard write lock.
func (sh *shard) evictOne(skip txn.UserID, low int64) {
	for u, w := range sh.users {
		if u == skip {
			continue
		}
		for i := range w.buckets {
			if w.buckets[i].seq >= low {
				return
			}
		}
		delete(sh.users, u)
		return
	}
}

// IngestBatch ingests a slice in order.
func (s *Store) IngestBatch(ts []txn.Transaction) {
	for i := range ts {
		s.Ingest(&ts[i])
	}
}

// window returns (or creates) u's ring of n buckets. Callers hold the
// shard lock.
func (sh *shard) window(u txn.UserID, n int) *userWindow {
	w, ok := sh.users[u]
	if !ok {
		w = &userWindow{buckets: make([]bucket, n)}
		for i := range w.buckets {
			w.buckets[i].seq = noSeq
		}
		sh.users[u] = w
	}
	return w
}

// windowLow returns the lowest in-window sequence (inclusive).
func (s *Store) windowLow() int64 {
	return s.maxSeq.Load() - int64(s.buckets) + 1
}

// Stats sums user u's live window into the same UserStats fragment the
// batch aggregates produce. O(buckets + in-window distinct entries).
func (s *Store) Stats(u txn.UserID) feature.UserStats {
	low := s.windowLow()
	sh := s.shardOf(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	w := sh.users[u]
	if w == nil {
		return feature.UserStats{}
	}
	var st feature.UserStats
	rcv := make(map[txn.UserID]struct{})
	snd := make(map[txn.UserID]struct{})
	outD := make(map[txn.Day]struct{})
	inD := make(map[txn.Day]struct{})
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.seq < low {
			continue
		}
		st.OutCount += b.outCount
		st.InCount += b.inCount
		st.OutAmount += b.outAmount
		st.InAmount += b.inAmount
		for p := range b.outPeers {
			rcv[p] = struct{}{}
		}
		for p := range b.inPeers {
			snd[p] = struct{}{}
		}
		for _, d := range b.outDays {
			outD[d] = struct{}{}
		}
		for _, d := range b.inDays {
			inD[d] = struct{}{}
		}
	}
	st.DistinctRcv = float64(len(rcv))
	st.DistinctSnd = float64(len(snd))
	st.OutDays = float64(len(outD))
	st.InDays = float64(len(inD))
	return st
}

// Velocity sums user u's in-window transfer counts and amounts without
// touching the distinct-entity maps: the count/amount ring fields are
// plain accumulators, so the read is O(buckets) with zero allocation —
// cheap enough for the decision subsystem's velocity-cap rule predicates
// to call on the scoring hot path (Stats, by contrast, allocates four
// maps to reproduce the distinct counters exactly).
func (s *Store) Velocity(u txn.UserID) (outCount, outAmount, inCount, inAmount float64) {
	low := s.windowLow()
	sh := s.shardOf(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	w := sh.users[u]
	if w == nil {
		return 0, 0, 0, 0
	}
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.seq < low {
			continue
		}
		outCount += b.outCount
		outAmount += b.outAmount
		inCount += b.inCount
		inAmount += b.inAmount
	}
	return outCount, outAmount, inCount, inAmount
}

// PairPrior returns how many times from transferred to to inside the live
// window. O(buckets).
func (s *Store) PairPrior(from, to txn.UserID) float64 {
	low := s.windowLow()
	sh := s.shardOf(from)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	w := sh.users[from]
	if w == nil {
		return 0
	}
	var n float64
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.seq < low {
			continue
		}
		n += b.outPeers[to]
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

func (cs *cityStats) clampCity(c uint16) int {
	i := int(c)
	if i >= cs.cities {
		i = cs.cities - 1
	}
	return i
}

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
		steps := seq - cs.head
		if steps > int64(cs.nbuckets) {
			steps = int64(cs.nbuckets)
		}
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
