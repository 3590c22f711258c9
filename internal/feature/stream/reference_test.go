package stream

import (
	"slices"
	"sync"
	"sync/atomic"

	"titant/internal/feature"
	"titant/internal/txn"
)

// refStore is the map-ring window the slab layout replaced, kept verbatim
// in behaviour as the differential oracle: a dense ring of buckets per
// user, each bucket with its own peer maps and sorted day slices. Every
// read of a Store must equal refStore's bit for bit on the same input
// (TestStreamMatchesReference, FuzzStreamMatchesReference). The city
// table is the product's cityStats, which the layout change did not
// touch.
type refStore struct {
	mask       uint64
	buckets    int
	bucketSecs int64
	shards     []refShard
	city       cityStats

	maxSeq   atomic.Int64
	ingested atomic.Int64
	dropped  atomic.Int64

	jumpMu      sync.Mutex
	pendingJump int64
	pendingKey  uint64
}

type refShard struct {
	mu    sync.RWMutex
	users map[txn.UserID]*refWindow
}

type refWindow struct {
	buckets []refBucket
}

type refBucket struct {
	seq                 int64
	outCount, inCount   float64
	outAmount, inAmount float64
	outPeers            map[txn.UserID]float64
	inPeers             map[txn.UserID]struct{}
	outDays, inDays     refDaySet
}

type refDaySet []txn.Day

func (s *refDaySet) add(d txn.Day) {
	if i, found := slices.BinarySearch(*s, d); !found {
		*s = slices.Insert(*s, i, d)
	}
}

func (b *refBucket) reset(seq int64) {
	b.seq = seq
	b.outCount, b.inCount = 0, 0
	b.outAmount, b.inAmount = 0, 0
	clear(b.outPeers)
	clear(b.inPeers)
	b.outDays, b.inDays = b.outDays[:0], b.inDays[:0]
}

func newRefStore(shards, buckets int, bucketSecs int64, cities int) *refStore {
	nshards := 1
	for nshards < shards {
		nshards <<= 1
	}
	s := &refStore{
		mask:       uint64(nshards - 1),
		buckets:    buckets,
		bucketSecs: bucketSecs,
		shards:     make([]refShard, nshards),
	}
	for i := range s.shards {
		s.shards[i].users = make(map[txn.UserID]*refWindow)
	}
	s.city.init(cities, buckets)
	s.maxSeq.Store(noSeq)
	s.pendingJump = noSeq
	return s
}

func (s *refStore) shardIndex(u txn.UserID) uint64 {
	return (&Store{mask: s.mask}).shardIndex(u)
}

func (s *refStore) seqOf(day txn.Day, sec int32) int64 {
	return (int64(day)*86400 + int64(sec)) / s.bucketSecs
}

func (w *refWindow) slot(seq int64) *refBucket {
	b := &w.buckets[seq%int64(len(w.buckets))]
	if b.seq != seq {
		b.reset(seq)
	}
	return b
}

func (s *refStore) advanceClock(seq int64, key uint64) bool {
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

func (s *refStore) Ingest(t *txn.Transaction) {
	seq := s.seqOf(t.Day, t.Sec)
	if seq < 0 || !s.advanceClock(seq, txnKey(t)) {
		s.dropped.Add(1)
		return
	}
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

	shFrom.evictOne(t.From, s.maxSeq.Load()-int64(s.buckets)+1)

	if second != first {
		second.mu.Unlock()
	}
	first.mu.Unlock()

	s.city.add(seq, t.TransCity, t.Fraud)
	s.ingested.Add(1)
}

func (sh *refShard) evictOne(skip txn.UserID, low int64) {
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

func (sh *refShard) window(u txn.UserID, n int) *refWindow {
	w, ok := sh.users[u]
	if !ok {
		w = &refWindow{buckets: make([]refBucket, n)}
		for i := range w.buckets {
			w.buckets[i].seq = noSeq
		}
		sh.users[u] = w
	}
	return w
}

func (s *refStore) windowLow() int64 {
	return s.maxSeq.Load() - int64(s.buckets) + 1
}

func (s *refStore) Stats(u txn.UserID) feature.UserStats {
	low := s.windowLow()
	sh := &s.shards[s.shardIndex(u)]
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

func (s *refStore) Velocity(u txn.UserID) (outCount, outAmount, inCount, inAmount float64) {
	low := s.windowLow()
	sh := &s.shards[s.shardIndex(u)]
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

func (s *refStore) PairPrior(from, to txn.UserID) float64 {
	low := s.windowLow()
	sh := &s.shards[s.shardIndex(from)]
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

func (s *refStore) LookupCity(c uint16) (fraud, share, txns float64) { return s.city.lookup(c) }
func (s *refStore) CityTable() feature.CityTable                     { return s.city.snapshot() }
func (s *refStore) Ingested() int64                                  { return s.ingested.Load() }
func (s *refStore) Dropped() int64                                   { return s.dropped.Load() }
