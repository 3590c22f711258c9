package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"titant/internal/txn"
)

// State snapshot codec. WriteState serialises every accumulator the Store
// owns — ring buckets, distinct-entity maps, city table, clock, jump
// corroboration state — with float64 sums stored as raw bits, so a
// RestoreState into a same-geometry Store reproduces reads (Stats,
// Velocity, PairPrior, LookupCity) bitwise-identically. The event log
// uses this as the "stream" section of its periodic snapshots: recovery
// loads the snapshot and replays only the log tail behind it.
//
// Ordering: WriteState takes every shard lock and the city lock one at a
// time, so it is a consistent cut only if the caller has quiesced writers
// (the Model Server serialises snapshots against ingest under its event
// log mutex). RestoreState assumes a freshly built, unshared Store.

const (
	snapMagic   = 0x50534e53 // "SNSP"
	snapVersion = 1
)

// WriteState writes the store's full state to w.
func (s *Store) WriteState(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriterSize(w, 1<<16)}
	bw.u32(snapMagic)
	bw.u32(snapVersion)
	// Geometry, so a restore into a differently-shaped store fails loudly
	// instead of silently mis-bucketing.
	bw.u32(uint32(len(s.shards)))
	bw.u32(uint32(s.buckets))
	bw.i64(s.bucketSecs)
	bw.u32(uint32(s.city.cities))

	bw.i64(s.maxSeq.Load())
	bw.i64(s.ingested.Load())
	bw.i64(s.dropped.Load())
	s.jumpMu.Lock()
	bw.i64(s.pendingJump)
	bw.u64(s.pendingKey)
	s.jumpMu.Unlock()

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		bw.u32(uint32(len(sh.users)))
		// Deterministic user order keeps snapshots of identical state
		// byte-identical, which makes them diffable and testable.
		ids := make([]txn.UserID, 0, len(sh.users))
		for u := range sh.users {
			ids = append(ids, u)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, u := range ids {
			bw.u32(uint32(u))
			writeWindow(bw, sh.users[u])
		}
		sh.mu.RUnlock()
	}

	cs := &s.city
	cs.mu.Lock()
	bw.u8(b2u(cs.started))
	bw.i64(cs.head)
	for _, q := range cs.seqs {
		bw.i64(q)
	}
	for _, v := range cs.count {
		bw.f64(v)
	}
	for _, v := range cs.fraud {
		bw.f64(v)
	}
	cs.mu.Unlock()

	if bw.err != nil {
		return fmt.Errorf("stream: write state: %w", bw.err)
	}
	return bw.w.Flush()
}

func writeWindow(bw *binWriter, w *userWindow) {
	live := 0
	for i := range w.buckets {
		if w.buckets[i].seq != noSeq {
			live++
		}
	}
	bw.u32(uint32(live))
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.seq == noSeq {
			continue
		}
		bw.u32(uint32(i))
		bw.i64(b.seq)
		bw.f64(b.outCount)
		bw.f64(b.inCount)
		bw.f64(b.outAmount)
		bw.f64(b.inAmount)
		bw.u32(uint32(len(b.outPeers)))
		for _, p := range sortedUsersF(b.outPeers) {
			bw.u32(uint32(p))
			bw.f64(b.outPeers[p])
		}
		bw.u32(uint32(len(b.inPeers)))
		for _, p := range sortedUsers(b.inPeers) {
			bw.u32(uint32(p))
		}
		bw.u32(uint32(len(b.outDays)))
		for _, d := range b.outDays {
			bw.u32(uint32(d))
		}
		bw.u32(uint32(len(b.inDays)))
		for _, d := range b.inDays {
			bw.u32(uint32(d))
		}
	}
}

// RestoreState loads a snapshot written by WriteState into s, which must
// be freshly built with the same geometry and not yet shared.
func (s *Store) RestoreState(r io.Reader) error {
	br := &binReader{r: bufio.NewReaderSize(r, 1<<16)}
	if m := br.u32(); br.err == nil && m != snapMagic {
		return fmt.Errorf("stream: restore: bad magic %#x", m)
	}
	if v := br.u32(); br.err == nil && v != snapVersion {
		return fmt.Errorf("stream: restore: unsupported version %d", v)
	}
	if n := br.u32(); br.err == nil && int(n) != len(s.shards) {
		return fmt.Errorf("stream: restore: snapshot has %d shards, store has %d", n, len(s.shards))
	}
	if n := br.u32(); br.err == nil && int(n) != s.buckets {
		return fmt.Errorf("stream: restore: snapshot has %d buckets, store has %d", n, s.buckets)
	}
	if q := br.i64(); br.err == nil && q != s.bucketSecs {
		return fmt.Errorf("stream: restore: snapshot bucketSeconds %d, store %d", q, s.bucketSecs)
	}
	if n := br.u32(); br.err == nil && int(n) != s.city.cities {
		return fmt.Errorf("stream: restore: snapshot has %d cities, store has %d", n, s.city.cities)
	}

	s.maxSeq.Store(br.i64())
	s.ingested.Store(br.i64())
	s.dropped.Store(br.i64())
	s.pendingJump = br.i64()
	s.pendingKey = br.u64()

	for i := range s.shards {
		sh := &s.shards[i]
		nusers := int(br.u32())
		if br.err != nil {
			break
		}
		for j := 0; j < nusers; j++ {
			u := txn.UserID(br.u32())
			w := &userWindow{buckets: make([]bucket, s.buckets)}
			for k := range w.buckets {
				w.buckets[k].seq = noSeq
			}
			if err := readWindow(br, w, s.buckets); err != nil {
				return err
			}
			sh.users[u] = w
		}
	}

	cs := &s.city
	cs.started = br.u8() != 0
	cs.head = br.i64()
	for k := range cs.seqs {
		cs.seqs[k] = br.i64()
	}
	for k := range cs.count {
		cs.count[k] = br.f64()
	}
	for k := range cs.fraud {
		cs.fraud[k] = br.f64()
	}
	if br.err != nil {
		return fmt.Errorf("stream: restore state: %w", br.err)
	}
	// The rolling sums are derived: expireSlot maintains the invariant
	// that they equal the straight sum of the live ring contents (expired
	// slots are zeroed as they leave the sums), so recompute rather than
	// persist them.
	var total int64
	for c := 0; c < cs.cities; c++ {
		var cnt, frd int64
		for slot := 0; slot < cs.nbuckets; slot++ {
			cnt += int64(cs.count[slot*cs.cities+c])
			frd += int64(cs.fraud[slot*cs.cities+c])
		}
		cs.countSum[c].Store(cnt)
		cs.fraudSum[c].Store(frd)
		total += cnt
	}
	cs.totalSum.Store(total)
	return nil
}

func readWindow(br *binReader, w *userWindow, buckets int) error {
	live := int(br.u32())
	if br.err != nil {
		return fmt.Errorf("stream: restore window: %w", br.err)
	}
	if live > buckets {
		return fmt.Errorf("stream: restore: window claims %d live slots of %d", live, buckets)
	}
	for n := 0; n < live; n++ {
		slot := int(br.u32())
		if br.err != nil {
			return fmt.Errorf("stream: restore window: %w", br.err)
		}
		if slot >= buckets {
			return fmt.Errorf("stream: restore: slot %d out of %d", slot, buckets)
		}
		b := &w.buckets[slot]
		b.seq = br.i64()
		b.outCount = br.f64()
		b.inCount = br.f64()
		b.outAmount = br.f64()
		b.inAmount = br.f64()
		if n := int(br.u32()); n > 0 && br.err == nil {
			b.outPeers = make(map[txn.UserID]float64, n)
			for i := 0; i < n; i++ {
				p := txn.UserID(br.u32())
				b.outPeers[p] = br.f64()
			}
		}
		if n := int(br.u32()); n > 0 && br.err == nil {
			b.inPeers = make(map[txn.UserID]struct{}, n)
			for i := 0; i < n; i++ {
				b.inPeers[txn.UserID(br.u32())] = struct{}{}
			}
		}
		for n := int(br.u32()); n > 0 && br.err == nil; n-- {
			b.outDays.add(txn.Day(int32(br.u32())))
		}
		for n := int(br.u32()); n > 0 && br.err == nil; n-- {
			b.inDays.add(txn.Day(int32(br.u32())))
		}
		if br.err != nil {
			return fmt.Errorf("stream: restore window: %w", br.err)
		}
	}
	return nil
}

func sortedUsersF(m map[txn.UserID]float64) []txn.UserID {
	ids := make([]txn.UserID, 0, len(m))
	for u := range m {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func sortedUsers(m map[txn.UserID]struct{}) []txn.UserID {
	ids := make([]txn.UserID, 0, len(m))
	for u := range m {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// binWriter/binReader are sticky-error little-endian codecs; float64s
// travel as raw bits so restored sums are bit-exact.

type binWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (b *binWriter) write(n int) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *binWriter) u8(v uint8)   { b.buf[0] = v; b.write(1) }
func (b *binWriter) u32(v uint32) { binary.LittleEndian.PutUint32(b.buf[:], v); b.write(4) }
func (b *binWriter) u64(v uint64) { binary.LittleEndian.PutUint64(b.buf[:], v); b.write(8) }
func (b *binWriter) i64(v int64)  { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) {
	b.u64(math.Float64bits(v))
}

type binReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (b *binReader) read(n int) bool {
	if b.err != nil {
		return false
	}
	_, b.err = io.ReadFull(b.r, b.buf[:n])
	return b.err == nil
}

func (b *binReader) u8() uint8 {
	if !b.read(1) {
		return 0
	}
	return b.buf[0]
}

func (b *binReader) u32() uint32 {
	if !b.read(4) {
		return 0
	}
	return binary.LittleEndian.Uint32(b.buf[:4])
}

func (b *binReader) u64() uint64 {
	if !b.read(8) {
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:])
}

func (b *binReader) i64() int64   { return int64(b.u64()) }
func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }
