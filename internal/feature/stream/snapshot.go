package stream

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"titant/internal/txn"
)

// State snapshot codec. WriteState serialises every accumulator the Store
// owns — live bucket records with their peer and day lists (sorted),
// city table, clock, jump corroboration state — with float64 sums stored
// as raw bits, so a RestoreState into a same-geometry Store reproduces
// reads (Stats, Velocity, PairPrior, LookupCity) bitwise-identically.
// Counts are kept as uint32 but travel as float64 bits, the format's
// width, so a restored count that is not a uint32 is an error. The
// event log uses this as the "stream" section of its periodic snapshots:
// recovery loads the snapshot and replays only the log tail behind it.
// Snapshots written before the slab layout are version 1 too and must
// keep restoring bitwise: testdata/window-v1.snap pins that.
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

	// Only users with a live bucket, and only their live buckets, are
	// written: an expired one is invisible to every read.
	low := s.windowLow()
	var sc sortSpace
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		// Deterministic user order keeps snapshots of identical state
		// byte-identical, which makes them diffable and testable.
		ids := make([]txn.UserID, 0, len(sh.users))
		for u, row := range sh.users {
			if sh.newest[row] >= low {
				ids = append(ids, u)
			}
		}
		slices.Sort(ids)
		bw.u32(uint32(len(ids)))
		for _, u := range ids {
			bw.u32(uint32(u))
			sc.writeWindow(bw, s, sh, sh.ring(sh.users[u], s.buckets), low)
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

// sortSpace is WriteState's and RestoreState's reusable space.
type sortSpace struct {
	cells []int32
	users []txn.UserID
	days  [2][]int32 // out, in
}

func (sc *sortSpace) writeWindow(bw *binWriter, s *Store, sh *shard, ring []int32, low int64) {
	live := 0
	for _, r := range ring {
		if r >= 0 && sh.bkts.at(r).seq >= low {
			live++
		}
	}
	bw.u32(uint32(live))
	for slot, r := range ring {
		if r < 0 || sh.bkts.at(r).seq < low {
			continue
		}
		b, l := sh.bkts.at(r), sh.lsts.at(r)
		bw.u32(uint32(slot))
		bw.i64(b.seq)
		bw.f64(float64(b.count[0]))
		bw.f64(float64(b.count[1]))
		bw.f64(b.amount[0])
		bw.f64(b.amount[1])
		sc.cells = sc.cells[:0]
		for c := sh.outs.first(l.outPeers); c >= 0; c = sh.outs.at(c).next {
			sc.cells = append(sc.cells, c)
		}
		slices.SortFunc(sc.cells, func(x, y int32) int { return cmp.Compare(sh.outs.at(x).k, sh.outs.at(y).k) })
		bw.u32(uint32(len(sc.cells)))
		for _, c := range sc.cells {
			bw.u32(uint32(sh.outs.at(c).k))
			bw.f64(float64(sh.outs.at(c).v))
		}
		sc.users = sh.ins.appendKeys(sc.users[:0], l.inPeers)
		slices.Sort(sc.users)
		bw.u32(uint32(len(sc.users)))
		for _, p := range sc.users {
			bw.u32(uint32(p))
		}
		sc.days = [2][]int32{sc.days[0][:0], sc.days[1][:0]}
		sh.appendDays(&sc.days, r, s.home(b.seq))
		for _, ds := range sc.days {
			slices.Sort(ds)
			bw.u32(uint32(len(ds)))
			for _, d := range ds {
				bw.u32(uint32(d))
			}
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

	var sc sortSpace
	for i := range s.shards {
		n := br.u32()
		for j := uint32(0); j < n && br.err == nil; j++ {
			if err := sc.readWindow(br, s, uint64(i)); err != nil {
				return err
			}
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

// readWindow restores one user's ring into stripe i. Counts are trusted
// only as far as the bytes behind them: nothing is sized by one, and a
// loop stops at the first failed read.
func (sc *sortSpace) readWindow(br *binReader, s *Store, i uint64) error {
	u := txn.UserID(br.u32())
	live := br.u32()
	if br.err != nil {
		return fmt.Errorf("stream: restore window: %w", br.err)
	}
	sh := &s.shards[i]
	if s.shardIndex(u) != i {
		return fmt.Errorf("stream: restore: user %d filed under stripe %d", u, i)
	}
	if _, dup := sh.users[u]; dup {
		return fmt.Errorf("stream: restore: user %d twice", u)
	}
	if live > uint32(s.buckets) {
		return fmt.Errorf("stream: restore: window claims %d live slots of %d", live, s.buckets)
	}
	ring := sh.ring(sh.admit(u, s.buckets), s.buckets)
	for ; live > 0; live-- {
		slot, seq := br.u32(), br.i64()
		if br.err != nil {
			return fmt.Errorf("stream: restore window: %w", br.err)
		}
		if seq < 0 || uint64(seq)%uint64(s.buckets) != uint64(slot) || ring[slot] >= 0 {
			return fmt.Errorf("stream: restore: slot %d cannot hold sequence %d", slot, seq)
		}
		r := sh.slot(u, seq, s.buckets)
		b, l := sh.bkts.at(r), sh.lsts.at(r)
		b.count = [2]uint32{br.count(), br.count()}
		b.amount = [2]float64{br.f64(), br.f64()}
		for n := br.u32(); n > 0 && br.err == nil; n-- {
			c, _ := sh.outs.add(&l.outPeers, txn.UserID(br.u32()))
			sh.outs.at(c).v = br.count()
		}
		for n := br.u32(); n > 0 && br.err == nil; n-- {
			sh.ins.add(&l.inPeers, txn.UserID(br.u32()))
		}
		for side := range sc.days {
			sc.days[side] = sc.days[side][:0]
			for n := br.u32(); n > 0 && br.err == nil; n-- {
				sc.days[side] = append(sc.days[side], int32(br.u32()))
			}
		}
		if br.err != nil {
			return fmt.Errorf("stream: restore window: %w", br.err)
		}
		sh.restoreDays(r, s.home(seq), &sc.days)
	}
	return nil
}

// restoreDays gives record r, its counts set, the day sets ds: implicit
// if its counts and home day imply them, else in the overflow.
func (sh *shard) restoreDays(r, home int32, ds *[2][]int32) {
	for side, n := range sh.bkts.at(r).count {
		if (n > 0) != (len(ds[side]) > 0) || slices.ContainsFunc(ds[side], func(d int32) bool { return d != home }) {
			d := [2]int32{-1, -1}
			for s := range d {
				for _, day := range ds[s] {
					sh.days.add(&d[s], day)
				}
			}
			sh.over[r] = d
			return
		}
	}
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

func (b *binWriter) u8(v uint8)    { b.buf[0] = v; b.write(1) }
func (b *binWriter) u32(v uint32)  { binary.LittleEndian.PutUint32(b.buf[:], v); b.write(4) }
func (b *binWriter) u64(v uint64)  { binary.LittleEndian.PutUint64(b.buf[:], v); b.write(8) }
func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

type binReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

// read returns the next n bytes, or zeros once a read has failed.
func (b *binReader) read(n int) []byte {
	if b.err == nil {
		_, b.err = io.ReadFull(b.r, b.buf[:n])
	}
	if b.err != nil {
		clear(b.buf[:])
	}
	return b.buf[:n]
}

func (b *binReader) u8() uint8    { return b.read(1)[0] }
func (b *binReader) u32() uint32  { return binary.LittleEndian.Uint32(b.read(4)) }
func (b *binReader) u64() uint64  { return binary.LittleEndian.Uint64(b.read(8)) }
func (b *binReader) i64() int64   { return int64(b.u64()) }
func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }

// count reads a float64 count that must be a uint32: a fractional,
// negative or too large one is an error, never truncated.
func (b *binReader) count() uint32 {
	v := b.f64()
	if b.err == nil && (v != math.Trunc(v) || v < 0 || v > math.MaxUint32) {
		b.err = fmt.Errorf("count %v is not a uint32", v)
	}
	return uint32(v)
}
