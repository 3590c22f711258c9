package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"titant/internal/txn"
)

func randTxn(rng *rand.Rand, users int) txn.Transaction {
	return txn.Transaction{
		ID:        txn.TxnID(rng.Int63()),
		Day:       txn.Day(rng.Intn(10)),
		Sec:       int32(rng.Intn(86400)),
		From:      txn.UserID(rng.Intn(users)),
		To:        txn.UserID(rng.Intn(users)),
		Amount:    rng.Float32() * 1000,
		TransCity: uint16(rng.Intn(40)),
		Fraud:     rng.Intn(20) == 0,
	}
}

func newTestStore() *Store {
	return New(WithShards(4), WithWindow(8, 3600), WithCities(32))
}

// TestSnapshotRoundTrip: restore(snapshot(S)) must reproduce every read
// surface of S bitwise, and stay bitwise-equal while both stores ingest
// the same subsequent traffic.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newTestStore()
	const users = 50
	for i := 0; i < 2000; i++ {
		tx := randTxn(rng, users)
		s.Ingest(&tx)
	}

	var buf bytes.Buffer
	if err := s.WriteState(&buf); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	r := newTestStore()
	if err := r.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	assertStoresEqual(t, s, r, users, "after restore")

	// Both continue ingesting the same stream: the restored store must
	// track the original exactly, including window slides and evictions.
	for i := 0; i < 1000; i++ {
		tx := randTxn(rng, users)
		s.Ingest(&tx)
		r.Ingest(&tx)
	}
	assertStoresEqual(t, s, r, users, "after post-restore ingest")
}

func assertStoresEqual(t *testing.T, a, b *Store, users int, when string) {
	t.Helper()
	if a.Ingested() != b.Ingested() || a.Dropped() != b.Dropped() {
		t.Fatalf("%s: counters diverge: ingested %d/%d dropped %d/%d",
			when, a.Ingested(), b.Ingested(), a.Dropped(), b.Dropped())
	}
	for u := 0; u < users; u++ {
		id := txn.UserID(u)
		sa, sb := a.Stats(id), b.Stats(id)
		if sa != sb {
			t.Fatalf("%s: Stats(%d) diverge:\n a=%+v\n b=%+v", when, u, sa, sb)
		}
		ao, aoa, ai, aia := a.Velocity(id)
		bo, boa, bi, bia := b.Velocity(id)
		if ao != bo || aoa != boa || ai != bi || aia != bia {
			t.Fatalf("%s: Velocity(%d) diverge", when, u)
		}
		for v := 0; v < 5; v++ {
			if a.PairPrior(id, txn.UserID(v)) != b.PairPrior(id, txn.UserID(v)) {
				t.Fatalf("%s: PairPrior(%d,%d) diverge", when, u, v)
			}
		}
	}
	for c := uint16(0); c < 40; c++ {
		af, as, an := a.LookupCity(c)
		bf, bs, bn := b.LookupCity(c)
		if af != bf || as != bs || an != bn {
			t.Fatalf("%s: LookupCity(%d) diverge: (%v,%v,%v) vs (%v,%v,%v)",
				when, c, af, as, an, bf, bs, bn)
		}
	}
	ca, cb := a.CityTable(), b.CityTable()
	for i := range ca.Fraud {
		if ca.Fraud[i] != cb.Fraud[i] || ca.Share[i] != cb.Share[i] {
			t.Fatalf("%s: CityTable city %d diverges", when, i)
		}
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := newTestStore()
	var buf bytes.Buffer
	if err := s.WriteState(&buf); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	r := newTestStore()
	if err := r.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	tx := txn.Transaction{ID: 1, Day: 1, From: 1, To: 2, Amount: 10}
	s.Ingest(&tx)
	r.Ingest(&tx)
	assertStoresEqual(t, s, r, 5, "empty round trip")
}

func TestSnapshotGeometryMismatch(t *testing.T) {
	s := newTestStore()
	var buf bytes.Buffer
	if err := s.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	bad := New(WithShards(4), WithWindow(16, 3600), WithCities(32))
	if err := bad.RestoreState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newTestStore()
	for i := 0; i < 500; i++ {
		tx := randTxn(rng, 20)
		s.Ingest(&tx)
	}
	var a, b bytes.Buffer
	if err := s.WriteState(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of identical state differ byte-wise")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := newTestStore()
	for i := 0; i < 200; i++ {
		tx := randTxn(rng, 20)
		s.Ingest(&tx)
	}
	var buf bytes.Buffer
	if err := s.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		r := newTestStore()
		if err := r.RestoreState(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", cut, len(data))
		}
	}
}

// goldenStore and goldenLog are what testdata/window-v1.snap was written
// from: the map-ring layout's WriteState after this log — 16 days through
// a 12-day window of 3-day buckets, so expired and multi-day buckets and
// lists past chainMax are all in it, then one too-old transaction and one
// far-future proposal left pending.
func goldenStore() *Store { return New(WithShards(4), WithWindow(4, 3*86400), WithCities(12)) }

func goldenLog() []txn.Transaction {
	return append(genTxns(21, 16, 150, 40, 12),
		txn.Transaction{ID: 900001, Day: 0, Sec: 5, From: 1, To: 2, Amount: 9},
		txn.Transaction{ID: 900002, Day: 1 << 20, From: 3, To: 5, Amount: 1},
	)
}

func snapshot(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGoldenV1: a v1 snapshot the map-ring layout wrote restores
// into the slab layout with every read bitwise equal to a fresh re-ingest
// of its log, the pending jump included, and the two then snapshot to
// the same bytes and stay equal under further traffic.
func TestSnapshotGoldenV1(t *testing.T) {
	data, err := os.ReadFile("testdata/window-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	restored, fresh := goldenStore(), goldenStore()
	if err := restored.RestoreState(bytes.NewReader(data)); err != nil {
		t.Fatalf("restore v1 golden: %v", err)
	}
	fresh.IngestBatch(goldenLog())
	if err := matchReference(restored, fresh, 40, 12); err != nil {
		t.Fatalf("restored golden vs re-ingest: %v", err)
	}
	if a, b := snapshot(t, restored), snapshot(t, fresh); !bytes.Equal(a, b) {
		t.Fatal("restored golden and re-ingest snapshot differently")
	}
	// The restored proposal is the pending one: a distinct transaction near
	// it corroborates on both.
	more := append([]txn.Transaction{{ID: 900003, Day: 1<<20 + 1, From: 4, To: 6, Amount: 2}},
		genTxns(22, 3, 100, 40, 12)...)
	for i := range more[1:] {
		more[1+i].Day += 1 << 20
	}
	dropped := fresh.Dropped()
	restored.IngestBatch(more)
	fresh.IngestBatch(more)
	if fresh.Dropped() != dropped {
		t.Fatalf("the corroborated epoch was not accepted: %d drops", fresh.Dropped()-dropped)
	}
	if err := matchReference(restored, fresh, 40, 12); err != nil {
		t.Fatalf("after the jump: %v", err)
	}
}

// TestSnapshotRoundTripBytes: a snapshot stays version 1, and restoring it
// and writing again reproduces it byte for byte.
func TestSnapshotRoundTripBytes(t *testing.T) {
	s := goldenStore()
	s.IngestBatch(goldenLog())
	a := snapshot(t, s)
	if v := binary.LittleEndian.Uint32(a[4:]); v != snapVersion || snapVersion != 1 {
		t.Fatalf("snapshot version %d", v)
	}
	r := goldenStore()
	if err := r.RestoreState(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	if b := snapshot(t, r); !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the snapshot: %d bytes -> %d", len(a), len(b))
	}
}

// craft writes a one-stripe, two-bucket, two-city snapshot holding one
// user with one bucket, letting a test corrupt the slot, the sequence,
// the user and receiver counts, and the three transfer counts: the
// bucket's out and in counts and its one receiver's.
func craft(users, slot uint32, seq int64, receivers uint32, count float64) []byte {
	var buf bytes.Buffer
	bw := &binWriter{w: bufio.NewWriter(&buf)}
	bw.u32(snapMagic)
	bw.u32(snapVersion)
	bw.u32(1)    // stripes
	bw.u32(2)    // buckets
	bw.i64(3600) // bucket seconds
	bw.u32(2)    // cities
	bw.i64(5)    // clock
	bw.i64(1)    // ingested
	bw.i64(0)    // dropped
	bw.i64(noSeq)
	bw.u64(0)
	bw.u32(users)
	bw.u32(7) // the user
	bw.u32(1) // live slots
	bw.u32(slot)
	bw.i64(seq)
	bw.f64(count)
	bw.f64(count)
	bw.f64(1) // out amount
	bw.f64(1) // in amount
	bw.u32(receivers)
	bw.u32(8)
	bw.f64(count)
	for range 3 { // senders, out days, in days
		bw.u32(0)
	}
	bw.u8(1)
	bw.i64(5)
	for range 2 {
		bw.i64(noSeq)
	}
	for range 2 * 2 * 2 {
		bw.f64(0)
	}
	bw.w.Flush()
	return buf.Bytes()
}

func craftStore() *Store { return New(WithShards(1), WithWindow(2, 3600), WithCities(2)) }

// TestRestoreRejectsCorrupt: a slot that cannot hold its sequence, a count
// past the bytes behind it and a truncated tail are errors, and a huge
// count allocates nothing in proportion to itself.
func TestRestoreRejectsCorrupt(t *testing.T) {
	if err := craftStore().RestoreState(bytes.NewReader(craft(1, 1, 5, 1, 1))); err != nil {
		t.Fatalf("well-formed snapshot rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"slot != seq%buckets": craft(1, 0, 5, 1, 1),
		"negative seq":        craft(1, 0, -2, 1, 1),
		"users past the end":  craft(1<<31, 1, 5, 1, 1),
		"peers past the end":  craft(1, 1, 5, 1<<31, 1),
		"truncated tail":      craft(1, 1, 5, 1, 1)[:100],
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := craftStore().RestoreState(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: restore allocated %d bytes", name, grew)
		}
	}
}

// TestRestoreCountsAreUint32: a transfer count the window cannot hold as
// a uint32 — fractional, negative, 2^32 or past it, not a number — is an
// error wherever it sits, never truncated; 0 and math.MaxUint32 restore.
func TestRestoreCountsAreUint32(t *testing.T) {
	good := craft(1, 1, 5, 1, 1)
	for _, off := range []int{92, 100, 132} { // out, in and receiver count
		if v := math.Float64frombits(binary.LittleEndian.Uint64(good[off:])); v != 1 {
			t.Fatalf("offset %d holds %v, not a count", off, v)
		}
		for _, v := range []float64{0.5, -1, 1 << 32, 1<<32 + 1, math.MaxUint32 + 0.5, math.NaN(), math.Inf(1)} {
			data := bytes.Clone(good)
			binary.LittleEndian.PutUint64(data[off:], math.Float64bits(v))
			if err := craftStore().RestoreState(bytes.NewReader(data)); err == nil {
				t.Errorf("count %v at offset %d accepted", v, off)
			}
		}
	}
	for _, v := range []float64{0, math.MaxUint32} {
		s := craftStore()
		if err := s.RestoreState(bytes.NewReader(craft(1, 1, 5, 1, v))); err != nil {
			t.Fatalf("count %v rejected: %v", v, err)
		}
		if n, _, _, _ := s.Velocity(7); n != v || s.PairPrior(7, 8) != v {
			t.Fatalf("count %v restored as %v and %v", v, n, s.PairPrior(7, 8))
		}
	}
}

// TestCountsSaturate: a count at the top of uint32 stays there instead of
// wrapping, which would show a hot sender as quiet to a velocity-cap rule,
// and the saturated window snapshots and restores as it reads.
func TestCountsSaturate(t *testing.T) {
	s := craftStore()
	if err := s.RestoreState(bytes.NewReader(craft(1, 1, 5, 1, math.MaxUint32-1))); err != nil {
		t.Fatal(err)
	}
	for i := range 2 { // into user 7's bucket 5, each way
		out := txn.Transaction{ID: txn.TxnID(10 + 2*i), Sec: 5*3600 + 1, From: 7, To: 8, Amount: 1}
		in := txn.Transaction{ID: txn.TxnID(11 + 2*i), Sec: 5*3600 + 2, From: 8, To: 7, Amount: 1}
		s.Ingest(&out)
		s.Ingest(&in)
	}
	outN, _, inN, _ := s.Velocity(7)
	st := s.Stats(7)
	for name, got := range map[string]float64{
		"Velocity out": outN, "Velocity in": inN, "Stats out": st.OutCount, "Stats in": st.InCount,
		"PairPrior": s.PairPrior(7, 8),
	} {
		if got != math.MaxUint32 {
			t.Errorf("%s = %v, want %v", name, got, uint32(math.MaxUint32))
		}
	}
	r := craftStore()
	if err := r.RestoreState(bytes.NewReader(snapshot(t, s))); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, r, 10, "saturated round trip")
}

// FuzzRestoreState: whatever the bytes, RestoreState returns (no panic, no
// runaway allocation), and a store it accepted writes a snapshot that
// restores to the same bytes again.
func FuzzRestoreState(f *testing.F) {
	golden, err := os.ReadFile("testdata/window-v1.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(craft(1, 1, 5, 1, 1))
	f.Add(craft(1, 0, 5, 1, 1))
	f.Add(craft(3, 1, 5, 2, 1))
	f.Add(craft(1, 1, 5, 1, 1)[:90])
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(craft(1, 1, 5, 1, 0.5))
	f.Add(craft(1, 1, 5, 1, 1<<32))
	f.Add(craft(1, 1, 5, 1, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []*Store{craftStore(), goldenStore()} {
			if s.RestoreState(bytes.NewReader(data)) != nil {
				continue
			}
			a := snapshot(t, s)
			r := New(WithShards(s.Shards()), WithWindow(s.Buckets(), s.bucketSecs), WithCities(s.city.cities))
			if err := r.RestoreState(bytes.NewReader(a)); err != nil {
				t.Fatalf("a written snapshot does not restore: %v", err)
			}
			if b := snapshot(t, r); !bytes.Equal(a, b) {
				t.Fatal("accepted state does not round-trip")
			}
		}
	})
}
