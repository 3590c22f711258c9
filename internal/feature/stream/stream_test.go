package stream

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"titant/internal/feature"
	"titant/internal/rng"
	"titant/internal/txn"
)

// genTxns produces days of synthetic traffic in day order: perDay
// transactions per day over the given user and city counts, with ~5%
// fraud labels.
func genTxns(seed uint64, days, perDay, users, cities int) []txn.Transaction {
	r := rng.New(seed)
	ts := make([]txn.Transaction, 0, days*perDay)
	for d := 0; d < days; d++ {
		for i := 0; i < perDay; i++ {
			from := txn.UserID(r.Intn(users))
			to := txn.UserID(r.Intn(users))
			ts = append(ts, txn.Transaction{
				ID:        txn.TxnID(len(ts) + 1),
				Day:       txn.Day(d),
				Sec:       int32(r.Intn(86400)),
				From:      from,
				To:        to,
				Amount:    float32(r.Float64() * 500),
				TransCity: uint16(r.Intn(cities)),
				Fraud:     r.Bool(0.05),
			})
		}
	}
	return ts
}

// windowSlice filters ts to days (endDay-window, endDay].
func windowSlice(ts []txn.Transaction, endDay txn.Day, window int) []txn.Transaction {
	var out []txn.Transaction
	for _, t := range ts {
		if t.Day > endDay-txn.Day(window) && t.Day <= endDay {
			out = append(out, t)
		}
	}
	return out
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareToOracle checks every streaming statistic against batch
// aggregates rebuilt from the same window contents. Counts must match
// exactly; amount sums may differ only by float addition order.
func compareToOracle(t *testing.T, st *Store, oracle *feature.Aggregates, users, cities int) {
	t.Helper()
	for u := 0; u < users; u++ {
		got := st.Stats(txn.UserID(u))
		want := oracle.Stats(txn.UserID(u))
		if got.OutCount != want.OutCount || got.InCount != want.InCount ||
			got.DistinctRcv != want.DistinctRcv || got.DistinctSnd != want.DistinctSnd ||
			got.OutDays != want.OutDays || got.InDays != want.InDays {
			t.Fatalf("user %d stats: stream %+v != batch %+v", u, got, want)
		}
		if !approxEq(got.OutAmount, want.OutAmount) || !approxEq(got.InAmount, want.InAmount) {
			t.Fatalf("user %d amounts: stream %+v != batch %+v", u, got, want)
		}
	}
	for from := 0; from < users; from += 7 {
		for to := 0; to < users; to += 11 {
			got := st.PairPrior(txn.UserID(from), txn.UserID(to))
			want := oracle.PairPrior(txn.UserID(from), txn.UserID(to))
			if got != want {
				t.Fatalf("pair (%d,%d): stream %v != batch %v", from, to, got, want)
			}
		}
	}
	gotCT, wantCT := st.CityTable(), oracle.CityTable()
	for c := 0; c < cities; c++ {
		if gotCT.Fraud[c] != wantCT.Fraud[c] || gotCT.Share[c] != wantCT.Share[c] {
			t.Fatalf("city %d: stream (%v,%v) != batch (%v,%v)",
				c, gotCT.Fraud[c], gotCT.Share[c], wantCT.Fraud[c], wantCT.Share[c])
		}
		f, s := st.Lookup(uint16(c))
		if f != gotCT.Fraud[c] || s != gotCT.Share[c] {
			t.Fatalf("city %d: Lookup (%v,%v) != CityTable (%v,%v)", c, f, s, gotCT.Fraud[c], gotCT.Share[c])
		}
	}
}

// TestOracleMatchesBatch is the window-expiry correctness test: a store
// with the paper's 90-day geometry, fed a 120-day log in order, must
// agree with feature.BuildAggregates recomputed over the trailing 90 days
// — both at the moment the window first fills and again after 30 days of
// expiries.
func TestOracleMatchesBatch(t *testing.T) {
	const (
		days, perDay = 120, 60
		users        = 80
		cities       = 6
		window       = 90
	)
	ts := genTxns(11, days, perDay, users, cities)
	st := New(WithShards(8), WithWindow(window, 86400), WithCities(cities))

	// Phase 1: fill the window exactly (days 0..89).
	next := 0
	for next < len(ts) && ts[next].Day <= 89 {
		st.Ingest(&ts[next])
		next++
	}
	oracle := feature.BuildAggregates(windowSlice(ts, 89, window), cities)
	compareToOracle(t, st, oracle, users, cities)

	// Phase 2: slide 30 days further; days 0..29 must have expired.
	for next < len(ts) {
		st.Ingest(&ts[next])
		next++
	}
	oracle = feature.BuildAggregates(windowSlice(ts, 119, window), cities)
	compareToOracle(t, st, oracle, users, cities)

	if st.Ingested() != int64(len(ts)) {
		t.Fatalf("ingested = %d, want %d", st.Ingested(), len(ts))
	}
	if st.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", st.Dropped())
	}
}

// TestWindowExpiry pins the sliding semantics down on a hand-built case:
// a user active only on day 0 vanishes from every statistic once the
// window slides past, without any explicit eviction call.
func TestWindowExpiry(t *testing.T) {
	st := New(WithWindow(90, 86400), WithCities(2))
	early := txn.Transaction{ID: 1, Day: 0, From: 1, To: 2, Amount: 100, TransCity: 0, Fraud: true}
	st.Ingest(&early)
	if s := st.Stats(1); s.OutCount != 1 || s.DistinctRcv != 1 || s.OutDays != 1 {
		t.Fatalf("stats before expiry = %+v", s)
	}
	if p := st.PairPrior(1, 2); p != 1 {
		t.Fatalf("pair prior = %v", p)
	}

	// Other users' traffic advances the clock to day 95 (via day 50, so
	// each hop stays within one window span): day 0 is now outside the
	// (5, 95] window.
	mid := txn.Transaction{ID: 2, Day: 50, From: 5, To: 6, Amount: 1, TransCity: 1}
	st.Ingest(&mid)
	late := txn.Transaction{ID: 3, Day: 95, From: 3, To: 4, Amount: 5, TransCity: 1}
	st.Ingest(&late)
	if s := st.Stats(1); s != (feature.UserStats{}) {
		t.Fatalf("stats after expiry = %+v, want zero", s)
	}
	if s := st.Stats(2); s != (feature.UserStats{}) {
		t.Fatalf("receiver stats after expiry = %+v, want zero", s)
	}
	if p := st.PairPrior(1, 2); p != 0 {
		t.Fatalf("pair prior after expiry = %v", p)
	}
	// City 0's fraud must have left the table: only city 1's clean txn
	// remains, so city 0 reads the smoothed prior and zero share.
	f, share := st.Lookup(0)
	if want := feature.CitySmoothing * feature.CityFraudPrior / feature.CitySmoothing; f != want || share != 0 {
		t.Fatalf("city 0 after expiry = (%v, %v), want (%v, 0)", f, share, want)
	}
}

// TestTooOldDropped: a transaction older than the whole window must be
// rejected, counted, and must not corrupt newer buckets that share its
// ring slot.
func TestTooOldDropped(t *testing.T) {
	st := New(WithWindow(10, 86400), WithCities(2))
	now := txn.Transaction{ID: 1, Day: 200, From: 1, To: 2, Amount: 50}
	st.Ingest(&now)
	// Day 190 shares ring slot 190%10 == 0 with day 200.
	stale := txn.Transaction{ID: 2, Day: 190, From: 1, To: 3, Amount: 999}
	st.Ingest(&stale)
	if st.Dropped() != 1 || st.Ingested() != 1 {
		t.Fatalf("dropped=%d ingested=%d, want 1/1", st.Dropped(), st.Ingested())
	}
	if s := st.Stats(1); s.OutCount != 1 || s.OutAmount != 50 {
		t.Fatalf("stats corrupted by stale ingest: %+v", s)
	}
}

// TestConcurrentIngestRead hammers the store from writer and reader
// goroutines simultaneously; under -race this is the striping-correctness
// test the CI race job runs.
func TestConcurrentIngestRead(t *testing.T) {
	const (
		writers, readers = 4, 4
		opsPerWriter     = 3000
		users            = 200
		cities           = 8
	)
	st := New(WithShards(8), WithWindow(30, 3600), WithCities(cities))
	var writerWG, readerWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed uint64) {
			defer writerWG.Done()
			r := rng.New(seed)
			for i := 0; i < opsPerWriter; i++ {
				tx := txn.Transaction{
					ID:        txn.TxnID(i),
					Day:       txn.Day(i / 200),
					Sec:       int32(r.Intn(86400)),
					From:      txn.UserID(r.Intn(users)),
					To:        txn.UserID(r.Intn(users)),
					Amount:    float32(r.Float64() * 100),
					TransCity: uint16(r.Intn(cities)),
					Fraud:     r.Bool(0.1),
				}
				st.Ingest(&tx)
			}
		}(uint64(w + 1))
	}
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(seed uint64) {
			defer readerWG.Done()
			r := rng.New(seed)
			for {
				select {
				case <-done:
					return
				default:
				}
				u := txn.UserID(r.Intn(users))
				_ = st.Stats(u)
				_ = st.PairPrior(u, txn.UserID(r.Intn(users)))
				_, _ = st.Lookup(uint16(r.Intn(cities)))
				_ = st.CityTable()
			}
		}(uint64(100 + rd))
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()
	if got := st.Ingested() + st.Dropped(); got != writers*opsPerWriter {
		t.Fatalf("ingested+dropped = %d, want %d", got, writers*opsPerWriter)
	}
}

// TestFutureTimestampCannotBrickStore: a single absurd future timestamp
// must not advance the window clock — otherwise all subsequent real
// traffic would be dropped forever, since the clock is monotonic.
func TestFutureTimestampCannotBrickStore(t *testing.T) {
	st := New(WithWindow(90, 86400), WithCities(2))
	for d := 0; d < 3; d++ {
		tx := txn.Transaction{ID: txn.TxnID(d), Day: txn.Day(d), From: 1, To: 2, Amount: 10}
		st.Ingest(&tx)
	}
	poison := txn.Transaction{ID: 99, Day: 1 << 30, From: 7, To: 8, Amount: 1}
	st.Ingest(&poison)
	if st.Dropped() != 1 {
		t.Fatalf("poison not dropped: dropped=%d", st.Dropped())
	}
	if s := st.Stats(7); s != (feature.UserStats{}) {
		t.Fatalf("poison reached the window: %+v", s)
	}
	// Real traffic keeps flowing and the early history is intact.
	tx := txn.Transaction{ID: 100, Day: 3, From: 1, To: 2, Amount: 10}
	st.Ingest(&tx)
	if s := st.Stats(1); s.OutCount != 4 {
		t.Fatalf("store bricked by poison timestamp: %+v", s)
	}
	// An unrelated second garbage value must not corroborate the first.
	poison2 := txn.Transaction{ID: 101, Day: 1 << 20, From: 7, To: 8, Amount: 1}
	st.Ingest(&poison2)
	if s := st.Stats(1); s.OutCount != 4 {
		t.Fatalf("mismatched garbage corroborated a jump: %+v", s)
	}
	// Nor must an exact duplicate (the classic HTTP retry): corroboration
	// requires a distinct transaction.
	for i := 0; i < 3; i++ {
		dup := poison2
		st.Ingest(&dup)
	}
	if s := st.Stats(7); s != (feature.UserStats{}) {
		t.Fatalf("retried duplicate corroborated its own jump: %+v", s)
	}
	later := txn.Transaction{ID: 102, Day: 4, From: 1, To: 2, Amount: 10}
	st.Ingest(&later)
	if s := st.Stats(1); s.OutCount != 5 {
		t.Fatalf("store bricked after duplicate poison: %+v", s)
	}
}

// TestNegativeTimestampDropped: malformed wire input (negative day/sec)
// must be shed as a drop, not index the rings with a negative modulo —
// the panic would fire while Ingest holds shard locks and brick the
// stripes.
func TestNegativeTimestampDropped(t *testing.T) {
	st := New(WithWindow(90, 86400), WithCities(2))
	bad := txn.Transaction{ID: 1, Day: 0, Sec: -100000, From: 1, To: 2, Amount: 5}
	st.Ingest(&bad)
	worse := txn.Transaction{ID: 2, Day: -1000, From: 1, To: 2, Amount: 5}
	st.Ingest(&worse)
	if st.Dropped() != 2 || st.Ingested() != 0 {
		t.Fatalf("dropped=%d ingested=%d, want 2/0", st.Dropped(), st.Ingested())
	}
	// The store remains fully functional.
	ok := txn.Transaction{ID: 3, Day: 0, Sec: 10, From: 1, To: 2, Amount: 5}
	st.Ingest(&ok)
	if s := st.Stats(1); s.OutCount != 1 {
		t.Fatalf("store unusable after malformed input: %+v", s)
	}
}

// TestOutOfRangeDayDropped: a day past int32 cannot be kept or written to
// a snapshot (days travel as u32), so it is shed as a drop. Kept, it
// would share a bucket with the day it aliases and restore as one active
// day too few.
func TestOutOfRangeDayDropped(t *testing.T) {
	newStore := func() *Store { return New(WithShards(1), WithWindow(2, 1<<50), WithCities(2)) }
	st := newStore()
	ok := txn.Transaction{ID: 1, Day: 5, From: 1, To: 2, Amount: 5}
	bad := txn.Transaction{ID: 2, Day: 1<<32 + 5, From: 1, To: 2, Amount: 5}
	st.Ingest(&ok)
	st.Ingest(&bad)
	if st.Dropped() != 1 || st.Ingested() != 1 {
		t.Fatalf("dropped=%d ingested=%d, want 1/1", st.Dropped(), st.Ingested())
	}
	var buf bytes.Buffer
	if err := st.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	r := newStore()
	if err := r.RestoreState(&buf); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, r, 3, "after restore")
}

// TestIdleGapRecovers: a genuine gap longer than the window (daemon idle,
// traffic resumes) is accepted once a second transaction corroborates the
// new epoch.
func TestIdleGapRecovers(t *testing.T) {
	st := New(WithWindow(90, 86400), WithCities(2))
	early := txn.Transaction{ID: 1, Day: 0, From: 1, To: 2, Amount: 10}
	st.Ingest(&early)
	// First transaction after the gap is shed while the store waits for
	// corroboration...
	r1 := txn.Transaction{ID: 2, Day: 500, From: 3, To: 4, Amount: 5}
	st.Ingest(&r1)
	if st.Dropped() != 1 || st.Stats(3).OutCount != 0 {
		t.Fatalf("first post-gap txn should be shed: dropped=%d", st.Dropped())
	}
	// ...and the second one through confirms the new epoch.
	r2 := txn.Transaction{ID: 3, Day: 501, From: 3, To: 4, Amount: 7}
	st.Ingest(&r2)
	if s := st.Stats(3); s.OutCount != 1 || s.OutAmount != 7 {
		t.Fatalf("resumed stream not accepted: %+v", s)
	}
	if s := st.Stats(1); s != (feature.UserStats{}) {
		t.Fatalf("pre-gap history survived a 500-day slide: %+v", s)
	}
}

// TestExpiredUsersEvicted: users whose whole window has expired are
// dropped from the shard maps by the opportunistic per-ingest probe, so a
// long-running store's memory tracks the active set.
func TestExpiredUsersEvicted(t *testing.T) {
	st := New(WithShards(1), WithWindow(4, 86400), WithCities(2))
	// 50 users transact on day 0 only.
	for u := 0; u < 50; u++ {
		tx := txn.Transaction{ID: txn.TxnID(u), Day: 0, From: txn.UserID(u), To: txn.UserID(u), Amount: 1}
		st.Ingest(&tx)
	}
	// Slide far past their window (in-window hops), then keep two users
	// chatting long enough for the eviction probes to sweep the shard.
	for d := 1; d <= 8; d += 2 {
		tx := txn.Transaction{ID: txn.TxnID(1000 + d), Day: txn.Day(d), From: 100, To: 101, Amount: 1}
		st.Ingest(&tx)
	}
	for i := 0; i < 2000; i++ {
		tx := txn.Transaction{ID: txn.TxnID(2000 + i), Day: 8, Sec: int32(i), From: 100, To: 101, Amount: 1}
		st.Ingest(&tx)
	}
	st.shards[0].mu.RLock()
	n := len(st.shards[0].users)
	st.shards[0].mu.RUnlock()
	// Only the two active users (and possibly a straggler the random
	// probe hasn't hit yet) should remain of the 52 ever seen.
	if n > 5 {
		t.Fatalf("%d users resident after expiry, want ~2: eviction not working", n)
	}
	if s := st.Stats(100); s.OutCount == 0 {
		t.Fatal("active user evicted")
	}
}

// TestShardDistribution checks the user-to-stripe hash spreads sequential
// IDs (the common case: dense synthetic user IDs) evenly enough that no
// stripe becomes a hot spot.
func TestShardDistribution(t *testing.T) {
	const users = 10000
	st := New(WithShards(16), WithWindow(4, 86400))
	for u := 0; u < users; u++ {
		tx := txn.Transaction{ID: txn.TxnID(u), Day: 0, From: txn.UserID(u), To: txn.UserID(u), Amount: 1}
		st.Ingest(&tx)
	}
	mean := float64(users) / float64(st.Shards())
	for i := range st.shards {
		n := float64(len(st.shards[i].users))
		if n < mean/2 || n > mean*2 {
			t.Fatalf("shard %d holds %v users, mean %v: distribution skewed", i, n, mean)
		}
	}
}

// TestOptions pins the option clamping: invalid values keep defaults and
// shard counts round up to powers of two.
func TestOptions(t *testing.T) {
	st := New()
	if st.Shards() != DefaultShards || st.Buckets() != DefaultBuckets ||
		st.bucketSecs != DefaultBucketSeconds {
		t.Fatalf("defaults: shards=%d buckets=%d secs=%d", st.Shards(), st.Buckets(), st.bucketSecs)
	}
	st = New(WithShards(3), WithWindow(7, 60), WithCities(0))
	if st.Shards() != 4 {
		t.Fatalf("shards = %d, want 4 (rounded up)", st.Shards())
	}
	if st.Buckets() != 7 || st.bucketSecs != 60 {
		t.Fatalf("window: %d x %ds", st.Buckets(), st.bucketSecs)
	}
	st = New(WithShards(0), WithWindow(0, 0))
	if st.Shards() != DefaultShards || st.Buckets() != DefaultBuckets {
		t.Fatal("invalid option values must keep defaults")
	}
}

// TestEmptyStoreReads: every read on a never-ingested store returns the
// same zero values the empty batch aggregates produce.
func TestEmptyStoreReads(t *testing.T) {
	st := New(WithCities(3))
	empty := feature.BuildAggregates(nil, 3)
	if st.Stats(1) != empty.Stats(1) {
		t.Fatal("empty stats differ")
	}
	if st.PairPrior(1, 2) != 0 {
		t.Fatal("empty pair prior")
	}
	got, want := st.CityTable(), empty.CityTable()
	for c := range want.Fraud {
		if got.Fraud[c] != want.Fraud[c] || got.Share[c] != want.Share[c] {
			t.Fatalf("empty city %d: (%v,%v) != (%v,%v)", c, got.Fraud[c], got.Share[c], want.Fraud[c], want.Share[c])
		}
	}
}

// TestVelocityMatchesStats pins the allocation-free velocity read to the
// exact Stats oracle: the count/amount terms must agree bitwise for
// every user, including after window expiry, and the read itself must
// not allocate.
func TestVelocityMatchesStats(t *testing.T) {
	s := New(WithWindow(5, 86400), WithCities(8))
	ts := genTxns(31, 9, 300, 40, 8) // 9 days through a 5-day window: expiry exercised
	s.IngestBatch(ts)
	for u := txn.UserID(0); u < 40; u++ {
		st := s.Stats(u)
		oc, oa, ic, ia := s.Velocity(u)
		if oc != st.OutCount || oa != st.OutAmount || ic != st.InCount || ia != st.InAmount {
			t.Fatalf("user %d: Velocity = (%g,%g,%g,%g), Stats = %+v", u, oc, oa, ic, ia, st)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { s.Velocity(7) }); avg != 0 {
		t.Fatalf("Velocity allocates %.1f per call", avg)
	}
}
