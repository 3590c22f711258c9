package ms

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

const shardTestUsers = 60

// userSink is the upload surface shared by Uploader and ShardedUploader.
type userSink interface {
	PutUser(u *txn.User, emb []float32) error
}

// seedShardUsers uploads a deterministic population through any sink, so
// a single table and a partitioned store can be populated identically.
func seedShardUsers(t testing.TB, sink userSink) {
	t.Helper()
	for i := txn.UserID(0); i < shardTestUsers; i++ {
		u := txn.User{
			ID: i, Age: uint8(20 + int(i)%40), HomeCity: uint16(i % 4),
			AccountAge: txn.AccountAgeDays(30 * int(i)), AvgAmount: float32(10 + i),
		}
		if err := sink.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func shardTables(t testing.TB, n int) []*hbase.Table {
	t.Helper()
	tabs := make([]*hbase.Table, n)
	for i := range tabs {
		tabs[i] = table(t)
	}
	return tabs
}

// shardTxns draws a deterministic traffic sample over the test users.
func shardTxns(n int, seed uint64) []txn.Transaction {
	r := rng.New(seed)
	txns := make([]txn.Transaction, n)
	for i := range txns {
		txns[i] = txn.Transaction{
			ID: txn.TxnID(i + 1), Day: 1, Sec: int32(i % 86400),
			From: txn.UserID(r.Intn(shardTestUsers)), To: txn.UserID(r.Intn(shardTestUsers)),
			Amount: float32(r.Float64() * 2000), TransCity: uint16(r.Intn(4)),
		}
	}
	return txns
}

// buildSharded populates a fresh n-table store and builds the engine over
// it with a private stream store, mirroring newReference below.
func buildSharded(t *testing.T, n int, b *Bundle, extra ...Option) *Server {
	t.Helper()
	tabs := shardTables(t, n)
	seedShardUsers(t, NewShardedUploader(tabs, 0))
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	opts := append([]Option{WithStreamAggregates(st), WithUserCache(256)}, extra...)
	se, err := NewSharded(tabs, b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	return se
}

func newReference(t *testing.T, b *Bundle) *Server {
	t.Helper()
	tab := table(t)
	seedShardUsers(t, &Uploader{Table: tab})
	st := stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))
	srv, err := New(tab, b, WithStreamAggregates(st), WithUserCache(256))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestShardOf(t *testing.T) {
	if got := ShardOf(42, 1); got != 0 {
		t.Fatalf("ShardOf(42, 1) = %d", got)
	}
	// Stable, in range, and non-degenerate.
	hit := make(map[int]int)
	for u := txn.UserID(0); u < 10000; u++ {
		s := ShardOf(u, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", u, s)
		}
		if s != ShardOf(u, 8) {
			t.Fatalf("ShardOf(%d, 8) unstable", u)
		}
		hit[s]++
	}
	for s := 0; s < 8; s++ {
		if hit[s] < 10000/8/2 {
			t.Fatalf("shard %d owns only %d of 10000 users", s, hit[s])
		}
	}
	// Jump hashing: growing the ring only moves users onto new shards —
	// a user never relocates between two surviving shards.
	for u := txn.UserID(0); u < 10000; u++ {
		s4, s5 := ShardOf(u, 4), ShardOf(u, 5)
		if s4 != s5 && s5 != 4 {
			t.Fatalf("user %d moved %d -> %d when shard 4 was added", u, s4, s5)
		}
	}
}

// sameScores fails unless got is want, verdict for verdict and bit for bit.
func sameScores(t *testing.T, name string, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].TxnID != want[i].TxnID {
			t.Fatalf("%s: verdict %d out of order: txn %d", name, i, got[i].TxnID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			got[i].Fraud != want[i].Fraud || got[i].Version != want[i].Version {
			t.Fatalf("%s: verdict %d (txn %d): %+v != reference %+v", name, i, want[i].TxnID, got[i], want[i])
		}
	}
}

// TestShardedRebalanceBitwise is the resharding correctness proof: the
// same world partitioned 1 to 8 ways must produce bit-identical scores
// for identical traffic. A row reads the same from whichever table holds
// it and nothing else in the engine depends on the width, so the verdict
// function is independent of the partition count by construction.
func TestShardedRebalanceBitwise(t *testing.T) {
	b := trainToy(t, 0)
	ref := newReference(t, b)
	warm := shardTxns(300, 11)
	if err := ref.IngestBatch(warm); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txns := shardTxns(400, 7)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 8; n++ {
		se := buildSharded(t, n, b)
		if err := se.IngestBatch(warm); err != nil {
			t.Fatal(err)
		}
		got, err := se.ScoreBatch(ctx, txns)
		if err != nil {
			t.Fatalf("%d tables: %v", n, err)
		}
		sameScores(t, fmt.Sprintf("%d tables", n), got, want)
	}
}

// TestShardedSingleShardIdentical: NewSharded over one table is New over
// that table, bit for bit.
func TestShardedSingleShardIdentical(t *testing.T) {
	b := trainToy(t, 0)
	tab := table(t)
	seedShardUsers(t, &Uploader{Table: tab})
	ref, err := New(tab, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	se, err := NewSharded([]*hbase.Table{tab}, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	if n := se.Stats().Shards; n != 1 {
		t.Fatalf("shards = %d", n)
	}

	ctx := context.Background()
	txns := shardTxns(200, 3)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "one table", got, want)
}

// TestShardedBatchMatchesSingles: a batch over a partitioned store keeps
// input order and agrees with the single-transaction path on the same
// engine.
func TestShardedBatchMatchesSingles(t *testing.T) {
	se := buildSharded(t, 4, trainToy(t, 0))
	ctx := context.Background()
	txns := shardTxns(250, 5)
	verdicts, err := se.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range txns {
		if verdicts[i].TxnID != txns[i].ID {
			t.Fatalf("verdict %d out of order: txn %d", i, verdicts[i].TxnID)
		}
		want, err := se.Score(ctx, &txns[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(verdicts[i].Score) != math.Float64bits(want.Score) {
			t.Fatalf("verdict %d: batch %v != single %v", i, verdicts[i].Score, want.Score)
		}
	}
	if st := se.Stats(); st.Scored != int64(2*len(txns)) || st.LatencyHist.Total() != st.Scored {
		t.Fatalf("scored = %d over %d latency samples, want %d", st.Scored, st.LatencyHist.Total(), 2*len(txns))
	}
}

func TestShardedBatchLimit(t *testing.T) {
	se := buildSharded(t, 2, trainToy(t, 0), WithMaxBatch(4))
	ctx := context.Background()
	if v, err := se.ScoreBatch(ctx, nil); err != nil || v != nil {
		t.Fatalf("empty batch: %v, %v", v, err)
	}
	if _, err := se.ScoreBatch(ctx, make([]txn.Transaction, 5)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
}

// TestShardedNoTornSwap: concurrent batches never observe a torn
// SetBundle/SetPolicy — all verdicts in one batch carry one bundle
// version, all decisions one policy version.
func TestShardedNoTornSwap(t *testing.T) {
	b1 := trainToy(t, 0)
	se := buildSharded(t, 3, b1, WithPolicy(decidePolicy(t)))
	b2 := *b1
	b2.Version = "2017-04-17"

	ctx := context.Background()
	txns := shardTxns(64, 9)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ds, err := se.DecideBatch(ctx, txns, nil)
			if err != nil {
				t.Errorf("DecideBatch during swap: %v", err)
				return
			}
			for i := range ds {
				if ds[i].Version != ds[0].Version || ds[i].PolicyVersion != ds[0].PolicyVersion {
					t.Errorf("torn swap: decision 0 under %q/%q, decision %d under %q/%q",
						ds[0].Version, ds[0].PolicyVersion, i, ds[i].Version, ds[i].PolicyVersion)
					return
				}
			}
		}
	}()
	p2 := decidePolicy(t)
	p2.Version = "pol-2"
	for i := 0; i < 20; i++ {
		// A fresh copy per swap: publishing validates the bundle, which
		// must not be the object the scoring goroutine is reading.
		nb, np := *b1, decidePolicy(t)
		if i%2 == 0 {
			nb, np = b2, p2
		}
		if err := se.SetBundle(&nb); err != nil {
			t.Fatal(err)
		}
		if err := se.SetPolicy(np); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if err := se.SetBundle(&b2); err != nil {
		t.Fatal(err)
	}
	if err := se.SetPolicy(decidePolicy(t)); err != nil {
		t.Fatal(err)
	}
	before := se.Stats().Policy.Decided
	ds, err := se.DecideBatch(ctx, txns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Version != "2017-04-17" || ds[0].PolicyVersion != "pol-1" {
		t.Fatalf("after the swaps a batch decides under %q/%q", ds[0].Version, ds[0].PolicyVersion)
	}
	if pol := se.Stats().Policy; pol.Decided-before != int64(len(txns)) || pol.Version != "pol-1" {
		t.Fatalf("policy section = %+v, want %d more decided under pol-1", pol, len(txns))
	}
}

// TestShardedQuotaNotMultiplied: a caller quota admits the same count at
// every width — N tables must not multiply a caller's budget by N.
func TestShardedQuotaNotMultiplied(t *testing.T) {
	ctx := context.Background()
	txns := shardTxns(1, 23)
	for _, n := range []int{1, 4, 8} {
		se := buildSharded(t, n, trainToy(t, 0), WithCallerQuota(1e-9, 5))
		if !se.Health().Admission {
			t.Fatalf("%d tables: /healthz reports admission off", n)
		}
		admitted := 0
		for i := 0; i < 20; i++ {
			_, err := se.ScoreBatch(ctx, txns)
			switch {
			case err == nil:
				admitted++
			case !errors.Is(err, ErrRateLimited):
				t.Fatalf("%d tables: %v", n, err)
			}
		}
		if admitted != 5 {
			t.Fatalf("%d tables: a burst of 5 admitted %d", n, admitted)
		}
		if as := se.Stats().Admission; as.Admitted != 5 || as.ShedQuota != 15 {
			t.Fatalf("%d tables: admission stats = %+v", n, as)
		}
	}
}

// TestShardedStats: the stats body of a partitioned engine is one
// engine's — every counter once, the one cache at its configured
// capacity — with the store's width as the shard count.
func TestShardedStats(t *testing.T) {
	se := buildSharded(t, 3, trainToy(t, 0), WithCallerQuota(1000, 1000))
	ctx := context.Background()
	txns := shardTxns(90, 13)
	if _, err := se.ScoreBatch(ctx, txns); err != nil {
		t.Fatal(err)
	}
	st := se.Stats()
	if st.Scored != int64(len(txns)) {
		t.Fatalf("scored = %d, want %d", st.Scored, len(txns))
	}
	if st.Shards != 3 {
		t.Fatalf("shards = %d, want 3", st.Shards)
	}
	if got := st.LatencyHist.Total(); got != int64(len(txns)) {
		t.Fatalf("histogram holds %d samples, want %d", got, len(txns))
	}
	cs := se.UserCacheStats()
	if st.UserCache.Capacity != cs.Capacity || cs.Capacity != 256 {
		t.Fatalf("cache capacity = %d (stats %d), want 256", cs.Capacity, st.UserCache.Capacity)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	if st.Admission.Admitted != int64(len(txns)) {
		t.Fatalf("admitted = %d, want %d", st.Admission.Admitted, len(txns))
	}
	if h := se.Health(); h.Shards != 3 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

// TestShardedIngestRouting: ingest lands in the one window at any width,
// and the live signal reaches scoring exactly as it does over one table.
func TestShardedIngestRouting(t *testing.T) {
	b := trainToy(t, 0)
	ref := newReference(t, b)
	warm := shardTxns(120, 17)
	for i := range warm {
		if err := ref.Ingest(&warm[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	txns := shardTxns(100, 19)
	want, err := ref.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 8; n++ {
		se := buildSharded(t, n, b)
		if err := se.IngestBatch(warm); err != nil {
			t.Fatal(err)
		}
		if got, want := *se.Stats().Ingested, ref.Ingested(); got != want {
			t.Fatalf("%d tables: ingested %d, one table %d", n, got, want)
		}
		got, err := se.ScoreBatch(ctx, txns)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, fmt.Sprintf("%d tables after ingest", n), got, want)
	}
}

// TestShardedUploaderInvalidation: a live re-publication through the
// engine's uploader is visible to the next score.
func TestShardedUploaderInvalidation(t *testing.T) {
	se := buildSharded(t, 3, trainToy(t, 0))
	ctx := context.Background()
	tr := txn.Transaction{ID: 1, From: 7, To: 8, Amount: 500}
	stale, err := se.Score(ctx, &tr) // warms the cache with user 7
	if err != nil {
		t.Fatal(err)
	}
	// Re-publish user 7 with a different profile (version 0 = auto: a
	// fresh wall-clock version that supersedes the seed wave's).
	u := txn.User{ID: 7, Age: 75, HomeCity: 1, AvgAmount: 9000}
	if err := se.Uploader(0).PutUser(&u, nil); err != nil {
		t.Fatal(err)
	}
	parts, err := se.fetchOne(7)
	if err != nil {
		t.Fatal(err)
	}
	if parts.user.Age != 75 {
		t.Fatalf("stale fragments after re-publication: %+v", parts.user)
	}
	// The fresh profile scores as it does on an engine that never cached
	// the old one.
	cold, err := NewSharded(se.tables, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cold.Close)
	got, err := se.Score(ctx, &tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Score(ctx, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("score after re-publication %v, uncached engine %v (before: %v)", got.Score, want.Score, stale.Score)
	}
}

// TestShardedAllocsFlatInWidth: partitioning the store costs a batch no
// allocation. A warm 256-transaction ScoreBatch allocates the same at
// every width — the cache answers before any table is picked — and so
// does one with the cache off, where every user is read from its owner
// table: the miss list is sorted in place in the batch's pooled scratch
// and each table's rows are read straight into their users' slots.
func TestShardedAllocsFlatInWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	ctx := context.Background()
	txns := shardTxns(256, 29)
	b := trainToy(t, 0)
	allocs := func(n int, opts ...Option) float64 {
		tabs := shardTables(t, n)
		seedShardUsers(t, NewShardedUploader(tabs, 0))
		se, err := NewSharded(tabs, b, append(opts, WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(se.Close)
		return testing.AllocsPerRun(50, func() {
			if _, err := se.ScoreBatch(ctx, txns); err != nil {
				t.Fatal(err)
			}
		})
	}
	warm, cold := allocs(1, WithUserCache(256)), allocs(1)
	for _, n := range []int{2, 4, 8} {
		if got := allocs(n, WithUserCache(256)); got != warm {
			t.Errorf("warm batch over %d tables: %.0f allocs, over one table %.0f", n, got, warm)
		}
		if got := allocs(n); got != cold {
			t.Errorf("uncached batch over %d tables: %.0f allocs, over one table %.0f", n, got, cold)
		}
	}
	t.Logf("256 transactions over one table: %.0f allocs warm, %.0f uncached", warm, cold)
}
