package ms

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"titant/internal/feature/stream"
	"titant/internal/rng"
	"titant/internal/txn"
)

// sameVerdict compares everything observable about two verdicts except
// latency (which is wall-clock). Scores must be bitwise equal: the cache
// stores the fragments a store read yields (the embedding as the store's
// own bytes), so a cached read feeds the model the exact float bits an
// uncached read would.
func sameVerdict(t *testing.T, ctxLabel string, a, b Verdict) {
	t.Helper()
	if a.TxnID != b.TxnID || a.Score != b.Score || a.Fraud != b.Fraud || a.Version != b.Version {
		t.Fatalf("%s: cached %+v != uncached %+v", ctxLabel, a, b)
	}
	if len(a.Members) != len(b.Members) {
		t.Fatalf("%s: member breakdown differs", ctxLabel)
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("%s: member %d differs: %+v vs %+v", ctxLabel, i, a.Members[i], b.Members[i])
		}
	}
}

// TestCachedScoreOracle is the acceptance oracle: a cached engine and an
// uncached engine over the same store must produce bitwise-identical
// verdicts through Score and ScoreBatch — including immediately after a
// PutUser republication (exact invalidation) and live ingest (negative
// invalidation), with repeated rounds so hits, misses, negative entries
// and re-loads all get exercised.
func TestCachedScoreOracle(t *testing.T) {
	tab := table(t)
	bundle := trainToy(t, 4)
	// Each engine ingests into its own window so the live city statistics
	// evolve identically on both sides.
	stA := stream.New(stream.WithCities(2))
	stB := stream.New(stream.WithCities(2))
	cached, err := New(tab, bundle, WithUserCache(1024),
		WithStreamAggregates(stA), WithStreamWarmup(5))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(tab, bundle, WithStreamAggregates(stB), WithStreamWarmup(5))
	if err != nil {
		t.Fatal(err)
	}
	up := &Uploader{Table: tab, Invalidate: cached.InvalidateUser}
	r := rng.New(13)
	emb := func(seed int) []float32 {
		e := make([]float32, 4)
		for j := range e {
			e[j] = float32(seed%7) - float32(j)
		}
		return e
	}
	for i := txn.UserID(0); i < 40; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i%40), HomeCity: uint16(i % 2), AvgAmount: float32(10 * i)}
		if err := up.PutUser(&u, emb(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	randTxn := func(id int) txn.Transaction {
		// Half the traffic names user 50+: absent from the store, so the
		// negative-cache path serves them.
		return txn.Transaction{
			ID:   txn.TxnID(id),
			From: txn.UserID(r.Intn(60)), To: txn.UserID(r.Intn(60)),
			Amount: float32(r.Float64() * 2000), TransCity: uint16(r.Intn(2)),
		}
	}
	compare := func(label string, txs []txn.Transaction) {
		t.Helper()
		for i := range txs {
			va, ea := cached.Score(ctx, &txs[i])
			vb, eb := plain.Score(ctx, &txs[i])
			if ea != nil || eb != nil {
				t.Fatalf("%s: score errors %v / %v", label, ea, eb)
			}
			sameVerdict(t, label, va, vb)
		}
		ba, ea := cached.ScoreBatch(ctx, txs)
		bb, eb := plain.ScoreBatch(ctx, txs)
		if ea != nil || eb != nil {
			t.Fatalf("%s: batch errors %v / %v", label, ea, eb)
		}
		for i := range ba {
			sameVerdict(t, label+"/batch", ba[i], bb[i])
		}
	}

	round := func(id int) []txn.Transaction {
		txs := make([]txn.Transaction, 30)
		for i := range txs {
			txs[i] = randTxn(id + i)
		}
		return txs
	}
	compare("cold", round(0))
	compare("warm", round(100)) // second round: cache hits dominate

	// Republication: change users the cache has already served. The
	// Uploader's Invalidate hook must make the very next score see it.
	for i := txn.UserID(0); i < 40; i += 3 {
		u := txn.User{ID: i, Age: uint8(60 + i%20), HomeCity: uint16((i + 1) % 2), AvgAmount: 999}
		if err := up.PutUser(&u, emb(int(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	compare("after-putuser", round(200))

	// Live ingest: both engines absorb the same traffic; verdicts must
	// track the identical live city statistics, and negative entries for
	// the ingested endpoints are dropped on the cached side.
	for i := 0; i < 50; i++ {
		tx := randTxn(300 + i)
		tx.Fraud = i%9 == 0
		if err := cached.Ingest(&tx); err != nil {
			t.Fatal(err)
		}
		if err := plain.Ingest(&tx); err != nil {
			t.Fatal(err)
		}
	}
	compare("after-ingest", round(400))

	// An uploaded user that was previously a negative entry must appear.
	u := txn.User{ID: 55, Age: 33, HomeCity: 1, AvgAmount: 70}
	if err := up.PutUser(&u, emb(55)); err != nil {
		t.Fatal(err)
	}
	compare("after-coldstart-upload", round(500))

	st := cached.UserCacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("oracle exercised no cache machinery: %+v", st)
	}
}

// TestCacheStrictNegative pins the strict-users policy across the
// negative cache: the second miss is served from the cache and must
// still fail with ErrUserNotFound.
func TestCacheStrictNegative(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	u := txn.User{ID: 1}
	_ = up.PutUser(&u, nil)
	srv, err := New(tab, trainToy(t, 0), WithStrictUsers(), WithUserCache(64))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 404, Amount: 10}
	for i := 0; i < 2; i++ {
		if _, err := srv.Score(context.Background(), &tx); !errors.Is(err, ErrUserNotFound) {
			t.Fatalf("round %d: err = %v, want ErrUserNotFound", i, err)
		}
		if _, err := srv.ScoreBatch(context.Background(), []txn.Transaction{tx}); !errors.Is(err, ErrUserNotFound) {
			t.Fatalf("round %d: batch err = %v, want ErrUserNotFound", i, err)
		}
	}
	if st := srv.UserCacheStats(); st.Negatives == 0 {
		t.Fatalf("strict misses never hit the negative cache: %+v", st)
	}
}

// TestCacheHotSwapPurges pins the bundle-swap invalidation rule: after
// SetBundle the cache restarts empty.
func TestCacheHotSwapPurges(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, trainToy(t, 0), WithUserCache(64))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 10}
	if _, err := srv.Score(context.Background(), &tx); err != nil {
		t.Fatal(err)
	}
	if st := srv.UserCacheStats(); st.Size == 0 {
		t.Fatalf("nothing cached: %+v", st)
	}
	if err := srv.SetBundle(trainToy(t, 0)); err != nil {
		t.Fatal(err)
	}
	if st := srv.UserCacheStats(); st.Size != 0 {
		t.Fatalf("cache survived hot swap: %+v", st)
	}
}

// TestStatsEndpointUserCache pins the /v1/stats surface: the user_cache
// object appears exactly when the engine has a cache, with live counters.
func TestStatsEndpointUserCache(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, trainToy(t, 0), WithUserCache(64))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 10}
	if _, err := srv.Score(context.Background(), &tx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Score(context.Background(), &tx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		UserCache *struct {
			Hits     int64 `json:"hits"`
			Misses   int64 `json:"misses"`
			Size     int   `json:"size"`
			Capacity int   `json:"capacity"`
		} `json:"user_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.UserCache == nil {
		t.Fatalf("no user_cache in %s", rec.Body)
	}
	if body.UserCache.Hits == 0 || body.UserCache.Misses == 0 || body.UserCache.Size != 2 || body.UserCache.Capacity < 64 {
		t.Fatalf("user_cache = %+v", body.UserCache)
	}

	// Without a cache the key is absent.
	plain, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if strings.Contains(rec.Body.String(), "user_cache") {
		t.Fatalf("cacheless engine reports user_cache: %s", rec.Body)
	}
}
