package ms

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/model"
	"titant/internal/model/lr"
	"titant/internal/rng"
	"titant/internal/txn"
)

// trainToy returns a tiny trained LR bundle: fraud iff amount feature high.
func trainToy(t testing.TB, embDim int) *Bundle {
	t.Helper()
	r := rng.New(1)
	n := 2000
	width := feature.NumBasic + 2*embDim
	m := feature.NewMatrix(n, width)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		// Mirror BasicFromParts: feature 0 is the amount, feature 1 its
		// log1p, so serve-time vectors match the training distribution.
		amt := r.Float64() * 2000
		m.Set(i, 0, amt)
		m.Set(i, 1, math.Log1p(amt))
		labels[i] = amt > 1200 && r.Bool(0.9)
	}
	clf := lr.Train(m, labels, lr.Config{Bins: 32, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 10, Seed: 1})
	city := feature.CityTable{Fraud: []float64{0.01, 0.2}, Share: []float64{0.9, 0.1}}
	b, err := NewBundle("2017-04-10", clf, 0.5, city, embDim)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func table(t testing.TB) *hbase.Table {
	t.Helper()
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab
}

func TestBundleRoundTrip(t *testing.T) {
	b := trainToy(t, 0)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != b.Version || got.Threshold != b.Threshold {
		t.Fatalf("bundle = %+v", got)
	}
	c1, _ := b.Classifier()
	c2, _ := got.Classifier()
	x := make([]float64, feature.NumBasic)
	x[0] = 1500
	if c1.Score(x) != c2.Score(x) {
		t.Fatal("decoded classifier scores differ")
	}
}

func TestDecodeBundleGarbage(t *testing.T) {
	_, err := DecodeBundle([]byte("junk"))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("err = %v, want ErrBundleInvalid", err)
	}
}

func TestProfileCodec(t *testing.T) {
	u := txn.User{
		ID: 42, Age: 31, Gender: txn.GenderFemale, HomeCity: 7,
		AccountAge: 900, DeviceCount: 2, KYCLevel: 3,
		AvgDailyTxns: 0.4, AvgAmount: 123.5, MerchantFlag: true,
	}
	got, err := decodeProfile(encodeProfile(&u))
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("round trip: %+v != %+v", got, u)
	}
	if _, err := decodeProfile([]byte{1, 2}); err == nil {
		t.Fatal("short profile accepted")
	}
}

func TestVecCodec(t *testing.T) {
	v := []float32{0.5, -1.25, 3}
	got := decodeVec(encodeVec(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("vec round trip: %v != %v", got, v)
		}
	}
}

func TestUploadFetch(t *testing.T) {
	tab := table(t)
	u := txn.User{ID: 9, Age: 40, HomeCity: 1, AvgAmount: 50}
	emb := []float32{1, 2, 3, 4}
	up := &Uploader{Table: tab}
	if err := up.PutUser(&u, emb); err != nil {
		t.Fatal(err)
	}
	parts, found, err := fetchUser(tab, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !found || parts.user.Age != 40 || !slices.Equal(decodeVec(parts.emb), emb) {
		t.Fatalf("found=%v parts = %+v", found, parts)
	}
	// Unknown user: zero fragments, found=false, no error.
	parts, found, err = fetchUser(tab, 999)
	if err != nil {
		t.Fatal(err)
	}
	if found || parts.user.Age != 0 || parts.emb != nil {
		t.Fatalf("cold user found=%v parts = %+v", found, parts)
	}
}

func TestVersionedUploadNewestWins(t *testing.T) {
	tab := table(t)
	u := txn.User{ID: 5, Age: 30}
	up1 := &Uploader{Table: tab, Version: 100}
	up2 := &Uploader{Table: tab, Version: 200}
	_ = up1.PutUser(&u, nil)
	u.Age = 31
	_ = up2.PutUser(&u, nil)
	parts, _, err := fetchUser(tab, 5)
	if err != nil {
		t.Fatal(err)
	}
	if parts.user.Age != 31 {
		t.Fatalf("stale version served: %+v", parts)
	}
}

func TestScoreAndAlert(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i, Age: 30, AvgAmount: 100}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	var alerts []txn.TxnID
	var mu sync.Mutex
	srv, err := New(tab, trainToy(t, 0), WithAlert(func(t *txn.Transaction, score float64) {
		mu.Lock()
		alerts = append(alerts, t.ID)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// High amount -> fraud alert.
	hot := txn.Transaction{ID: 2, From: 1, To: 2, Amount: 1900}
	v, err := srv.Score(ctx, &hot)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fraud || v.Score < 0.5 {
		t.Fatalf("verdict = %+v", v)
	}
	// Low amount -> pass.
	cold := txn.Transaction{ID: 3, From: 1, To: 2, Amount: 5}
	v, err = srv.Score(ctx, &cold)
	if err != nil {
		t.Fatal(err)
	}
	if v.Fraud {
		t.Fatalf("verdict = %+v", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) != 1 || alerts[0] != 2 {
		t.Fatalf("alerts = %v", alerts)
	}
	st := srv.Stats()
	if st.Scored != 2 || st.Alerted != 1 || st.LatencyHist.Max <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScoreWithEmbeddings(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	emb := make([]float32, 8)
	emb[0] = 1
	u1 := txn.User{ID: 1}
	u2 := txn.User{ID: 2}
	_ = up.PutUser(&u1, emb)
	_ = up.PutUser(&u2, nil) // cold: no embedding
	srv, err := New(tab, trainToy(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	if _, err := srv.Score(context.Background(), &tx); err != nil {
		t.Fatal(err)
	}
}

// A stored embedding whose length disagrees with the model's dimension is
// a typed error, never a silently truncated half-zero vector.
func TestScoreDimensionMismatch(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	u1 := txn.User{ID: 1}
	u2 := txn.User{ID: 2}
	_ = up.PutUser(&u1, []float32{1, 2, 3}) // model wants 8
	_ = up.PutUser(&u2, nil)
	srv, err := New(tab, trainToy(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	if _, err := srv.Score(context.Background(), &tx); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := srv.ScoreBatch(context.Background(), []txn.Transaction{tx}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("batch err = %v, want ErrDimensionMismatch", err)
	}
}

// Score must respect an already-cancelled context: return promptly with
// ctx.Err() and never fire the alert callback.
func TestScoreCancelledContext(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		_ = up.PutUser(&u, nil)
	}
	alerted := false
	srv, err := New(tab, trainToy(t, 0), WithAlert(func(*txn.Transaction, float64) { alerted = true }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hot := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 1900} // would alert
	start := time.Now()
	if _, err := srv.Score(ctx, &hot); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := srv.ScoreBatch(ctx, []txn.Transaction{hot}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled calls took %v, want prompt return", d)
	}
	if alerted {
		t.Fatal("alert fired under a cancelled context")
	}
	if st := srv.Stats(); st.Scored != 0 {
		t.Fatalf("cancelled scores recorded: %+v", st)
	}
}

func TestStrictUsers(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	u := txn.User{ID: 1}
	_ = up.PutUser(&u, nil)
	srv, err := New(tab, trainToy(t, 0), WithStrictUsers())
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 404, Amount: 10}
	if _, err := srv.Score(context.Background(), &tx); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("err = %v, want ErrUserNotFound", err)
	}
	if _, err := srv.ScoreBatch(context.Background(), []txn.Transaction{tx}); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("batch err = %v, want ErrUserNotFound", err)
	}
}

// ScoreBatch preserves input order and agrees verdict-for-verdict with
// the sequential path.
func TestScoreBatchMatchesSequential(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(0); i < 50; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i%40)}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, trainToy(t, 0), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	txns := make([]txn.Transaction, 300)
	for i := range txns {
		txns[i] = txn.Transaction{
			ID:   txn.TxnID(i + 1),
			From: txn.UserID(r.Intn(50)), To: txn.UserID(r.Intn(50)),
			Amount: float32(r.Float64() * 2000),
		}
	}
	ctx := context.Background()
	verdicts, err := srv.ScoreBatch(ctx, txns)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != len(txns) {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), len(txns))
	}
	for i := range txns {
		want, err := srv.Score(ctx, &txns[i])
		if err != nil {
			t.Fatal(err)
		}
		got := verdicts[i]
		if got.TxnID != txns[i].ID {
			t.Fatalf("verdict %d out of order: txn %d", i, got.TxnID)
		}
		if got.Score != want.Score || got.Fraud != want.Fraud {
			t.Fatalf("verdict %d: batch %+v != sequential %+v", i, got, want)
		}
	}
	if st := srv.Stats(); st.Scored != int64(2*len(txns)) {
		t.Fatalf("scored = %d, want %d", st.Scored, 2*len(txns))
	}
}

func TestScoreBatchLimits(t *testing.T) {
	tab := table(t)
	srv, err := New(tab, trainToy(t, 0), WithMaxBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if v, err := srv.ScoreBatch(ctx, nil); err != nil || v != nil {
		t.Fatalf("empty batch: %v, %v", v, err)
	}
	txns := make([]txn.Transaction, 3)
	if _, err := srv.ScoreBatch(ctx, txns); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
}

func TestHotSwapBundle(t *testing.T) {
	tab := table(t)
	srv, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if srv.BundleVersion() != "2017-04-10" {
		t.Fatal("version wrong")
	}
	nb := trainToy(t, 0)
	nb.Version = "2017-04-11"
	if err := srv.SetBundle(nb); err != nil {
		t.Fatal(err)
	}
	if srv.BundleVersion() != "2017-04-11" {
		t.Fatal("hot swap failed")
	}
	info := srv.ModelInfo()
	if info.Version != "2017-04-11" || info.Threshold != 0.5 || info.EmbeddingDim != 0 {
		t.Fatalf("model info = %+v", info)
	}
	if err := srv.SetBundle(nil); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("nil bundle: %v, want ErrBundleInvalid", err)
	}
}

// A bundle whose declared EmbeddingDim disagrees with the classifier's
// trained input width must be rejected at every publication point —
// otherwise it would hot-swap cleanly and panic inside Score.
func TestBundleWidthMismatchRejected(t *testing.T) {
	tab := table(t)
	good := trainToy(t, 0) // classifier trained on NumBasic features
	clf, err := good.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBundle("bad", clf, 0.5, good.City, 8); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("NewBundle: %v, want ErrBundleInvalid", err)
	}
	// Forge the inconsistency past the constructor, as a corrupt or
	// hand-rolled upload would.
	bad := trainToy(t, 0)
	bad.EmbeddingDim = 8
	if _, err := New(tab, bad); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("New: %v, want ErrBundleInvalid", err)
	}
	srv, err := New(tab, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetBundle(bad); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("SetBundle: %v, want ErrBundleInvalid", err)
	}
	raw, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(raw); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("DecodeBundle: %v, want ErrBundleInvalid", err)
	}
}

func TestMillisecondLatency(t *testing.T) {
	// The paper's headline: prediction in mere milliseconds. With an
	// in-process HBase the p99 must be far below 10ms.
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(0); i < 200; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i%50)}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := rng.New(2)
	for i := 0; i < 500; i++ {
		tx := txn.Transaction{
			ID:   txn.TxnID(i),
			From: txn.UserID(r.Intn(200)), To: txn.UserID(r.Intn(200)),
			Amount: float32(r.Float64() * 2000),
		}
		if _, err := srv.Score(ctx, &tx); err != nil {
			t.Fatal(err)
		}
	}
	if p99 := srv.Stats().LatencyHist.Quantile(0.99); p99 > 10*time.Millisecond {
		t.Errorf("p99 latency %v exceeds 10ms", p99)
	}
}

func TestNewServerValidation(t *testing.T) {
	tab := table(t)
	if _, err := New(nil, trainToy(t, 0)); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := New(tab, nil); !errors.Is(err, ErrBundleInvalid) {
		t.Error("nil bundle accepted")
	}
	// A nil alert callback is the same as none.
	if _, err := New(tab, trainToy(t, 0), WithAlert(nil)); err != nil {
		t.Errorf("New with a nil alert: %v", err)
	}
}

var _ = model.Sigmoid // referenced for doc purposes

// ensembleEngine builds an engine over a two-member fixed-score ensemble
// (0.2 and 0.8, mean-combined) with two uploaded users.
func ensembleEngine(t *testing.T, combine Combiner) *Server {
	t.Helper()
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i, Age: 30}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	b, err := NewEnsembleBundle("ens-2017-04-10", []EnsembleMember{
		{Name: "lo", Clf: &fixedModel{V: 0.2, N: feature.NumBasic}, Threshold: 0.5},
		{Name: "hi", Clf: &fixedModel{V: 0.8, N: feature.NumBasic}, Threshold: 0.5},
	}, combine, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tab, b)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// An ensemble engine combines member scores and exposes the per-member
// breakdown on both the single and the batch path.
func TestEnsembleScoreExposesMembers(t *testing.T) {
	srv := ensembleEngine(t, CombineMean)
	ctx := context.Background()
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	v, err := srv.Score(ctx, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score != 0.5 || !v.Fraud {
		t.Fatalf("verdict = %+v", v)
	}
	if len(v.Members) != 2 ||
		v.Members[0] != (MemberScore{Name: "lo", Score: 0.2}) ||
		v.Members[1] != (MemberScore{Name: "hi", Score: 0.8}) {
		t.Fatalf("members = %+v", v.Members)
	}
	vs, err := srv.ScoreBatch(ctx, []txn.Transaction{tx, {ID: 2, From: 2, To: 1, Amount: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for i, bv := range vs {
		if bv.Score != v.Score || len(bv.Members) != 2 || bv.Members[1].Score != 0.8 {
			t.Fatalf("batch verdict %d = %+v", i, bv)
		}
	}
	info := srv.ModelInfo()
	if info.Combiner != "mean" || len(info.Members) != 2 ||
		info.Members[0].Name != "lo" || info.Members[0].Weight != 1 {
		t.Fatalf("model info = %+v", info)
	}
}

// A max-combined ensemble flags when its most suspicious member does.
func TestEnsembleMaxCombiner(t *testing.T) {
	srv := ensembleEngine(t, CombineMax)
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	v, err := srv.Score(context.Background(), &tx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score != 0.8 || !v.Fraud {
		t.Fatalf("verdict = %+v", v)
	}
}

// A v1 single-model bundle keeps its wire shape: no members on verdicts
// or model info, and hot-swapping between formats works both ways.
func TestV1BundleOmitsMembersAndSwapsToEnsemble(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 1500}
	v, err := srv.Score(context.Background(), &tx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Members != nil {
		t.Fatalf("v1 verdict has members: %+v", v.Members)
	}
	if info := srv.ModelInfo(); info.Combiner != "" || info.Members != nil {
		t.Fatalf("v1 model info = %+v", info)
	}
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	ens, err := NewEnsembleBundle("ens", []EnsembleMember{
		{Name: "only", Clf: &fixedModel{V: 0.9, N: feature.NumBasic}, Threshold: 0.5},
	}, CombineMean, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetBundle(ens); err != nil {
		t.Fatal(err)
	}
	v, err = srv.Score(context.Background(), &tx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score != 0.9 || len(v.Members) != 1 || v.Members[0].Name != "only" {
		t.Fatalf("post-swap verdict = %+v", v)
	}
}

// A v1 bundle encoded by the previous (single-model) format decodes and
// serves unchanged through today's DecodeBundle.
func TestV1WireBundleStillServes(t *testing.T) {
	b := trainToy(t, 0)
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMembers() != 1 || len(got.Members) != 0 {
		t.Fatalf("v1 bundle decoded as %d members (%d explicit)", got.NumMembers(), len(got.Members))
	}
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		u := txn.User{ID: i}
		_ = up.PutUser(&u, nil)
	}
	srv, err := New(tab, got)
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Transaction{ID: 9, From: 1, To: 2, Amount: 1900}
	v, err := srv.Score(context.Background(), &tx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fraud || v.Members != nil {
		t.Fatalf("verdict = %+v", v)
	}
}
