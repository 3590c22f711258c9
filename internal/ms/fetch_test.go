package ms

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"math"
	"sync"
	"testing"

	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

// embSumModel scores a row as the sum of its embedding columns, so a
// verdict moves whenever a single embedding bit does.
type embSumModel struct{ N int }

func (m *embSumModel) Score(x []float64) float64 {
	var s float64
	for _, v := range x[feature.NumBasic:] {
		s += v
	}
	return s
}
func (m *embSumModel) NumFeatures() int { return m.N }

func init() { gob.Register(&embSumModel{}) }

const fetchTestDim = 4

// embSumBundle is a one-member ensemble over embSumModel: verdicts carry
// the member breakdown, as the benchmark's deployed bundle's do.
func embSumBundle(t testing.TB) *Bundle {
	t.Helper()
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	b, err := NewEnsembleBundle("emb-sum", []EnsembleMember{
		{Name: "sum", Clf: &embSumModel{N: feature.NumBasic + 2*fetchTestDim}, Threshold: 0.5},
	}, CombineMean, 0.5, city, fetchTestDim)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testEmb is user u's embedding in upload wave `wave`.
func testEmb(u txn.UserID, wave int) []float32 {
	e := make([]float32, fetchTestDim)
	for j := range e {
		e[j] = float32(int(u)%97) + float32(j)/8 + float32(wave)*1000
	}
	return e
}

// seedEmbUsers uploads users [0, n) with embeddings through sink.
func seedEmbUsers(t testing.TB, sink userSink, n int) {
	t.Helper()
	for i := txn.UserID(0); i < txn.UserID(n); i++ {
		u := txn.User{ID: i, Age: uint8(20 + i%50), AvgAmount: float32(50 + i%200)}
		if err := sink.PutUser(&u, testEmb(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

// uniformBatches draws batches of size transactions over users [0, users).
func uniformBatches(batches, size, users int, seed uint64) [][]txn.Transaction {
	r := rng.New(seed)
	out := make([][]txn.Transaction, batches)
	for b := range out {
		out[b] = make([]txn.Transaction, size)
		for i := range out[b] {
			out[b][i] = txn.Transaction{
				ID:   txn.TxnID(b*size + i + 1),
				From: txn.UserID(r.Intn(users)), To: txn.UserID(r.Intn(users)),
				Amount: float32(r.Float64() * 2000),
			}
		}
	}
	return out
}

// TestDecideBatchColdAllocBudget: a 256-transaction DecideBatch allocates
// exactly what it returns — the decisions and their member breakdowns —
// when the cache (larger than the population) is warm, and one object
// more, the batch's key string, when its users almost all miss the cache
// or there is none, at either store width: nothing per user read, and no
// stage closure. Before the fetch stage kept embeddings as the store's
// bytes a cold batch was three objects per miss, about 1 400 per batch;
// 21 before the worker pool's stage state was one pooled record, and 5
// before the stage funcs were bound once per pooled scratch.
func TestDecideBatchColdAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	const users = 4096
	ctx := context.Background()
	batches := uniformBatches(64, 256, users, 41)
	b := embSumBundle(t)
	for _, width := range []int{1, 4} {
		tabs := shardTables(t, width)
		seedEmbUsers(t, NewShardedUploader(tabs, 0), users)
		for _, tab := range tabs {
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, cache := range []int{0, users / 16, 2 * users} {
			warm := cache > users
			opts := []Option{WithPolicy(decidePolicy(t)), WithWorkers(2)}
			if cache > 0 {
				opts = append(opts, WithUserCache(cache))
			}
			srv, err := NewSharded(tabs, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			for i := 0; warm && i < len(batches); i++ { // fill the cache
				if _, err := srv.DecideBatch(ctx, batches[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			got := testing.AllocsPerRun(len(batches)-1, func() {
				if _, err := srv.DecideBatch(ctx, batches[next%len(batches)], nil); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if st := srv.UserCacheStats(); warm && st.Misses > users {
				t.Fatalf("workload is not warm: %d hits, %d misses", st.Hits, st.Misses)
			} else if cache > 0 && !warm && st.Misses < 4*st.Hits {
				t.Fatalf("workload is not cold: %d hits, %d misses", st.Hits, st.Misses)
			}
			want := 3.0
			if warm {
				want = 2
			}
			if got != want {
				t.Errorf("%d tables, cache %d: %.0f allocs per batch, want %.0f", width, cache, got, want)
			}
			t.Logf("%d tables, cache %d: %.0f allocs per 256-transaction batch", width, cache, got)
		}
	}
}

// TestFetchScratchNoCarryOver: two batches through the same pooled fetch
// scratch share nothing. Batch B reuses slots batch A filled with known,
// embedding-carrying users for users the store has never seen and users
// without an embedding; every slot must read exactly what a point read of
// that user returns. Between the batches the pooled scratch holds no store
// bytes and no key string.
func TestFetchScratchNoCarryOver(t *testing.T) {
	for _, cached := range []bool{false, true} {
		tab := table(t)
		up := &Uploader{Table: tab}
		seedEmbUsers(t, up, 32)
		for i := txn.UserID(100); i < 110; i++ { // profile only
			u := txn.User{ID: i, Age: 61}
			if err := up.PutUser(&u, nil); err != nil {
				t.Fatal(err)
			}
		}
		var opts []Option
		if cached {
			opts = append(opts, WithUserCache(8)) // smaller than either batch
		}
		srv, err := New(tab, embSumBundle(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		check := func(fs *fetchScratch, ids []txn.UserID) {
			t.Helper()
			for _, u := range ids {
				fs.add(u)
			}
			if err := srv.fetchUsers(context.Background(), fs); err != nil {
				t.Fatal(err)
			}
			for i, u := range fs.ids {
				want, wantFound, err := fetchUser(tab, u)
				if err != nil {
					t.Fatal(err)
				}
				got := fs.parts[i]
				if fs.found[i] != wantFound || got.user != want.user || string(got.emb) != string(want.emb) ||
					(got.emb == nil) != (want.emb == nil) {
					t.Fatalf("cached=%v user %d: got found=%v %+v, want found=%v %+v", cached, u, fs.found[i], got, wantFound, want)
				}
			}
			for k, u := range ids {
				if fs.ids[fs.pos[k]] != u {
					t.Fatalf("position %d names user %d, not %d", k, fs.ids[fs.pos[k]], u)
				}
			}
		}
		fs := fetchPool.Get().(*fetchScratch)
		check(fs, []txn.UserID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 4})
		putFetchScratch(fs)
		if len(fs.index) != 0 || len(fs.pos) != 0 {
			t.Fatalf("pooled scratch still indexes %d users at %d positions", len(fs.index), len(fs.pos))
		}
		if fs.tables != nil || fs.txns != nil || fs.bundle != nil || fs.city != nil || fs.m != nil {
			t.Fatal("pooled scratch still pins a batch's stage inputs")
		}
		for i, p := range fs.parts[:cap(fs.parts)] {
			if p.emb != nil || p.user != (txn.User{}) {
				t.Fatalf("pooled scratch slot %d still holds %+v", i, p)
			}
		}
		for i, row := range fs.rows[:cap(fs.rows)] {
			if row != "" {
				t.Fatalf("pooled scratch row %d still holds key %q", i, row)
			}
		}
		// Same slots (without the race detector the pool hands the scratch
		// straight back): unknown users, embedding-less users, two of A's
		// users at other positions, and fewer users than A had.
		fs = fetchPool.Get().(*fetchScratch)
		check(fs, []txn.UserID{900, 100, 901, 5, 101, 902, 0, 103})
		putFetchScratch(fs)
	}
}

// TestEmbeddingBytePathMatchesDecode: widening the store's bytes straight
// into the feature row gives the float64 bits of decoding to float32 first
// and widening after, on every class of payload.
func TestEmbeddingBytePathMatchesDecode(t *testing.T) {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // denormals
		0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±max
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc12345, // quiet NaNs with payloads
		0x7f800001, 0xff800001, 0x7fa55aa5, // signalling NaNs with payloads
		0x3f800000, 0xbf000000, 0x3eaaaaab, // ordinary values
	}
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		bits = append(bits, uint32(r.Uint64()))
	}
	raw := make([]byte, 4*len(bits))
	for i, b := range bits {
		binary.LittleEndian.PutUint32(raw[4*i:], b)
	}
	want := decodeVec(raw)
	got := make([]float64, len(bits))
	if err := copyEmb(got, raw, 1); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if w := float64(want[i]); math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Errorf("payload %#08x: byte path %#016x, decode path %#016x",
				bits[i], math.Float64bits(got[i]), math.Float64bits(w))
		}
	}
	if err := copyEmb(make([]float64, 3), raw[:16], 1); err == nil {
		t.Error("a 4-dim embedding filled a 3-dim slot")
	}
}

// TestAssembleOverwritesPooledMatrix: the pooled matrix is not cleared
// between batches, so assembly must write every slot itself — for a user
// with an embedding, a cold-start user (whose embedding is the zero
// vector) and a bundle without embeddings.
func TestAssembleOverwritesPooledMatrix(t *testing.T) {
	known := userParts{user: txn.User{ID: 1, Age: 33, AvgAmount: 80}, emb: encodeVec(testEmb(1, 0))}
	cold := userParts{user: txn.User{ID: 2}}
	tx := txn.Transaction{ID: 9, From: 1, To: 2, Amount: 420, Sec: 4000}
	for _, dim := range []int{fetchTestDim, 0} {
		b := trainToy(t, dim)
		pairs := [][2]*userParts{{&known, &cold}, {&cold, &known}, {&cold, &cold}}
		if dim == 0 {
			k0 := userParts{user: known.user}
			pairs = [][2]*userParts{{&k0, &cold}}
		}
		width := feature.NumBasic + 2*dim
		m := getMatrix(len(pairs), width)
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		want := feature.NewMatrix(len(pairs), width)
		for i, p := range pairs {
			if err := assembleRow(&tx, p[0], p[1], b, &b.City, m.Row(i)); err != nil {
				t.Fatal(err)
			}
			if err := assembleRow(&tx, p[0], p[1], b, &b.City, want.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want.Data {
			if math.Float64bits(m.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("dim %d: slot %d of the poisoned matrix reads %v, of a zeroed one %v", dim, i, m.Data[i], want.Data[i])
			}
		}
		putMatrix(m)
	}
}

// TestCachedBytesSurviveStoreChurn: cached fragments alias store values,
// so they must stay intact while the store rewrites itself around them.
// Callers decide batches over one half of the users from a cached engine
// while an uploader overwrites the other half and flushes and compacts the
// table; every decision must equal, bit for bit, the one a cache-less
// engine gave before the churn began. Afterwards an overwritten user
// serves the new embedding as soon as the uploader has invalidated it.
func TestCachedBytesSurviveStoreChurn(t *testing.T) {
	const users = 64
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir(), MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	seedEmbUsers(t, &Uploader{Table: tab}, users)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	b := embSumBundle(t)
	ctx := context.Background()
	plain, err := New(tab, b, WithPolicy(decidePolicy(t)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	cached, err := New(tab, b, WithPolicy(decidePolicy(t)), WithUserCache(4*users))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)

	batches := uniformBatches(8, 64, users/2, 17) // users [0, users/2)
	want := make([][]Decision, len(batches))
	for i, txns := range batches {
		if want[i], err = plain.DecideBatch(ctx, txns, nil); err != nil {
			t.Fatal(err)
		}
	}
	same := func(label string, got, want []Decision) {
		t.Helper()
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Action != w.Action || g.Reason != w.Reason ||
				len(g.Members) != len(w.Members) || math.Float64bits(g.Members[0].Score) != math.Float64bits(w.Members[0].Score) {
				t.Errorf("%s: txn %d decided %+v, cache-less reference %+v", label, w.TxnID, g, w)
				return
			}
		}
	}

	// The uploader runs a fixed number of waves; the callers decide until it
	// is done, so every wave lands between two reads of cached bytes.
	const waves = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		up := &Uploader{Table: tab, Invalidate: cached.InvalidateUser}
		for wave := 1; wave <= waves; wave++ {
			for i := txn.UserID(users / 2); i < users; i++ {
				u := txn.User{ID: i, Age: uint8(wave)}
				if err := up.PutUser(&u, testEmb(i, wave)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := tab.Flush(); err != nil {
				t.Error(err)
				return
			}
			if err := tab.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var callers sync.WaitGroup
	for c := 0; c < 4; c++ {
		callers.Add(1)
		go func(c int) {
			defer callers.Done()
			for round := 0; ; round++ {
				k := (c + round) % len(batches)
				got, err := cached.DecideBatch(ctx, batches[k], nil)
				if err != nil {
					t.Error(err)
					return
				}
				same("during churn", got, want[k])
				select {
				case <-done:
					return
				default:
				}
			}
		}(c)
	}
	callers.Wait()
	if st := cached.UserCacheStats(); st.Hits == 0 {
		t.Fatal("no decision was served from the cache")
	}

	// Overwrite a cached user: the entry is dropped with the upload, so the
	// next decision reads the new bytes, as a cache-less engine does.
	tx := []txn.Transaction{{ID: 1, From: 3, To: 4, Amount: 100}}
	before, err := cached.DecideBatch(ctx, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := txn.User{ID: 3, Age: 23, AvgAmount: 53}
	up := &Uploader{Table: tab, Invalidate: cached.InvalidateUser}
	if err := up.PutUser(&u, testEmb(3, 7)); err != nil {
		t.Fatal(err)
	}
	after, err := cached.DecideBatch(ctx, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.DecideBatch(ctx, tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("after invalidation", after, ref)
	if after[0].Score == before[0].Score {
		t.Errorf("overwritten user still scores %v", after[0].Score)
	}
}
