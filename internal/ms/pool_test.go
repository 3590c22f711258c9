package ms

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/txn"
)

// goid reads the calling goroutine's id from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestRunPool pins the worker pool's contract at every width: each index
// runs exactly once, an index's error is the one returned, a cancelled
// context stops the stage with ctx.Err(), and a one-unit or one-worker
// stage runs on the caller's goroutine.
func TestRunPool(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s := &Server{workers: workers}
		for _, n := range []int{0, 1, 3, 256} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				caller := goid()
				runs := make([]atomic.Int32, n)
				var offCaller atomic.Int32
				err := s.runPool(context.Background(), n, func(i int) error {
					runs[i].Add(1)
					if goid() != caller {
						offCaller.Add(1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
				}
				if (n <= 1 || workers == 1) && offCaller.Load() > 0 {
					t.Errorf("%d of %d indexes ran off the caller's goroutine", offCaller.Load(), n)
				}

				if n > 0 {
					want := errors.New("index failed")
					err = s.runPool(context.Background(), n, func(i int) error {
						if i == n/2 {
							return want
						}
						return nil
					})
					if err != want {
						t.Errorf("error %v, want %v", err, want)
					}
				}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var ran atomic.Int32
				err = s.runPool(ctx, n, func(int) error {
					ran.Add(1)
					return nil
				})
				if n > 0 && !errors.Is(err, context.Canceled) || n == 0 && err != nil {
					t.Errorf("cancelled context: error %v", err)
				}
				if ran.Load() > 0 {
					t.Errorf("cancelled context: %d indexes ran", ran.Load())
				}
			})
		}
	}
}

// twoSumBundle is a two-member ensemble over embSumModel, so a carve is k
// = 2 member scores and a carve one slot off shows in the names.
func twoSumBundle(t testing.TB, version string) *Bundle {
	t.Helper()
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	n := feature.NumBasic + 2*fetchTestDim
	b, err := NewEnsembleBundle(version, []EnsembleMember{
		{Name: "sum-a", Clf: &embSumModel{N: n}, Threshold: 0.5},
		{Name: "sum-b", Clf: &embSumModel{N: n}, Threshold: 0.5},
	}, CombineMean, 0.5, city, fetchTestDim)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSlabMembersIsolated: a breakdown carved from the shared slab is its
// verdict's alone. GOMAXPROCS×4 concurrent Decide and Score callers each
// keep every verdict they get; afterwards every kept Members must equal a
// fresh Score's of the same transaction, so no carve overlapped another,
// and must have len == cap, so no caller's append reaches a neighbour's.
func TestSlabMembersIsolated(t *testing.T) {
	tab := table(t)
	seedEmbUsers(t, &Uploader{Table: tab}, 64)
	srv, err := New(tab, twoSumBundle(t, "two-sum"), WithPolicy(decidePolicy(t)), WithUserCache(32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	txns := uniformBatches(1, 3*memberSlabLen, 64, 9)[0]
	kept := make([][]Verdict, 4*runtime.GOMAXPROCS(0))
	errs := make(chan error, len(kept))
	var wg sync.WaitGroup
	for c := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range txns {
				tx := &txns[(i+7*c)%len(txns)]
				v, err := srv.Score(ctx, tx)
				if (i+c)%2 == 0 {
					var d Decision
					d, err = srv.Decide(ctx, tx, decision.ScenarioDefault)
					v = d.Verdict
				}
				if err != nil {
					errs <- err
					return
				}
				kept[c] = append(kept[c], v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range kept {
		for _, v := range kept[c] {
			fresh, err := srv.Score(ctx, &txns[v.TxnID-1])
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Members) != cap(v.Members) || !slices.Equal(v.Members, fresh.Members) {
				t.Fatalf("caller %d, txn %d: kept members %v (cap %d), fresh %v", c, v.TxnID, v.Members, cap(v.Members), fresh.Members)
			}
		}
	}
}

// TestSlabPinsNoBundle: a partly carved slab in the pool holds member
// scores, not the bundle that produced them, so a swapped-out bundle is
// collected while the slab it was carved into is still in use.
func TestSlabPinsNoBundle(t *testing.T) {
	tab := table(t)
	seedEmbUsers(t, &Uploader{Table: tab}, 8)
	old := twoSumBundle(t, "old")
	srv, err := New(tab, old, WithPolicy(decidePolicy(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Decide until the pool hands back a partly carved slab (a put can
	// be dropped, or land on another P). It is held here as well as
	// pooled, so it stays reachable through the collection even where
	// the race detector drops pool puts.
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	var sl *memberSlab
	for try := 0; sl == nil; try++ {
		if try == 100 {
			t.Fatal("no partly carved slab in the pool after 100 Decides")
		}
		if _, err := srv.Decide(context.Background(), &tx, decision.ScenarioDefault); err != nil {
			t.Fatal(err)
		}
		if got := memberSlabs.Get().(*memberSlab); len(got.free) > 0 && len(got.free) < memberSlabLen {
			sl = got
		}
	}
	memberSlabs.Put(sl)
	gone := weak.Make(old)
	old = nil
	if err := srv.SetBundle(twoSumBundle(t, "new")); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the swapped-out bundle survived a collection")
	}
	runtime.KeepAlive(sl)
}
