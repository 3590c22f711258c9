package ps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"titant/internal/graph"
	"titant/internal/txn"
)

// TestTrainDeepWalkGoldenBits pins the distributed DeepWalk's embeddings
// bit for bit, recorded from the sequential skip-gram update: the workers
// share the single-machine kernel, so a kernel that reorders a float
// reduction changes the digest.
func TestTrainDeepWalkGoldenBits(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 90; i++ {
		b.AddTransfer(txn.UserID(i), txn.UserID((i+1)%90), false)
		b.AddTransfer(txn.UserID(i), txn.UserID((i*7+3)%90), false)
	}
	g := b.Build()
	cfg := DefaultDWConfig()
	cfg.DW.WalksPerNode = 4
	cfg.FailWorker = 1
	cfg.FailAfterBatches = 2
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			before := runtime.NumGoroutine()
			res := TrainDeepWalk(NewCluster(6, DefaultCostModel()), g, cfg)
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
				}
			}
			h := sha256.New()
			var w [8]byte
			for _, u := range res.Embeddings.Users() {
				binary.LittleEndian.PutUint64(w[:], uint64(u))
				h.Write(w[:])
				for _, x := range res.Embeddings.Lookup(u) {
					binary.LittleEndian.PutUint32(w[:4], math.Float32bits(x))
					h.Write(w[:4])
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)[:8]), "40f0596b81b126d9"; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}
