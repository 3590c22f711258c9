package deepwalk

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
	"titant/internal/nrl"
	"titant/internal/rng"
	"titant/internal/txn"
)

// The digests below pin the trainer's output bit for bit. They were
// recorded from the sequential trainer, which sampled walks and drew
// windows and negatives on the caller's goroutine and ran each target of
// an update through its own dot product; a trainer that reorders any
// float reduction, or any random draw, changes them.

// embDigest hashes every embedded user and the bits of its vector, in
// user order.
func embDigest(e *nrl.Embeddings) string {
	h := sha256.New()
	var b [8]byte
	for _, u := range e.Users() {
		binary.LittleEndian.PutUint64(b[:], uint64(u))
		h.Write(b[:])
		for _, x := range e.Lookup(u) {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(x))
			h.Write(b[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// atProcs runs fn at GOMAXPROCS 1, 2 and 4 and fails when a goroutine fn
// started is still running after it returned.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			before := runtime.NumGoroutine()
			fn(t)
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// chords is a ring of n users with a chord from every third user, so
// degrees (and negative-table shares) differ.
func chords(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddTransfer(txn.UserID(i), txn.UserID((i+1)%n), false)
		if i%3 == 0 {
			b.AddTransfer(txn.UserID(i), txn.UserID((i*7+5)%n), false)
		}
	}
	return b.Build()
}

func TestTrainGoldenBits(t *testing.T) {
	dflt := DefaultConfig()
	dflt.WalksPerNode = 8
	// Three nodes and five negatives: nearly every update draws the same
	// negative twice and a negative equal to its context.
	tiny := BenchConfig()
	tiny.Dim = 8
	tiny.Negatives = 5
	path := graph.NewBuilder()
	path.AddTransfer(1, 2, false)
	path.AddTransfer(2, 3, false)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
		want string
	}{
		{"bench", chords(200), BenchConfig(), "aee402782ec4b5dd"},
		{"default", chords(60), dflt, "10ef24add2ff4879"},
		{"tiny", path.Build(), tiny, "9d6c14244941393b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				if got := embDigest(Train(tc.g, tc.cfg)); got != tc.want {
					t.Errorf("digest %s, want %s", got, tc.want)
				}
			})
		})
	}
}

func TestSGNSUpdateGoldenBits(t *testing.T) {
	s := NewSGNS(7, 32, rng.New(11))
	r := rng.New(12)
	h := sha256.New()
	var b [4]byte
	negs := make([]graph.NodeID, 6)
	for step := 0; step < 2000; step++ {
		center, context := graph.NodeID(r.Intn(7)), graph.NodeID(r.Intn(7))
		k := r.Intn(len(negs) + 1)
		for i := range negs[:k] {
			negs[i] = graph.NodeID(r.Intn(7))
		}
		total := s.Update(center, context, negs[:k], float32(0.05*r.Float64()))
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(total))
		h.Write(b[:])
	}
	for _, m := range [][][]float32{s.Syn0, s.Syn1} {
		for _, v := range m {
			for _, x := range v {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
				h.Write(b[:])
			}
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)[:8]), "a5e8a73506031822"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
