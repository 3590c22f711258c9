package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"titant/internal/model"
	"titant/internal/ms"
	"titant/internal/nrl"
)

// embDigest hashes every embedded user and the bits of its vector.
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

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// TestServingTrainGoldenBits pins the serving trainers' output bit for
// bit on a small world, recorded from the sequential trainers: the
// embeddings, the encoded bundle (every member's trees or weights, its
// threshold, the combined threshold, the city table) and the single-GBDT
// path's model and threshold. It also pins LearnEmbeddings' DeepWalk and
// struc2vec vectors.
func TestServingTrainGoldenBits(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			before := runtime.NumGoroutine()
			members, emb, thr, err := TrainEnsembleForServing(w.Users, ds, []Detector{DetGBDT, DetLR}, ms.CombineMean, opts)
			if err != nil {
				t.Fatal(err)
			}
			clf, emb1, thr1, err := TrainForServing(w.Users, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			both := LearnEmbeddings(ds, opts)
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the calls, %d before them", runtime.NumGoroutine(), before)
				}
			}
			b, err := BuildEnsembleBundle(ds, emb, members, ms.CombineMean, thr, opts, "golden")
			if err != nil {
				t.Fatal(err)
			}
			enc, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			mb, err := model.Encode(clf)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ what, got, want string }{
				{"ensemble embeddings", embDigest(emb.DW), "419a32a0f93cd4bc"},
				{"ensemble bundle", bytesDigest(enc), "f095b892a2369b43"},
				{"ensemble threshold", fmt.Sprint(math.Float64bits(thr)), "4605339104712001990"},
				{"gbdt embeddings", embDigest(emb1.DW), "419a32a0f93cd4bc"},
				{"gbdt model", bytesDigest(mb), "1e4c2b577136b7cf"},
				{"gbdt threshold", fmt.Sprint(math.Float64bits(thr1)), "4604276871329339478"},
				{"learned dw", embDigest(both.DW), "419a32a0f93cd4bc"},
				{"learned s2v", embDigest(both.S2V), "33d7656ab13ddef4"},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s, want %s", c.what, c.got, c.want)
				}
			}
		})
	}
}
