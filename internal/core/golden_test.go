package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"titant/internal/model"
	"titant/internal/model/gbdt"
	"titant/internal/model/lr"
	"titant/internal/ms"
	"titant/internal/nrl"
)

// TestMain numbers gob's types before any test encodes one. gob numbers a
// type the first time the process encodes it, process-wide, and the
// numbers travel in the encoded bytes; so the golden bundle and model
// digests below would move with the order earlier tests happen to train
// detector types in. This is the serving trainer's order: a GBDT member,
// an LR member, then the bundle around them.
func TestMain(m *testing.M) {
	for _, clf := range []model.Classifier{&gbdt.Model{}, &lr.Model{}} {
		if _, err := model.Encode(clf); err != nil {
			panic(err)
		}
	}
	if _, err := (&ms.Bundle{}).Encode(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

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

// TestServingTrainGoldenBits pins Train's output bit for bit on a small
// world, recorded from the sequential trainers: the embeddings, the
// encoded bundle of a GBDT+LR ensemble (every member's trees or weights,
// its threshold, the combined threshold, the city table) and the model
// and threshold of the one-member GBDT artifact titant serve trains by
// default. It also pins LearnEmbeddings' DeepWalk and struc2vec vectors.
func TestServingTrainGoldenBits(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			before := runtime.NumGoroutine()
			ens, err := Train(w.Users, ds, Spec{Features: FeatBasicDW, Detectors: []Detector{DetGBDT, DetLR}, Combine: ms.CombineMean}, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			one, err := Train(w.Users, ds, served, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			both := LearnEmbeddings(ds, opts)
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the calls, %d before them", runtime.NumGoroutine(), before)
				}
			}
			b, err := ens.Bundle("golden")
			if err != nil {
				t.Fatal(err)
			}
			enc, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b1, err := one.Bundle("golden")
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ what, got, want string }{
				{"ensemble embeddings", embDigest(ens.emb.DW), "419a32a0f93cd4bc"},
				{"ensemble bundle", bytesDigest(enc), "f095b892a2369b43"},
				{"ensemble threshold", fmt.Sprint(math.Float64bits(b.Threshold)), "4605339104712001990"},
				{"gbdt embeddings", embDigest(one.emb.DW), "419a32a0f93cd4bc"},
				{"gbdt model", bytesDigest(b1.Members[0].ModelBytes), "1e4c2b577136b7cf"},
				{"gbdt threshold", fmt.Sprint(math.Float64bits(b1.Threshold)), "4604276871329339478"},
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
