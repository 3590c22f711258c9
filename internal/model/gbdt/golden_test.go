package gbdt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"titant/internal/feature"
)

// modelDigest hashes every bit Train decides: the base, the discretiser's
// cuts and each node's column, threshold and value.
func modelDigest(mo *Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(math.Float64bits(mo.Base))
	for _, cuts := range mo.Disc.Cuts {
		put(uint64(len(cuts)))
		for _, c := range cuts {
			put(math.Float64bits(c))
		}
	}
	for _, tr := range mo.TreesArr {
		for _, n := range tr.Nodes {
			put(uint64(uint32(n.Col))<<8 | uint64(n.Thr))
			put(math.Float64bits(n.Value))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestTrainGoldenBits pins Train's output bit for bit, recorded from the
// sequential trainer; 12000 rows are enough work for every parallel
// stage to split at two CPUs or more. Column 6 is constant; column 7 repeats column 0, so
// every split on one ties with the same split on the other and the first
// in column order must win; column 8 takes five values, so its bins tie.
func TestTrainGoldenBits(t *testing.T) {
	base, labels := interactionData(12000, 9)
	m := base
	for _, extra := range []func(i int) float64{
		func(int) float64 { return 3 },
		func(i int) float64 { return base.At(i, 0) },
		func(i int) float64 { return math.Floor(base.At(i, 1) * 5) },
	} {
		m = withColumn(m, extra)
	}
	all := DefaultConfig()
	all.Trees = 30
	all.ColSample = 1
	dflt := DefaultConfig()
	dflt.Trees = 100
	deep := DefaultConfig()
	deep.Trees = 20
	deep.Depth = 4
	deep.Bins = 16
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"allcols", all, "faa6e1eb9a10553d"},
		{"default", dflt, "027d11df718615ae"},
		{"deep", deep, "9e62f96ed715e294"},
	} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				before := runtime.NumGoroutine()
				got := modelDigest(Train(m, labels, tc.cfg))
				for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
					if time.Now().After(wait) {
						t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
					}
				}
				if got != tc.want {
					t.Errorf("digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// withColumn returns m with one more column, f(row).
func withColumn(m *feature.Matrix, f func(i int) float64) *feature.Matrix {
	out := feature.NewMatrix(m.Rows, m.Cols+1)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
		out.Set(i, m.Cols, f(i))
	}
	return out
}
