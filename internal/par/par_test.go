package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRangesCoverEachIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, tc := range []struct{ n, work, calls int }{
			{0, 0, 1},
			{5, Grain - 1, 1},           // too little work: one inline call
			{5, 3 * Grain, min(p, 3)},   // one range per Grain of work
			{3, 100 * Grain, min(p, 3)}, // never more ranges than indices
			{1000, 100 * Grain, min(p, 100)},
		} {
			t.Run(fmt.Sprintf("procs=%d/n=%d/work=%d", p, tc.n, tc.work), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				seen := make([]atomic.Int32, tc.n)
				var calls atomic.Int32
				Ranges(tc.n, tc.work, func(lo, hi int) {
					calls.Add(1)
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("index %d visited %d times", i, c)
					}
				}
				if got := int(calls.Load()); got != tc.calls {
					t.Fatalf("%d calls, want %d", got, tc.calls)
				}
			})
		}
	}
}

func TestDoRunsEveryFunc(t *testing.T) {
	for _, work := range []int{0, 4 * Grain} {
		var a, b, c atomic.Int32
		Do(work, func() { a.Add(1) }, func() { b.Add(1) }, func() { c.Add(1) })
		if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
			t.Fatalf("work %d: runs %d %d %d, want 1 each", work, a.Load(), b.Load(), c.Load())
		}
	}
}
