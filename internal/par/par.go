// Package par splits an index range across the CPUs for the offline
// trainers. A range's work writes only that range's outputs, each in the
// order one loop would, so results are bitwise one loop's on any schedule.
package par

import (
	"runtime"
	"sync"
)

// Grain is the least work, in element operations, worth a goroutine.
const Grain = 1 << 14

// Ranges calls fn over [0, n) cut into contiguous ranges, at most one per
// CPU and each carrying at least Grain of the total work: small inputs run
// inline in one call. The caller runs the first range; Ranges returns when
// all are done.
func Ranges(n, work int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n, work/Grain)
	if w < 2 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			fn(k*n/w, (k+1)*n/w)
		}()
	}
	fn(0, n/w)
	wg.Wait()
}

// Do runs fns side by side when their total work is worth it, the caller
// running the first, and otherwise in order, inline.
func Do(work int, fns ...func()) {
	Ranges(len(fns), work, func(lo, hi int) {
		for _, fn := range fns[lo:hi] {
			fn()
		}
	})
}
