package ms

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
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
