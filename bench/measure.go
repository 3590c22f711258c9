package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"titant/internal/decision"
	"titant/internal/txn"
)

// latencyCap bounds one caller's per-slice latency samples. Samples are
// raw nanoseconds in a preallocated buffer, sorted after the slice; the
// cap covers a million calls a second for a two-second slice, and a
// slice that overruns it fails the run instead of truncating the tail.
const latencyCap = 1 << 21

// caller is one closed-loop client: a payment pipeline that sends its
// next call only after the previous one returned.
type caller struct {
	gen    *traffic
	batch  []txn.Transaction
	lat    []uint32 // ns per decide call this slice
	starts []int64  // each call's start while tracing, ns since the trace epoch
	trace  bool     // record starts this slice

	txns      int64 // transactions that got a healthy verdict
	attempted int64 // transactions submitted (decides and ingests)
	failed    int64 // attempted transactions refused, errored or degraded
	overrun   bool
}

func (c *caller) record(t0, t1 time.Time, epoch time.Time) {
	if len(c.lat) == cap(c.lat) {
		c.overrun = true
		return
	}
	c.lat = append(c.lat, uint32(min(t1.Sub(t0), time.Duration(1<<32-1))))
	if c.trace {
		c.starts = append(c.starts, int64(t0.Sub(epoch)))
	}
}

// loop drives tgt until deadline. Batch workloads call decide once per
// generated batch; per-transaction workloads decide each payment and
// then ingest it, and only the decide is timed as the call's latency.
func (c *caller) loop(ctx context.Context, tgt *target, deadline, epoch time.Time) {
	for {
		c.gen.fill(c.batch)
		n := int64(len(c.batch))
		var t1 time.Time
		if tgt.perTxn {
			srv, t := tgt.engine, &c.batch[0]
			t0 := time.Now()
			_, err := srv.Decide(ctx, t, decision.ScenarioDefault)
			t1 = time.Now()
			c.record(t0, t1, epoch)
			c.attempted += 2
			if err != nil {
				c.failed++
			} else {
				c.txns++
			}
			if err := srv.Ingest(t); err != nil {
				c.failed++
			}
		} else {
			t0 := time.Now()
			ds, err := tgt.decide(ctx, c.batch)
			t1 = time.Now()
			c.record(t0, t1, epoch)
			c.attempted += n
			if err != nil || len(ds) != len(c.batch) {
				c.failed += n
			} else {
				c.txns += n
			}
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

// sliceResult is one timed slice of the closed loop.
type sliceResult struct {
	wall, cpu         float64 // seconds
	txns              int64
	attempted, failed int64
	mallocs, bytes    uint64
	lat               []uint32 // every caller's samples, ascending
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runSlice runs every caller against tgt for d after a forced GC, and
// returns throughput, process CPU, allocation deltas and the merged
// latency samples. merged is the reusable destination for the samples.
func runSlice(ctx context.Context, tgt *target, callers []*caller, d time.Duration, epoch time.Time, merged []uint32) (sliceResult, error) {
	for _, c := range callers {
		c.lat = c.lat[:0]
		c.starts = c.starts[:0]
		c.txns, c.attempted, c.failed = 0, 0, 0
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, tgt, deadline, epoch)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)

	r := sliceResult{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		lat:     merged[:0],
	}
	for _, c := range callers {
		if c.overrun {
			return r, fmt.Errorf("a caller made more than %d calls in one slice; latency samples would be truncated", latencyCap)
		}
		r.txns += c.txns
		r.attempted += c.attempted
		r.failed += c.failed
		r.lat = append(r.lat, c.lat...)
	}
	slices.Sort(r.lat)
	return r, nil
}

// newCallers builds one caller per core for the workload's traffic.
func (fx *fixture) newCallers(s spec, seed uint64, traced bool) []*caller {
	callers := make([]*caller, fx.nproc)
	for i := range callers {
		c := &caller{
			gen:   fx.traffic(seed, i, s.uniform),
			batch: make([]txn.Transaction, s.batch),
			lat:   make([]uint32, 0, latencyCap),
		}
		if traced {
			c.starts = make([]int64, 0, latencyCap)
		}
		callers[i] = c
	}
	return callers
}
