package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	// scratchRoot holds every store a run opens; it lives under the
	// build directory so nothing is written outside the checkout.
	scratchRoot = ".bench_build/tmp"
	// timedSlices is how many slices --seconds is split into. Every
	// timing metric is computed per slice and the median slice reported.
	timedSlices = 5
	// warmUp is the untimed closed-loop time before the first slice.
	warmUp = 2 * time.Second
)

// runConfig is one run's command line.
type runConfig struct {
	seed    uint64 // traffic seed: which users transact, amounts, times
	seconds int    // total timed seconds
}

// setUp composes, trains, deploys and opens the workload.
func setUp(s spec) (*fixture, *target, error) {
	fx, err := newFixture(worldSeed, filepath.Join(scratchRoot, strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	tgt, err := fx.open(s)
	if err != nil {
		fx.close()
		return nil, nil, err
	}
	return fx, tgt, nil
}

// checkParity runs the parity pass through tgt and compares it with the
// single-engine reference. A path error or any differing bit is an
// incorrect run; the transactions it left unanswered count as failed.
func checkParity(ctx context.Context, log io.Writer, fx *fixture, tgt *target, s spec) (got grade, correct bool, failed int64, err error) {
	ref, err := fx.reference(ctx)
	if err != nil {
		return grade{}, false, 0, err
	}
	got, perr := parityPass(ctx, tgt, fx.parity, s.batch)
	switch {
	case perr != nil:
		fmt.Fprintf(log, "parity pass failed: %v\n", perr)
		return ref, false, int64(len(fx.parity)), nil
	case got != ref:
		fmt.Fprintf(log, "parity MISMATCH: %s answered digest %s recall %.4f fpr %.5f, single engine %s %.4f %.5f\n",
			s.name, got.digest, got.recall, got.fpr, ref.digest, ref.recall, ref.fpr)
		return got, false, 0, nil
	}
	fmt.Fprintf(log, "parity ok: %d transactions, digest %s, recall %.4f, fpr %.5f\n", len(fx.parity), got.digest, got.recall, got.fpr)
	return got, true, 0, nil
}

// loopSeries appends one slice's closed-loop clock to series.
func loopSeries(series map[string][]float64, r *sliceResult) {
	n := float64(r.txns)
	series["proc.txn_per_s"] = append(series["proc.txn_per_s"], n/r.wall)
	series["proc.cpu_us_per_txn"] = append(series["proc.cpu_us_per_txn"], r.cpu*1e6/n)
	series["proc.latency_p50_us"] = append(series["proc.latency_p50_us"], quantile(r.lat, 0.50)/1e3)
	series["proc.latency_p99_us"] = append(series["proc.latency_p99_us"], quantile(r.lat, 0.99)/1e3)
}

// printSeries prints the median, min and max over slices of every
// metric of defs that series holds, and returns the medians.
func printSeries(log io.Writer, defs []metricDef, series map[string][]float64) map[string]float64 {
	values := make(map[string]float64, len(series))
	for _, def := range defs {
		vals, ok := series[def.name]
		if !ok {
			continue // newResult names the metric nobody measured
		}
		values[def.name] = median(vals)
		lo, hi := minMax(vals)
		fmt.Fprintf(log, "  %-20s %14.4f %-6s %14.4f %14.4f\n", def.name, values[def.name], def.unit, lo, hi)
	}
	return values
}

// runUntraced is the end-to-end run: set-up, parity pass, untimed
// warm-up, then the timed slices.
func runUntraced(cfg runConfig, s spec, log io.Writer) (*result, error) {
	ctx := context.Background()
	start := time.Now()
	fx, tgt, err := setUp(s)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	setup := time.Since(start).Seconds()

	got, correct, failed, err := checkParity(ctx, log, fx, tgt, s)
	if err != nil {
		return nil, err
	}
	attempted := int64(len(fx.parity))

	callers := fx.newCallers(s, cfg.seed, false)
	fx.forget()
	merged := make([]uint32, 0, len(callers)*latencyCap)
	slice := time.Duration(cfg.seconds) * time.Second / timedSlices
	epoch := time.Now()
	if _, err := runSlice(ctx, tgt, callers, warmUp, epoch, merged); err != nil {
		return nil, err
	}

	series := map[string][]float64{}
	var samples int
	for i := 0; i < timedSlices; i++ {
		r, err := runSlice(ctx, tgt, callers, slice, epoch, merged)
		if err != nil {
			return nil, err
		}
		attempted += r.attempted
		failed += r.failed
		if r.txns == 0 {
			return nil, fmt.Errorf("slice %d completed no transaction", i)
		}
		if q := tailQuantile(len(r.lat)); q < 0.99 {
			fmt.Fprintf(log, "  warning: slice %d has %d latency samples; the highest percentile with ten samples beyond it is p%g, so its p99 is loose (run longer)\n", i, len(r.lat), 100*q)
		}
		samples += len(r.lat)
		n := float64(r.txns)
		loopSeries(series, &r)
		series["allocs_per_txn"] = append(series["allocs_per_txn"], float64(r.mallocs)/n)
		series["bytes_per_txn"] = append(series["bytes_per_txn"], float64(r.bytes)/n)
		fmt.Fprintf(log, "  slice %d: %.0f txn/s, %.3f cpu-us/txn, p50 %.1f us, p99 %.1f us, %d calls\n",
			i, n/r.wall, r.cpu*1e6/n, quantile(r.lat, 0.50)/1e3, quantile(r.lat, 0.99)/1e3, len(r.lat))
	}
	series["setup_s"] = []float64{setup}
	series["recall"] = []float64{got.recall}

	// Live heap of the serving stack alone: the parity reference was
	// released, the world and the training artifacts forgotten, and the
	// harness's sample buffers go now.
	callers, merged = nil, nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	series["live_heap_mb"] = []float64{float64(mem.HeapAlloc) / (1 << 20)}
	runtime.KeepAlive(tgt)

	fmt.Fprintf(log, "%s seed %d: %d slices of %s, %d callers, %d latency samples\n",
		s.name, cfg.seed, timedSlices, slice, runtime.GOMAXPROCS(0), samples)
	fmt.Fprintf(log, "  %-20s %14s %-6s %14s %14s\n", "metric", "median", "unit", "min", "max")
	values := printSeries(log, slices.Concat(endToEnd, closedLoop), series)
	fmt.Fprintf(log, "  failed %d of %d attempted (error_share %.6f)\n", failed, attempted, float64(failed)/float64(attempted))
	return newResult(endToEnd, values, correct, attempted, failed)
}
