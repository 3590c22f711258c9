// Package telemetry is the repo's observability plane: the shared
// lock-free latency histogram behind /v1/stats, /metrics and the load
// harness; request trace IDs minted at the wire tier and propagated in
// context; per-stage hot-path span aggregation with slowest-exemplar
// rings; and the hand-rolled Prometheus text exposition writer, parser
// and linter. Everything here is stdlib-only and allocation-free on the
// recording paths, so the serving tiers can run it unconditionally.
package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-size latency histogram with log-spaced buckets:
// recording is a lock-free O(log buckets) search plus two atomic adds,
// and a percentile read walks the bucket array once. It is the one
// histogram shared by the engine (/v1/stats latency sections), the wire
// router (per-shard latency trackers, hedge delay), the load harness
// (report quantiles) and /metrics — identical bounds everywhere, so no
// two surfaces can disagree on a quantile.
//
// Bucket i counts samples d with bounds[i-1] < d <= bounds[i]; the
// final bucket counts everything above the last bound. Percentiles are
// the upper bound of the bucket holding the target rank (clamped to the
// observed maximum): conservative estimates whose resolution is the
// bucket spacing.
type Histogram struct {
	bounds []time.Duration // ascending bucket upper bounds
	counts []atomic.Int64  // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64    // total observed nanoseconds (Prometheus _sum)
	max    atomic.Int64
}

// DefaultBounds covers 1µs to 100s on a geometric ×1.25 ladder (~84
// buckets): ~12% worst-case quantile error everywhere on the range, in
// particular fine enough around the SLO gate's 100ms p99 ceiling that a
// 60ms tail is not reported as 100ms (the old 1-2-5 decade ladder did
// exactly that).
func DefaultBounds() []time.Duration {
	var bs []time.Duration
	for b := float64(time.Microsecond); b < float64(100*time.Second); b *= 1.25 {
		bs = append(bs, time.Duration(b))
	}
	return bs
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Bounds are sanitised (sorted, deduplicated, non-positive
// dropped); an empty set falls back to DefaultBounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	bs := make([]time.Duration, 0, len(bounds))
	for _, b := range bounds {
		if b > 0 {
			bs = append(bs, b)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	dst := bs[:0]
	for i, b := range bs {
		if i == 0 || b != dst[len(dst)-1] {
			dst = append(dst, b)
		}
	}
	bs = dst
	if len(bs) == 0 {
		bs = DefaultBounds()
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Record adds one sample. Safe for concurrent use; does not allocate.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Max returns the largest sample observed so far.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistSnapshot is one reading of a Histogram, and its wire form on
// GET /v1/stats: nanosecond bucket bounds, per-bucket counts (the last
// entry is the overflow bucket) and the observed maximum. Raw buckets are
// what make a fleet view lossless — counts sum across shards and the
// quantiles recompute, where averaging per-shard percentiles would be
// meaningless. Sum rides along for /metrics only.
type HistSnapshot struct {
	Bounds []time.Duration `json:"bounds_ns"` // shared with the histogram; read-only
	Counts []int64         `json:"counts"`
	Max    time.Duration   `json:"max_ns"`
	Sum    time.Duration   `json:"-"`
}

// Snapshot reads the histogram once: every figure a caller derives from
// the result — total, quantiles, the raw buckets — describes the same
// instant.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts)), Max: h.Max(), Sum: h.Sum()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Total returns the number of samples in the snapshot.
func (s *HistSnapshot) Total() int64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Quantile reads the p-quantile (0 < p <= 1) out of the snapshot.
func (s *HistSnapshot) Quantile(p float64) time.Duration {
	return Quantile(s.Bounds, s.Counts, s.Total(), s.Max, p)
}

// Quantile reads the p-quantile (0 < p <= 1) from the live histogram.
func (h *Histogram) Quantile(p float64) time.Duration { return h.Snapshot().Quantile(p) }

// Quantile reads the p-quantile (0 < p <= 1) out of a snapshot: the
// upper bound of the bucket containing rank ceil(p·total), clamped to
// the observed maximum. This is the single quantile definition every
// surface uses — the engine's /v1/stats, the router's merged fleet
// view, the load report — so a merged quantile computed from summed
// buckets is bitwise-identical to the whole-population quantile over
// the same samples.
func Quantile(bounds []time.Duration, counts []int64, total int64, max time.Duration, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bounds) && bounds[i] < max {
				return bounds[i]
			}
			return max
		}
	}
	return max
}

// MergeSnapshots sums same-shaped snapshots bucket-wise; nil entries are
// skipped. It returns nil when there is nothing to merge or the bucket
// shapes disagree (mixed server builds) — callers fall back to
// worst-shard percentiles rather than merging incompatible buckets.
func MergeSnapshots(snaps []*HistSnapshot) *HistSnapshot {
	var out *HistSnapshot
	for _, s := range snaps {
		switch {
		case s == nil:
		case out == nil:
			out = &HistSnapshot{Bounds: s.Bounds, Counts: append([]int64(nil), s.Counts...), Max: s.Max, Sum: s.Sum}
		case !slices.Equal(s.Bounds, out.Bounds) || len(s.Counts) != len(out.Counts):
			return nil
		default:
			for i, c := range s.Counts {
				out.Counts[i] += c
			}
			out.Max = max(out.Max, s.Max)
			out.Sum += s.Sum
		}
	}
	if out != nil && len(out.Counts) != len(out.Bounds)+1 {
		return nil
	}
	return out
}
