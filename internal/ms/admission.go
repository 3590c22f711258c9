package ms

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control: the engine's overload armor. Two independent gates
// guard every request path (score, decide, ingest — single and batch):
//
//   - Per-caller token-bucket quotas (WithCallerQuota): each caller may
//     sustain `rate` transactions per second with bursts up to `burst`;
//     beyond that the request is refused with ErrRateLimited. One noisy
//     caller cannot starve the rest.
//
//   - Queue-depth load-shedding (WithMaxInflight): a hard bound on the
//     transactions concurrently inside the engine. At the bound new work
//     is refused with ErrOverloaded instead of queueing, so overload
//     degrades to fast typed 429s rather than collapsing the hot path
//     under unbounded goroutines and memory.
//
// Both errors map to HTTP 429 (codes "rate_limited" / "overloaded") with
// a Retry-After header. The contract is shed-before-accept: a request is
// either refused up front or fully served — admission never aborts work
// it has admitted.

// maxQuotaCallers bounds the per-caller bucket registry. Callers beyond
// the bound share one overflow bucket: an attacker inventing caller names
// cannot grow engine memory, and well-known callers keep exact quotas.
const maxQuotaCallers = 4096

// callerKey carries the caller identity in a request context.
type callerKey struct{}

// WithCallerContext tags ctx with the caller identity admission quotas
// are keyed by. The HTTP layer derives it from the X-Caller header;
// library callers tag their own contexts. An untagged context is the
// caller "default".
func WithCallerContext(ctx context.Context, caller string) context.Context {
	return context.WithValue(ctx, callerKey{}, caller)
}

// CallerFromContext returns the caller identity tagged by
// WithCallerContext ("default" when untagged).
func CallerFromContext(ctx context.Context) string {
	if c, ok := ctx.Value(callerKey{}).(string); ok && c != "" {
		return c
	}
	return "default"
}

// tokenBucket is one caller's quota: tokens refill continuously at rate
// per second up to burst; each admitted transaction consumes one.
// Correctness invariant (asserted under -race in admission_test.go): over
// any interval T the bucket admits at most burst + rate*T transactions.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	return &tokenBucket{tokens: burst, last: now, rate: rate, burst: burst}
}

// take consumes n tokens if available, refilling by elapsed time first.
func (b *tokenBucket) take(n float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// admission is the engine's admission gate. Zero-config fields disable
// the corresponding check, so an engine built with only WithMaxInflight
// pays nothing for quotas and vice versa.
type admission struct {
	rate        float64 // per-caller sustained transactions/sec (0: no quota)
	burst       float64 // per-caller burst allowance
	maxInflight int64   // concurrent transactions bound (0: no shed)

	inflight atomic.Int64

	mu       sync.Mutex
	buckets  map[string]*tokenBucket
	overflow *tokenBucket

	admitted     atomic.Int64 // transactions admitted
	shedQuota    atomic.Int64 // transactions refused by a caller quota
	shedInflight atomic.Int64 // transactions refused by the inflight bound

	// Per-caller counters back the /metrics caller label. Registered
	// under the same maxQuotaCallers bound as quota buckets — callers
	// beyond it share the "_overflow" row — so unbounded caller names
	// cannot grow the exposition.
	callers        map[string]*callerStat
	callerOverflow *callerStat
}

// callerStat is one caller's admission outcome counters.
type callerStat struct {
	admitted     atomic.Int64
	shedQuota    atomic.Int64
	shedInflight atomic.Int64
}

// callerStat resolves caller's counter row, creating it on first use.
func (a *admission) callerStat(caller string) *callerStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cs, ok := a.callers[caller]; ok {
		return cs
	}
	if len(a.callers) >= maxQuotaCallers {
		if a.callerOverflow == nil {
			a.callerOverflow = &callerStat{}
		}
		return a.callerOverflow
	}
	if a.callers == nil {
		a.callers = make(map[string]*callerStat)
	}
	cs := &callerStat{}
	a.callers[caller] = cs
	return cs
}

// stats snapshots the gate's counters, every caller's included (sorted by
// name, with the shared overflow row last as "_overflow"); nil without a
// gate.
func (a *admission) stats() *AdmissionStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	buckets := len(a.buckets)
	out := make([]CallerStats, 0, len(a.callers)+1)
	for name, cs := range a.callers {
		out = append(out, CallerStats{
			Caller:       name,
			Admitted:     cs.admitted.Load(),
			ShedQuota:    cs.shedQuota.Load(),
			ShedInflight: cs.shedInflight.Load(),
		})
	}
	overflow := a.callerOverflow
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Caller < out[j].Caller })
	if overflow != nil {
		out = append(out, CallerStats{
			Caller:       "_overflow",
			Admitted:     overflow.admitted.Load(),
			ShedQuota:    overflow.shedQuota.Load(),
			ShedInflight: overflow.shedInflight.Load(),
		})
	}
	return &AdmissionStats{
		PerCaller:    out,
		Admitted:     a.admitted.Load(),
		ShedQuota:    a.shedQuota.Load(),
		ShedInflight: a.shedInflight.Load(),
		Inflight:     a.inflight.Load(),
		MaxInflight:  a.maxInflight,
		Rate:         a.rate,
		Burst:        a.burst,
		Callers:      buckets,
	}
}

// bucket returns caller's quota bucket, creating it on first use. Once
// the registry is full, unknown callers share the overflow bucket.
func (a *admission) bucket(caller string, now time.Time) *tokenBucket {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.buckets[caller]; ok {
		return b
	}
	if len(a.buckets) >= maxQuotaCallers {
		if a.overflow == nil {
			a.overflow = newTokenBucket(a.rate, a.burst, now)
		}
		return a.overflow
	}
	if a.buckets == nil {
		a.buckets = make(map[string]*tokenBucket)
	}
	b := newTokenBucket(a.rate, a.burst, now)
	a.buckets[caller] = b
	return b
}

// admissionConfig returns the engine's admission gate, creating it on
// the first admission option.
func (s *Server) admissionConfig() *admission {
	if s.adm == nil {
		s.adm = &admission{}
	}
	return s.adm
}

// releaseFunc undoes an admission's inflight reservation.
type releaseFunc func()

func noRelease() {}

// admit runs both gates for n transactions from caller. On success the
// returned release must be called when the work completes (it frees the
// inflight reservation); on refusal the typed error reports which gate
// shed. The inflight slot is reserved before the quota check and
// released if the quota refuses, so a shed request leaves no residue.
func (a *admission) admit(caller string, n int) (releaseFunc, error) {
	cs := a.callerStat(caller)
	release := noRelease
	if a.maxInflight > 0 {
		if cur := a.inflight.Add(int64(n)); cur > a.maxInflight {
			a.inflight.Add(int64(-n))
			a.shedInflight.Add(int64(n))
			cs.shedInflight.Add(int64(n))
			return nil, fmt.Errorf("%w: %d transactions in flight, limit %d", ErrOverloaded, cur-int64(n), a.maxInflight)
		}
		release = func() { a.inflight.Add(int64(-n)) }
	}
	if a.rate > 0 {
		now := time.Now()
		if !a.bucket(caller, now).take(float64(n), now) {
			release()
			a.shedQuota.Add(int64(n))
			cs.shedQuota.Add(int64(n))
			return nil, fmt.Errorf("%w: caller %q over %g tx/s (burst %g)", ErrRateLimited, caller, a.rate, a.burst)
		}
	}
	a.admitted.Add(int64(n))
	cs.admitted.Add(int64(n))
	return release, nil
}

// Admit runs the engine's admission gates for n transactions on behalf
// of the caller tagged in ctx (see WithCallerContext). It returns a
// release function that MUST be called when the admitted work finishes.
// On an engine without admission control it is a cheap no-op. The HTTP
// layer admits every scoring, decision and ingest request through this;
// in-process load drivers call it around direct engine calls so library
// traffic honors the same quotas.
func (s *Server) Admit(ctx context.Context, n int) (func(), error) {
	if s.adm == nil {
		return noRelease, nil
	}
	rel, err := s.adm.admit(CallerFromContext(ctx), n)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// AdmissionEnabled reports whether the engine was built with any
// admission gate (WithCallerQuota or WithMaxInflight).
func (s *Server) AdmissionEnabled() bool { return s.adm != nil }
