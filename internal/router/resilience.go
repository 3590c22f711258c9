package router

import (
	"context"
	"errors"
	"sync"
	"time"

	"titant/internal/link"
	"titant/internal/rng"
	"titant/internal/telemetry"
)

// The resilience plane: every proxied shard call runs through a
// per-shard circuit breaker, a bounded retry loop with full-jitter
// exponential backoff (idempotent ops only), and a deadline budget that
// guarantees the gather finishes before the caller gives up. Single-
// shard reads can additionally hedge: a second identical request after a
// p99-derived delay, first response wins, loser cancelled.

// Typed internal failures the classifier maps to wire codes.
var (
	// errCircuitOpen marks a call refused locally because the shard's
	// breaker is open: the shard was not contacted at all.
	errCircuitOpen = errors.New("router: circuit open")
	// errBudgetExhausted marks a call abandoned because the caller's
	// deadline budget ran out before (another) attempt could start.
	errBudgetExhausted = errors.New("router: deadline budget exhausted")
)

// BreakerConfig tunes the per-shard circuit breakers. Zero fields take
// the defaults.
type BreakerConfig struct {
	// ConsecutiveFails trips the breaker after this many consecutive
	// failures (default 5).
	ConsecutiveFails int
	// ErrorRate trips the breaker when the failure fraction over a full
	// Window of outcomes reaches this level (default 0.5).
	ErrorRate float64
	// Window is the sliding outcome window the error rate is computed
	// over (default 20).
	Window int
	// Cooldown is how long an open breaker waits before letting one
	// half-open probe through (default 1s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFails <= 0 {
		c.ConsecutiveFails = 5
	}
	if c.ErrorRate <= 0 {
		c.ErrorRate = 0.5
	}
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// Breaker states. A breaker is closed (traffic flows, outcomes are
// recorded), open (calls fail fast without touching the shard), or
// half-open (exactly one probe in flight decides: success closes,
// failure re-opens).
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

func breakerStateName(s int) string {
	switch s {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half_open"
	}
	return "closed"
}

// breaker is one shard's circuit breaker. A "failure" is a transport
// error or a 5xx — a shard that answers 4xx is healthy and refusing,
// which must not poison its circuit.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu       sync.Mutex
	state    int
	consec   int    // consecutive failures while closed
	ring     []bool // sliding outcome window, true = failure
	ringN    int    // outcomes recorded (saturates at len(ring))
	ringIdx  int
	fails    int // failures currently inside the ring
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	// Lifetime counters for the stats section.
	opens     int64
	halfOpens int64
	probes    int64
	failures  int64
	successes int64
}

func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, now: now, ring: make([]bool, cfg.Window)}
}

// allow reports whether a call may proceed. probe is true when the call
// is the half-open probe; the caller must hand it back via record (or
// cancelProbe if the call never launched).
func (b *breaker) allow() (probe, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return false, true
	case brOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.state = brHalfOpen
		b.halfOpens++
		b.probing = false
	}
	// Half-open: one probe at a time.
	if b.probing {
		return false, false
	}
	b.probing = true
	b.probes++
	return true, true
}

// cancelProbe releases a probe slot for a call that never launched.
func (b *breaker) cancelProbe(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	if b.state == brHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// trip opens the breaker. Caller holds b.mu.
func (b *breaker) trip() {
	b.state = brOpen
	b.openedAt = b.now()
	b.opens++
	b.probing = false
	b.consec = 0
	b.ringN, b.ringIdx, b.fails = 0, 0, 0
}

// record lands one call outcome.
func (b *breaker) record(fail, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fail {
		b.failures++
	} else {
		b.successes++
	}
	switch b.state {
	case brHalfOpen:
		if probe {
			b.probing = false
		}
		if fail {
			b.trip()
		} else {
			b.state = brClosed
		}
	case brClosed:
		if fail {
			b.consec++
		} else {
			b.consec = 0
		}
		if b.ringN == len(b.ring) && b.ring[b.ringIdx] {
			b.fails--
		}
		b.ring[b.ringIdx] = fail
		if fail {
			b.fails++
		}
		b.ringIdx = (b.ringIdx + 1) % len(b.ring)
		if b.ringN < len(b.ring) {
			b.ringN++
		}
		if b.consec >= b.cfg.ConsecutiveFails ||
			(b.ringN == len(b.ring) && float64(b.fails) >= b.cfg.ErrorRate*float64(b.ringN)) {
			b.trip()
		}
	}
	// Open: a straggler from before the trip carries no new information.
}

// state returns the current state, advancing open→half-open if the
// cooldown has elapsed (so observers see the truth, not a stale "open").
func (b *breaker) currentState() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == brOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return brHalfOpen
	}
	return b.state
}

// stats snapshots the breaker's state and lifetime counters next to one
// reading of the shard's call-latency histogram.
func (b *breaker) stats(shard int, lat *telemetry.HistSnapshot) BreakerStats {
	state := breakerStateName(b.currentState())
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		Shard: shard, State: state,
		Opens: b.opens, HalfOpens: b.halfOpens, Probes: b.probes,
		Failures: b.failures, Successes: b.successes,
		P99: lat.Quantile(0.99).Microseconds(), Latency: lat,
	}
}

// lockedRand is a mutex-guarded seeded RNG for backoff jitter. A fixed
// seed keeps chaos runs reproducible; jitter decorrelates retries within
// a run, which needs no cross-run entropy.
type lockedRand struct {
	mu sync.Mutex
	r  *rng.RNG
}

func newLockedRand(seed uint64) *lockedRand { return &lockedRand{r: rng.New(seed)} }

func (lr *lockedRand) Float64() float64 {
	lr.mu.Lock()
	v := lr.r.Float64()
	lr.mu.Unlock()
	return v
}

// backoffWait sleeps the full-jitter exponential backoff before retry
// number `attempt` (1-based), bounded by the deadline: it returns false
// when there is no room left to retry (the caller should give up with
// the last failure rather than blow the budget sleeping).
func (rt *Router) backoffWait(ctx context.Context, attempt int, deadline time.Time) bool {
	max := rt.backoff << uint(attempt-1)
	if max > rt.backoffCap {
		max = rt.backoffCap
	}
	d := time.Duration(rt.rnd.Float64() * float64(max))
	if !rt.now().Add(d).Before(deadline) {
		return false
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// resilientCall drives one logical shard call through the breaker and
// the retry loop. Non-retryable specs get exactly one attempt;
// retryable specs (idempotent ops) get up to 1+retries, each behind a
// fresh breaker check so a circuit that opens mid-loop stops the
// hammering immediately — and one that half-opens mid-loop lets the
// retry double as the probe. The caller releases the answer returned.
func (rt *Router) resilientCall(ctx context.Context, h *link.Header, deadline time.Time, spec callSpec) upstream {
	attempts := 1
	if spec.retryable && rt.retries > 0 {
		attempts += rt.retries
	}
	var last upstream
	for a := 0; a < attempts; a++ {
		if a > 0 {
			bstart := rt.now()
			if !rt.backoffWait(ctx, a, deadline) {
				break
			}
			if spec.spans != nil {
				spec.spans[telemetry.StageRetry] += rt.now().Sub(bstart)
			}
			rt.retried.Add(1)
		}
		var probe, ok bool
		if !spec.noBreaker {
			probe, ok = rt.brk[spec.shard].allow()
			if !ok {
				last.release()
				last = upstream{err: errCircuitOpen}
				continue
			}
		}
		start := rt.now()
		u := rt.attempt(ctx, h, deadline, &spec)
		if errors.Is(u.err, errBudgetExhausted) {
			if !spec.noBreaker {
				// Never launched: not evidence about the shard.
				rt.brk[spec.shard].cancelProbe(probe)
			}
			rt.deadlines.Add(1)
			last.release()
			return u
		}
		fail := u.err != nil || u.Status >= 500
		if !spec.noBreaker {
			rt.brk[spec.shard].record(fail, probe)
		}
		last.release()
		if !fail {
			rt.lat[spec.shard].Record(rt.now().Sub(start))
			return u
		}
		last = u
	}
	return last
}

// hedgedCall wraps resilientCall with tail-latency hedging for
// idempotent single-shard reads: if the first leg has not answered
// within the shard's p99 (floored at the configured hedge delay), a
// second identical leg launches; the first *success* wins and the loser
// is cancelled. Failures do not hedge — a leg that exhausted its retries
// reports, it does not spawn copies.
func (rt *Router) hedgedCall(ctx context.Context, h *link.Header, deadline time.Time, spec callSpec) upstream {
	if rt.hedgeFloor <= 0 || !spec.hedged {
		return rt.resilientCall(ctx, h, deadline, spec)
	}
	delay := rt.lat[spec.shard].Quantile(0.99)
	if delay < rt.hedgeFloor {
		delay = rt.hedgeFloor
	}
	if rem := deadline.Sub(rt.now()); delay > rem/2 {
		delay = rem / 2
	}
	type legResult struct {
		u   upstream
		leg int
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing leg
	ch := make(chan legResult, 2)
	// Each leg records into its own span buffer — the two legs run
	// concurrently, so they must not share the caller's. The winner's
	// retry time folds back into the caller's spans on return. The legs
	// read a copy of the slots: the losing one may outlive this call.
	parent, slots := spec.spans, *h
	var legSpans [2]telemetry.Spans
	launch := func(leg int) {
		s := spec
		s.spans = &legSpans[leg]
		go func() { ch <- legResult{rt.resilientCall(cctx, &slots, deadline, s), leg} }()
	}
	merge := func(leg int) {
		if parent != nil {
			parent[telemetry.StageRetry] += legSpans[leg][telemetry.StageRetry]
		}
	}
	launch(0)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, pending := 1, 1
	var firstFail *upstream
	firstFailLeg := 0
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				launched++
				pending++
				rt.hedges.Add(1)
				if parent != nil {
					parent[telemetry.StageHedge] = delay
				}
				launch(1)
			}
		case r := <-ch:
			pending--
			if fail := r.u.err != nil || r.u.Status >= 500; !fail {
				if r.leg == 1 {
					rt.hedgeWins.Add(1)
				}
				if firstFail != nil {
					firstFail.release()
				}
				merge(r.leg)
				return r.u
			}
			if firstFail == nil {
				firstFail = &r.u
				firstFailLeg = r.leg
			}
			if pending == 0 {
				// Both legs failed — or the only leg failed before the
				// hedge fired: don't hedge a failure, report it.
				merge(firstFailLeg)
				return *firstFail
			}
		}
	}
}
