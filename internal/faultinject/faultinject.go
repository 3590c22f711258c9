// Package faultinject is the chaos layer that makes the wire tier's
// resilience claims falsifiable. It wraps the router's call seam
// (link.Caller) with a seeded, scripted fault scenario — above the shard
// link, so the faults break the production path: per-shard latency injection,
// blackholes (the request hangs until the caller's deadline fires),
// connection resets, 5xx bursts and dropped responses (the request is
// delivered but the reply is lost — the fault class that turns naive
// retries into duplicate side effects).
//
// A Scenario is a list of Rules, each scoped to a shard, a time window
// relative to Start, an optional path prefix and an optional probability
// drawn from the scenario seed. The same scenario against the same
// traffic produces the same fault schedule, so a chaos run is a
// regression test, not a dice roll: the tier-1 chaos test and the
// `titant loadgen -chaos` harness both run scripts from this package and
// assert on the outcome.
package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/link"
	"titant/internal/rng"
)

// Fault kinds a Rule can inject.
const (
	// KindLatency delays the request by LatencyMs before forwarding it.
	KindLatency = "latency"
	// KindBlackhole swallows the request: it is never forwarded and the
	// call blocks until the caller's context expires (a dead host behind
	// a silently dropping network).
	KindBlackhole = "blackhole"
	// KindReset fails the request immediately with a connection-reset
	// error; the request is never forwarded.
	KindReset = "reset"
	// KindHTTPError answers with a synthesized Status (default 500)
	// without forwarding the request (an overloaded or crashing server
	// whose frontend still answers).
	KindHTTPError = "http_error"
	// KindDropResponse forwards the request to the real server, then
	// discards the response and reports a reset. The side effect
	// happened; the caller cannot know. This is the fault that proves
	// at-most-once semantics: a layer that retries through it duplicates
	// work.
	KindDropResponse = "drop_response"
)

var validKinds = map[string]bool{
	KindLatency: true, KindBlackhole: true, KindReset: true,
	KindHTTPError: true, KindDropResponse: true,
}

// ErrReset is the transport error surfaced by KindReset and
// KindDropResponse faults.
var ErrReset = errors.New("faultinject: connection reset by peer")

// Rule is one scripted fault: on calls to Shard whose route's path starts
// with Path (empty: any), between StartMs and EndMs after the scenario
// starts, inject Kind with probability Prob.
type Rule struct {
	// Shard is the target shard index; -1 matches every shard.
	Shard int `json:"shard"`
	// StartMs/EndMs bound the fault window in milliseconds since
	// Transport.Start. EndMs 0 leaves the window open-ended.
	StartMs int64 `json:"start_ms"`
	EndMs   int64 `json:"end_ms,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// LatencyMs is the added delay for KindLatency rules.
	LatencyMs int64 `json:"latency_ms,omitempty"`
	// Status is the synthesized response code for KindHTTPError (0: 500).
	Status int `json:"status,omitempty"`
	// Prob is the fraction of matched requests the fault hits, drawn
	// from the scenario seed (0 or 1: every matched request).
	Prob float64 `json:"prob,omitempty"`
	// Path restricts the rule to request paths with this prefix.
	Path string `json:"path,omitempty"`
}

// Scenario is a seeded fault script.
type Scenario struct {
	// Seed drives the probabilistic rules; the same seed replays the
	// same coin flips in dispatch order.
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate rejects rules with unknown kinds, negative windows or
// out-of-range probabilities.
func (s *Scenario) Validate() error {
	for i, r := range s.Rules {
		if !validKinds[r.Kind] {
			return fmt.Errorf("faultinject: rule %d: unknown kind %q", i, r.Kind)
		}
		if r.StartMs < 0 || (r.EndMs != 0 && r.EndMs < r.StartMs) {
			return fmt.Errorf("faultinject: rule %d: window [%d,%d) is invalid", i, r.StartMs, r.EndMs)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("faultinject: rule %d: probability %g out of [0,1]", i, r.Prob)
		}
		if r.Kind == KindLatency && r.LatencyMs <= 0 {
			return fmt.Errorf("faultinject: rule %d: latency rule needs latency_ms > 0", i)
		}
	}
	return nil
}

// ParseScenario decodes a scenario script, rejecting unknown fields so a
// typo in a rule cannot silently disable a fault.
func ParseScenario(raw []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faultinject: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// RuleStats counts one rule's activity.
type RuleStats struct {
	Kind    string `json:"kind"`
	Shard   int    `json:"shard"`
	Hits    int64  `json:"hits"`      // requests the rule fired on
	Applied int64  `json:"delivered"` // of those, requests still delivered upstream
}

// Transport injects a scenario's faults into calls passing through a
// base Caller, matching rules by the call's shard index. Safe for
// concurrent use.
type Transport struct {
	base link.Caller
	sc   *Scenario

	mu      sync.Mutex
	r       *rng.RNG
	started time.Time

	hits    []atomic.Int64 // per rule
	applied []atomic.Int64

	forwarded atomic.Int64 // requests delivered upstream (fault or not)
}

// NewTransport wraps base with the scenario's faults. The fault clock
// starts at the first call unless Start is called explicitly.
func NewTransport(base link.Caller, sc *Scenario) *Transport {
	return &Transport{
		base:    base,
		sc:      sc,
		r:       rng.New(sc.Seed),
		hits:    make([]atomic.Int64, len(sc.Rules)),
		applied: make([]atomic.Int64, len(sc.Rules)),
	}
}

// Start pins the scenario clock; rules' windows are relative to it.
// Idempotent: the first of Start or the first request wins.
func (t *Transport) Start(now time.Time) {
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = now
	}
	t.mu.Unlock()
}

// elapsed returns milliseconds since the scenario clock started,
// starting it lazily.
func (t *Transport) elapsed(now time.Time) int64 {
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = now
	}
	d := now.Sub(t.started)
	t.mu.Unlock()
	return d.Milliseconds()
}

// flip draws one seeded coin.
func (t *Transport) flip(p float64) bool {
	t.mu.Lock()
	ok := t.r.Float64() < p
	t.mu.Unlock()
	return ok
}

// match returns the first rule active for this call, or -1.
func (t *Transport) match(c *link.Call, nowMs int64) int {
	for i := range t.sc.Rules {
		r := &t.sc.Rules[i]
		if r.Shard != -1 && r.Shard != c.Shard {
			continue
		}
		if nowMs < r.StartMs || (r.EndMs != 0 && nowMs >= r.EndMs) {
			continue
		}
		if r.Path != "" && !strings.HasPrefix(link.Routes[c.Route].Path, r.Path) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !t.flip(r.Prob) {
			continue
		}
		return i
	}
	return -1
}

// Do implements link.Caller: it applies the first active rule, if any,
// then (depending on the fault) forwards the call to the base Caller.
func (t *Transport) Do(ctx context.Context, c *link.Call) error {
	ri := t.match(c, t.elapsed(time.Now()))
	if ri < 0 {
		t.forwarded.Add(1)
		return t.base.Do(ctx, c)
	}
	rule := &t.sc.Rules[ri]
	t.hits[ri].Add(1)
	switch rule.Kind {
	case KindLatency:
		if err := hold(ctx, c, time.Duration(rule.LatencyMs)*time.Millisecond); err != nil {
			return err
		}
		t.applied[ri].Add(1)
		t.forwarded.Add(1)
		return t.base.Do(ctx, c)
	case KindBlackhole:
		return hold(ctx, c, -1)
	case KindReset:
		return ErrReset
	case KindHTTPError:
		status := rule.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		c.Status, c.Answer[link.SlotContentType] = status, []byte(link.JSON)
		c.Body = fmt.Appendf(nil, `{"error":{"code":"injected","message":"faultinject: synthesized %d"}}`, status)
		return nil
	case KindDropResponse:
		t.applied[ri].Add(1)
		t.forwarded.Add(1)
		if err := t.base.Do(ctx, c); err != nil {
			return err
		}
		// The server did the work; the reply is lost on the wire.
		return ErrReset
	}
	// Unreachable after Validate; fail loudly rather than pass silently.
	return fmt.Errorf("faultinject: unhandled kind %q", rule.Kind)
}

// hold keeps a call for d (d < 0: for ever) as the wire would: until ctx
// ends or the call's Timeout passes, which is its error.
func hold(ctx context.Context, c *link.Call, d time.Duration) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	if d < 0 {
		d = math.MaxInt64
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Forwarded counts the calls actually delivered to the base Caller
// (including ones whose answers were then dropped).
func (t *Transport) Forwarded() int64 { return t.forwarded.Load() }

// Stats snapshots per-rule activity in rule order.
func (t *Transport) Stats() []RuleStats {
	out := make([]RuleStats, len(t.sc.Rules))
	for i := range t.sc.Rules {
		out[i] = RuleStats{
			Kind:    t.sc.Rules[i].Kind,
			Shard:   t.sc.Rules[i].Shard,
			Hits:    t.hits[i].Load(),
			Applied: t.applied[i].Load(),
		}
	}
	return out
}
