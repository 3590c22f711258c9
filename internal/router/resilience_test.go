package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/faultinject"
	"titant/internal/link"
	"titant/internal/ms"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// policyOpts is streamOpts plus a baseline decision policy, for fleets
// exercising the decide and control-plane routes.
func policyOpts(t *testing.T) func() []ms.Option {
	t.Helper()
	pol, err := decision.Parse([]byte(`{
	  "version": "pol-base",
	  "scenarios": {"default": {"bands": [
	    {"min": 0, "max": 0.5, "action": "approve"},
	    {"min": 0.5, "max": 1, "action": "deny"}
	  ]}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return func() []ms.Option {
		return append(streamOpts(), ms.WithPolicy(pol))
	}
}

// --- breaker unit tests (fake clock) ---

func TestBreakerConsecutiveTrip(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(BreakerConfig{ConsecutiveFails: 3, Cooldown: time.Second}, clock)

	for i := 0; i < 2; i++ {
		if _, ok := b.allow(); !ok {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.record(true, false)
	}
	if b.currentState() != brClosed {
		t.Fatal("tripped before threshold")
	}
	b.allow()
	b.record(true, false)
	if b.currentState() != brOpen {
		t.Fatal("3 consecutive failures did not trip")
	}
	if _, ok := b.allow(); ok {
		t.Fatal("open breaker allowed a call inside cooldown")
	}

	// Cooldown elapses: exactly one half-open probe goes through.
	now = now.Add(time.Second)
	probe, ok := b.allow()
	if !ok || !probe {
		t.Fatalf("half-open probe: probe=%v ok=%v", probe, ok)
	}
	if _, ok := b.allow(); ok {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe succeeds: breaker closes, consecutive counter reset.
	b.record(false, probe)
	if b.currentState() != brClosed {
		t.Fatal("successful probe did not close the breaker")
	}

	// Trip again; failed probe re-opens and restarts the cooldown.
	for i := 0; i < 3; i++ {
		b.allow()
		b.record(true, false)
	}
	now = now.Add(time.Second)
	probe, _ = b.allow()
	b.record(true, probe)
	if b.currentState() != brOpen {
		t.Fatal("failed probe did not re-open")
	}
	if _, ok := b.allow(); ok {
		t.Fatal("re-opened breaker allowed a call before a fresh cooldown")
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(BreakerConfig{ConsecutiveFails: 100, ErrorRate: 0.5, Window: 10, Cooldown: time.Second},
		func() time.Time { return now })
	// Alternate success/failure: never 100 consecutive, but once the
	// window fills at 50% failures the rate condition trips.
	for i := 0; i < 10; i++ {
		if b.currentState() == brOpen {
			break
		}
		b.allow()
		b.record(i%2 == 0, false)
	}
	if b.currentState() != brOpen {
		t.Fatal("50% error rate over a full window did not trip")
	}
}

func TestBreakerProbeCancelReleasesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(BreakerConfig{ConsecutiveFails: 1, Cooldown: time.Second}, func() time.Time { return now })
	b.allow()
	b.record(true, false)
	now = now.Add(time.Second)
	probe, ok := b.allow()
	if !ok {
		t.Fatal("no probe after cooldown")
	}
	b.cancelProbe(probe)
	if _, ok := b.allow(); !ok {
		t.Fatal("cancelled probe did not release the half-open slot")
	}
}

func TestMaxRetryAfter(t *testing.T) {
	mk := func(ra string) upstream {
		c := &link.Call{Status: 429}
		c.Answer[link.SlotRetryAfter] = []byte(ra)
		return upstream{Call: c}
	}
	if got := maxRetryAfter([]upstream{mk("3"), mk("11"), mk("7"), {}}); got != "11" {
		t.Fatalf("max Retry-After = %q, want 11", got)
	}
	if got := maxRetryAfter([]upstream{mk(""), {}}); got != "" {
		t.Fatalf("no Retry-After anywhere, got %q", got)
	}
}

// --- wire-level tests against scripted fake shards ---

// fakeShard is a minimal shard-surface HTTP server whose behavior per
// request is scripted by fn (return status, body). Like a shard built
// before the link it has no /v1/link, so the router's one probe is
// answered 404 without reaching fn and every call arrives over HTTP.
func fakeShard(t *testing.T, fn http.HandlerFunc) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == link.Path {
			http.NotFound(w, r)
			return
		}
		fn(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// userOwnedBy finds a user id that ms.ShardOf maps to the given shard.
func userOwnedBy(t *testing.T, shard, n int) int32 {
	t.Helper()
	for u := 0; u < 10000; u++ {
		if ms.ShardOf(txn.UserID(u), n) == shard {
			return int32(u)
		}
	}
	t.Fatalf("no user maps to shard %d of %d", shard, n)
	return -1
}

func newTestRouter(t *testing.T, urls []string, opts ...Option) *Router {
	t.Helper()
	rt, err := New(urls, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func doReq(t *testing.T, h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRouterRetriesTransient: a shard failing its first two attempts
// with 500s answers on the third; the idempotent single score retries
// through and succeeds, and the retry counter shows it.
func TestRouterRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":{"code":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.25,"fraud":false}`)
	})
	rt := newTestRouter(t, []string{shard.URL},
		WithRetries(2, time.Millisecond, 5*time.Millisecond))
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3}`), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("shard saw %d attempts, want 3", got)
	}
	if got := rt.retried.Load(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestRouterIngestAtMostOnce: the acceptance proof that retries never
// duplicate ingest side effects. A drop_response fault delivers every
// request but loses every reply — the worst case for a naive retrier.
// Without an idempotency key the shard must see exactly one delivery
// per request; with the caller's explicit X-Idempotency-Key opt-in the
// retries flow — three deliveries — and the shard's key table applies
// them once. Score, being idempotent, retries through the same fault.
// The shard is a real engine, and the fault sits above the shard link,
// so what it drops are link answers: the production path, not an HTTP
// stand-in.
func TestRouterIngestAtMostOnce(t *testing.T) {
	srv, err := ms.New(seedTable(t), toyBundle(t), streamOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	shard := httptest.NewServer(srv.Handler())
	t.Cleanup(shard.Close)
	sc := &faultinject.Scenario{Seed: 1, Rules: []faultinject.Rule{
		{Shard: 0, Kind: faultinject.KindDropResponse},
	}}
	rt := newTestRouter(t, []string{shard.URL},
		WithRetries(2, time.Millisecond, 5*time.Millisecond),
		WithBreaker(BreakerConfig{ConsecutiveFails: 100}))
	var tr *faultinject.Transport
	rt.Wrap(func(c link.Caller) link.Caller {
		tr = faultinject.NewTransport(c, sc)
		return tr
	})
	applied := func() int64 { return *srv.Stats().Ingested }

	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/ingest", []byte(`{"id":1,"day":1,"sec":5,"from":3,"to":4,"amount":10}`), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("dropped-reply ingest: %d, want 503", w.Code)
	}
	if got, fwd := applied(), tr.Forwarded(); got != 1 || fwd != 1 {
		t.Fatalf("at-most-once violated: %d deliveries, %d applications for one request", fwd, got)
	}

	// The caller opts into replays: retries now flow (1 + 2 retries), and
	// the shard applies the first and answers the replays from its table.
	doReq(t, rt.Handler(), http.MethodPost, "/v1/ingest", []byte(`{"id":2,"day":1,"sec":6,"from":3,"to":4,"amount":10}`),
		map[string]string{"X-Idempotency-Key": "k-1"})
	if got, fwd, dd := applied()-1, tr.Forwarded()-1, *srv.Stats().IngestDeduped; got != 1 || fwd != 3 || dd != 2 {
		t.Fatalf("keyed ingest: %d deliveries, %d applications, %d replays deduped; want 3, 1, 2", fwd, got, dd)
	}

	// Idempotent reads retry by default through the same fault.
	doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3,"amount":10}`), nil)
	if fwd := tr.Forwarded(); fwd != 7 || rt.link.Calls.Load() != 7 {
		t.Fatalf("chaos proxy forwarded %d calls, %d of them by link; want 7, 7", fwd, rt.link.Calls.Load())
	}
}

// TestRouterDeadlineBudget: a caller-supplied X-Deadline-Ms bounds the
// whole call; a shard slower than the budget yields a fast 504
// deadline_exceeded, not a 2s hang, and the deadline header reaching
// the shard never exceeds what the caller offered.
func TestRouterDeadlineBudget(t *testing.T) {
	var gotDeadline atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(HeaderDeadline); v != "" {
			var msv int64
			fmt.Sscanf(v, "%d", &msv)
			gotDeadline.Store(msv)
		}
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
	})
	rt := newTestRouter(t, []string{shard.URL})
	start := time.Now()
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3}`),
		map[string]string{HeaderDeadline: "100"})
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != ms.CodeDeadlineExceeded {
		t.Fatalf("envelope %s", w.Body.String())
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("budgeted call took %v, want well under the shard's 2s", elapsed)
	}
	if d := gotDeadline.Load(); d <= 0 || d > 100 {
		t.Fatalf("shard saw X-Deadline-Ms %d, want (0,100]", d)
	}
	if rt.deadlines.Load() == 0 {
		t.Fatal("deadline_exhausted counter did not move")
	}
}

// TestRouterBreakerOpensAndRecovers: a shard that starts failing trips
// its breaker (visible in /v1/stats), calls then fail fast without
// touching the shard, and after the shard heals the cooldown expires,
// a half-open probe goes through and the breaker closes again.
func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			http.Error(w, `{"error":{"code":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.5}`)
	})
	rt := newTestRouter(t, []string{shard.URL},
		WithRetries(0, 0, 0),
		WithBreaker(BreakerConfig{ConsecutiveFails: 3, Cooldown: 50 * time.Millisecond}))
	h := rt.Handler()
	body := []byte(`{"id":1,"from":3}`)

	failing.Store(true)
	for i := 0; i < 3; i++ {
		doReq(t, h, http.MethodPost, "/v1/score", body, nil)
	}
	if st := rt.brk[0].currentState(); st != brOpen {
		t.Fatalf("breaker state %s after 3 failures, want open", breakerStateName(st))
	}
	// Open circuit: the call fails fast and the shard is not touched.
	before := calls.Load()
	w := doReq(t, h, http.MethodPost, "/v1/score", body, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit score: %d, want 503", w.Code)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a call through to the shard")
	}

	// Shard heals; after the cooldown one probe closes the circuit.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	w = doReq(t, h, http.MethodPost, "/v1/score", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-recovery probe: %d (%s)", w.Code, w.Body.String())
	}
	if st := rt.brk[0].currentState(); st != brClosed {
		t.Fatalf("breaker state %s after successful probe, want closed", breakerStateName(st))
	}

	// The lifecycle is visible in the stats section.
	var stats map[string]interface{}
	if code := getJSON(t, h, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	brk := stats["router"].(map[string]interface{})["breakers"].([]interface{})[0].(map[string]interface{})
	if brk["state"] != "closed" || brk["opens"].(float64) < 1 || brk["probes"].(float64) < 1 {
		t.Fatalf("breaker stats = %v", brk)
	}
}

// TestRouterHedging: with hedging enabled, a request stuck behind a
// one-off slow attempt is answered by the hedge leg long before the
// slow leg finishes.
func TestRouterHedging(t *testing.T) {
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.5}`)
	})
	rt := newTestRouter(t, []string{shard.URL}, WithHedge(20*time.Millisecond))
	start := time.Now()
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3}`), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged call took %v, slow leg was not beaten", elapsed)
	}
	if rt.hedges.Load() < 1 || rt.hedgeWins.Load() < 1 {
		t.Fatalf("hedges=%d wins=%d, want both >= 1", rt.hedges.Load(), rt.hedgeWins.Load())
	}
}

// TestRouterBatch429RetryAfterMax: when shards shed with different
// Retry-After hints the relayed 429 carries the max across shards — a
// caller backing off a fleet waits for the slowest shard.
func TestRouterBatch429RetryAfterMax(t *testing.T) {
	mk := func(ra string) *httptest.Server {
		return fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", ra)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"shed"}}`)
		})
	}
	s0, s1 := mk("3"), mk("9")
	rt := newTestRouter(t, []string{s0.URL, s1.URL}, WithRetries(0, 0, 0))
	u0, u1 := userOwnedBy(t, 0, 2), userOwnedBy(t, 1, 2)
	body := []byte(fmt.Sprintf(`{"transactions":[{"id":1,"from":%d},{"id":2,"from":%d}]}`, u0, u1))
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score/batch", body, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "9" {
		t.Fatalf("Retry-After %q, want max across shards (9)", ra)
	}
}

// TestRouterBatchPartialDegradation: losing one of two shards degrades
// only its items — the healthy shard's verdicts are real, the lost
// shard's carry typed shard_unavailable errors, and decide items fall
// back fail-closed to "review". Ingest reports the failed slice instead
// of lying about totals.
func TestRouterBatchPartialDegradation(t *testing.T) {
	f := newFleet(t, 2, policyOpts(t),
		WithRetries(1, time.Millisecond, 5*time.Millisecond),
		WithTimeout(time.Second))
	h := f.rt.Handler()
	u0, u1 := userOwnedBy(t, 0, 2), userOwnedBy(t, 1, 2)
	f.web[0].Close() // shard 0 dies

	body := []byte(fmt.Sprintf(
		`{"transactions":[{"id":1,"from":%d,"amount":10},{"id":2,"from":%d,"amount":10}]}`, u0, u1))
	w := doReq(t, h, http.MethodPost, "/v1/score/batch", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("partially-degraded batch: %d (%s)", w.Code, w.Body.String())
	}
	var resp struct {
		Degraded int               `json:"degraded"`
		Verdicts []json.RawMessage `json:"verdicts"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != 1 || len(resp.Verdicts) != 2 {
		t.Fatalf("degraded=%d verdicts=%d, want 1 and 2", resp.Degraded, len(resp.Verdicts))
	}
	var dv ms.DegradedVerdict
	if err := json.Unmarshal(resp.Verdicts[0], &dv); err != nil {
		t.Fatal(err)
	}
	if !dv.Degraded || dv.TxnID != 1 || dv.Error == nil ||
		dv.Error.Code != ms.CodeShardUnavailable || dv.Error.Shard != 0 {
		t.Fatalf("degraded item = %s", resp.Verdicts[0])
	}
	var v ms.Verdict
	if err := json.Unmarshal(resp.Verdicts[1], &v); err != nil || v.TxnID != 2 {
		t.Fatalf("healthy item = %s (err %v)", resp.Verdicts[1], err)
	}

	// Decide: the degraded item carries the fail-closed fallback action.
	w = doReq(t, h, http.MethodPost, "/v1/decide/batch", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded decide batch: %d", w.Code)
	}
	var dresp struct {
		Degraded  int               `json:"degraded"`
		Decisions []json.RawMessage `json:"decisions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dresp); err != nil {
		t.Fatal(err)
	}
	var dd ms.DegradedDecision
	if err := json.Unmarshal(dresp.Decisions[0], &dd); err != nil {
		t.Fatal(err)
	}
	if dd.Action != ms.FallbackActionReview || !dd.Degraded || dd.Error.Code != ms.CodeShardUnavailable {
		t.Fatalf("degraded decision = %s", dresp.Decisions[0])
	}

	// Single decide to the dead shard's user: still 200, still review.
	w = doReq(t, h, http.MethodPost, "/v1/decide",
		[]byte(fmt.Sprintf(`{"id":7,"from":%d,"amount":10}`, u0)), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("single degraded decide: %d", w.Code)
	}
	var sd ms.DegradedDecision
	if err := json.Unmarshal(w.Body.Bytes(), &sd); err != nil {
		t.Fatal(err)
	}
	if sd.Action != ms.FallbackActionReview || sd.TxnID != 7 {
		t.Fatalf("single degraded decision = %s", w.Body.String())
	}

	// Single score to the dead shard's user: typed 503.
	w = doReq(t, h, http.MethodPost, "/v1/score",
		[]byte(fmt.Sprintf(`{"id":8,"from":%d,"amount":10}`, u0)), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("single degraded score: %d, want 503", w.Code)
	}

	// Ingest batch: the healthy slice lands, the dead slice is reported.
	w = doReq(t, h, http.MethodPost, "/v1/ingest/batch", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded ingest batch: %d", w.Code)
	}
	var ir struct {
		Ingested     int `json:"ingested"`
		Failed       int `json:"failed"`
		FailedShards []struct {
			Shard int          `json:"shard"`
			Error ms.ItemError `json:"error"`
		} `json:"failed_shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 1 || ir.Failed != 1 || len(ir.FailedShards) != 1 ||
		ir.FailedShards[0].Shard != 0 || ir.FailedShards[0].Error.Code != ms.CodeShardUnavailable {
		t.Fatalf("degraded ingest = %s", w.Body.String())
	}

	// Stats still answers, naming the unreachable shard.
	var stats map[string]interface{}
	if code := getJSON(t, h, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats on degraded fleet: %d", code)
	}
	router := stats["router"].(map[string]interface{})
	if unr := router["unreachable"].([]interface{}); len(unr) != 1 || unr[0].(float64) != 0 {
		t.Fatalf("stats unreachable = %v", router["unreachable"])
	}
}

// TestRouterCallerQuotaThroughWireTier: per-caller admission quotas on
// the shards hold through the router because X-Caller rides the proxied
// sub-requests. Caller A exhausting its burst gets 429s with Retry-After
// while caller B keeps flowing.
func TestRouterCallerQuotaThroughWireTier(t *testing.T) {
	f := newFleet(t, 1, func() []ms.Option {
		return append(streamOpts(), ms.WithCallerQuota(0.001, 2))
	}, WithRetries(0, 0, 0))
	h := f.rt.Handler()
	body := []byte(`{"id":1,"from":3,"amount":10}`)

	for i := 0; i < 2; i++ {
		if w := doReq(t, h, http.MethodPost, "/v1/score", body, map[string]string{"X-Caller": "alpha"}); w.Code != http.StatusOK {
			t.Fatalf("alpha call %d inside burst: %d (%s)", i, w.Code, w.Body.String())
		}
	}
	w := doReq(t, h, http.MethodPost, "/v1/score", body, map[string]string{"X-Caller": "alpha"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("alpha over quota: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("quota 429 through the router lost its Retry-After")
	}
	if w := doReq(t, h, http.MethodPost, "/v1/score", body, map[string]string{"X-Caller": "beta"}); w.Code != http.StatusOK {
		t.Fatalf("beta blocked by alpha's quota: %d (%s)", w.Code, w.Body.String())
	}
	if st := f.servers[0].Stats().Admission; st.Callers < 2 {
		t.Fatalf("shard tracked %d callers, want >= 2 — X-Caller not propagating", st.Callers)
	}
}

// TestRouterControlMidReplicationFailure: a policy swap that dies
// mid-ring answers with the failed shard's index and how far it got;
// the shards before it hold the new version. The swap is idempotent, so
// the operator's retry after the shard heals converges the fleet.
func TestRouterControlMidReplicationFailure(t *testing.T) {
	pol1 := []byte(`{
	  "version": "pol-1",
	  "scenarios": {"default": {"bands": [
	    {"min": 0, "max": 0.5, "action": "approve"},
	    {"min": 0.5, "max": 1, "action": "deny"}
	  ]}}
	}`)
	f := newFleet(t, 3, policyOpts(t), WithRetries(0, 0, 0))

	// Rebuild the ring with shard 1 behind a kill-switch proxy.
	var failing atomic.Bool
	inner := f.web[1].Config.Handler
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && r.Method == http.MethodPost {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // mid-replication connection failure
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	rt := newTestRouter(t, []string{f.web[0].URL, proxy.URL, f.web[2].URL}, WithRetries(0, 0, 0))
	h := rt.Handler()

	if w := doReq(t, h, http.MethodPost, "/v1/policy", pol1, nil); w.Code != http.StatusOK {
		t.Fatalf("baseline swap: %d (%s)", w.Code, w.Body.String())
	}

	pol2 := bytes.ReplaceAll(pol1, []byte("pol-1"), []byte("pol-2"))
	failing.Store(true)
	w := doReq(t, h, http.MethodPost, "/v1/policy", pol2, nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("mid-ring failure: %d, want 502", w.Code)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "shard_unreachable" ||
		!bytes.Contains([]byte(env.Error.Message), []byte("shard 1")) ||
		!bytes.Contains([]byte(env.Error.Message), []byte("applied to 1 of 3 shards")) {
		t.Fatalf("partial-application envelope = %s", w.Body.String())
	}
	// The ring is mixed exactly as the message says.
	if v := f.servers[0].PolicyVersion(); v != "pol-2" {
		t.Fatalf("shard 0 policy %q, want pol-2", v)
	}
	for _, si := range []int{1, 2} {
		if v := f.servers[si].PolicyVersion(); v != "pol-1" {
			t.Fatalf("shard %d policy %q, want pol-1 (swap must stop at the failure)", si, v)
		}
	}

	// Shard heals; the idempotent retry converges the fleet.
	failing.Store(false)
	if w := doReq(t, h, http.MethodPost, "/v1/policy", pol2, nil); w.Code != http.StatusOK {
		t.Fatalf("convergence retry: %d (%s)", w.Code, w.Body.String())
	}
	for si, srv := range f.servers {
		if v := srv.PolicyVersion(); v != "pol-2" {
			t.Fatalf("shard %d policy %q after retry, want pol-2", si, v)
		}
	}
}

// TestRouterControlGetFailover: GET /v1/policy fails over past a dead
// shard 0 instead of erroring — any shard can answer a lockstep read.
func TestRouterControlGetFailover(t *testing.T) {
	pol := []byte(`{
	  "version": "pol-9",
	  "scenarios": {"default": {"bands": [
	    {"min": 0, "max": 1, "action": "approve"}
	  ]}}
	}`)
	f := newFleet(t, 3, policyOpts(t), WithRetries(0, 0, 0), WithTimeout(time.Second))
	h := f.rt.Handler()
	if w := doReq(t, h, http.MethodPost, "/v1/policy", pol, nil); w.Code != http.StatusOK {
		t.Fatalf("swap: %d (%s)", w.Code, w.Body.String())
	}
	f.web[0].Close()
	var doc map[string]interface{}
	if code := getJSON(t, h, "/v1/policy", &doc); code != http.StatusOK {
		t.Fatalf("GET with shard 0 down: %d", code)
	}
	if doc["version"] != "pol-9" {
		t.Fatalf("failover GET version = %v", doc["version"])
	}
}

// --- trace propagation through the resilience plane ---

// TestRouterTraceAdoptedThroughRetries: a caller-supplied X-Trace-Id is
// adopted, echoed on the response, and rides every retry attempt — the
// shard sees one consistent ID across all three deliveries.
func TestRouterTraceAdoptedThroughRetries(t *testing.T) {
	const want = "00112233445566778899aabbccddeeff"
	var mu sync.Mutex
	var seen []string
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(telemetry.TraceHeader))
		mu.Unlock()
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":{"code":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.25,"fraud":false}`)
	})
	rt := newTestRouter(t, []string{shard.URL},
		WithRetries(2, time.Millisecond, 5*time.Millisecond))
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3}`),
		map[string]string{telemetry.TraceHeader: want})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(telemetry.TraceHeader); got != want {
		t.Fatalf("response %s = %q, want the adopted %q", telemetry.TraceHeader, got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("shard saw %d attempts, want 3", len(seen))
	}
	for i, s := range seen {
		if s != want {
			t.Fatalf("attempt %d carried trace %q, want %q", i, s, want)
		}
	}
}

// TestRouterTraceMintedWhenAbsent: with no caller header the router
// mints a valid ID per request, distinct across requests; a malformed
// caller header is replaced, not echoed.
func TestRouterTraceMintedWhenAbsent(t *testing.T) {
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.5}`)
	})
	rt := newTestRouter(t, []string{shard.URL})
	h := rt.Handler()
	body := []byte(`{"id":1,"from":3}`)

	w1 := doReq(t, h, http.MethodPost, "/v1/score", body, nil)
	id1 := w1.Header().Get(telemetry.TraceHeader)
	if _, ok := telemetry.ParseTraceID(id1); !ok {
		t.Fatalf("minted trace %q is not a valid 32-hex ID", id1)
	}
	w2 := doReq(t, h, http.MethodPost, "/v1/score", body, nil)
	if id2 := w2.Header().Get(telemetry.TraceHeader); id2 == id1 {
		t.Fatalf("two requests minted the same trace %q", id1)
	}
	w3 := doReq(t, h, http.MethodPost, "/v1/score", body,
		map[string]string{telemetry.TraceHeader: "not-a-trace"})
	if id3 := w3.Header().Get(telemetry.TraceHeader); id3 == "not-a-trace" {
		t.Fatal("malformed caller trace ID was echoed instead of replaced")
	} else if _, ok := telemetry.ParseTraceID(id3); !ok {
		t.Fatalf("replacement trace %q is not valid", id3)
	}
}

// TestRouterTraceHedgedLegsShareID: when a hedge leg is launched both
// legs carry the original trace ID — one trace names the whole race.
func TestRouterTraceHedgedLegsShareID(t *testing.T) {
	const want = "ffeeddccbbaa99887766554433221100"
	var mu sync.Mutex
	var seen []string
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(telemetry.TraceHeader))
		mu.Unlock()
		if calls.Add(1) == 1 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn_id":1,"score":0.5}`)
	})
	rt := newTestRouter(t, []string{shard.URL}, WithHedge(20*time.Millisecond))
	w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score", []byte(`{"id":1,"from":3}`),
		map[string]string{telemetry.TraceHeader: want})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(telemetry.TraceHeader); got != want {
		t.Fatalf("hedged response trace = %q, want %q", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 2 {
		t.Fatalf("shard saw %d legs, want both", len(seen))
	}
	for i, s := range seen {
		if s != want {
			t.Fatalf("leg %d carried trace %q, want %q", i, s, want)
		}
	}
}

// TestRouterTraceOnDegradedPaths: when the owner shard is gone the trace
// ID survives into every degraded shape — the decide fallback envelope,
// the typed 503 error body, and each degraded batch item — so an outage
// is correlatable even when the caller only kept response bodies.
func TestRouterTraceOnDegradedPaths(t *testing.T) {
	const want = "0123456789abcdef0123456789abcdef"
	hdr := map[string]string{telemetry.TraceHeader: want}
	f := newFleet(t, 2, policyOpts(t), WithRetries(0, 0, 0), WithTimeout(time.Second))
	h := f.rt.Handler()
	u0, u1 := userOwnedBy(t, 0, 2), userOwnedBy(t, 1, 2)
	f.web[0].Close() // shard 0 dies

	// Single decide: fail-closed fallback carries the trace.
	w := doReq(t, h, http.MethodPost, "/v1/decide",
		[]byte(fmt.Sprintf(`{"id":7,"from":%d,"amount":10}`, u0)), hdr)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded decide: %d", w.Code)
	}
	var dd ms.DegradedDecision
	if err := json.Unmarshal(w.Body.Bytes(), &dd); err != nil {
		t.Fatal(err)
	}
	if dd.TraceID != want {
		t.Fatalf("degraded decision trace_id = %q, want %q", dd.TraceID, want)
	}
	if got := w.Header().Get(telemetry.TraceHeader); got != want {
		t.Fatalf("degraded decide header trace = %q, want %q", got, want)
	}

	// Single score: the typed 503 envelope carries the trace.
	w = doReq(t, h, http.MethodPost, "/v1/score",
		[]byte(fmt.Sprintf(`{"id":8,"from":%d,"amount":10}`, u0)), hdr)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded score: %d, want 503", w.Code)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			TraceID string `json:"trace_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != ms.CodeShardUnavailable || env.Error.TraceID != want {
		t.Fatalf("503 envelope = %s", w.Body.String())
	}

	// Batch: the dead shard's items carry the trace, item by item.
	body := []byte(fmt.Sprintf(
		`{"transactions":[{"id":1,"from":%d,"amount":10},{"id":2,"from":%d,"amount":10}]}`, u0, u1))
	w = doReq(t, h, http.MethodPost, "/v1/score/batch", body, hdr)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded batch: %d", w.Code)
	}
	var resp struct {
		Verdicts []json.RawMessage `json:"verdicts"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var dv ms.DegradedVerdict
	if err := json.Unmarshal(resp.Verdicts[0], &dv); err != nil {
		t.Fatal(err)
	}
	if !dv.Degraded || dv.TraceID != want {
		t.Fatalf("degraded batch item = %s", resp.Verdicts[0])
	}
}
