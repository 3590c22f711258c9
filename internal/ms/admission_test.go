package ms

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titant/internal/txn"
)

// TestTokenBucketDeterministic drives one bucket with synthetic clocks:
// the burst drains exactly, refill is proportional to elapsed time,
// idle refill caps at burst, and a clock that goes backwards never
// mints tokens.
func TestTokenBucketDeterministic(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(10, 5, now) // 10 tok/s, burst 5

	for i := 0; i < 5; i++ {
		if !b.take(1, now) {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if b.take(1, now) {
		t.Fatal("admitted beyond the burst with no elapsed time")
	}

	// 100ms at 10 tok/s refills exactly one token.
	now = now.Add(100 * time.Millisecond)
	if !b.take(1, now) {
		t.Fatal("refilled token refused")
	}
	if b.take(1, now) {
		t.Fatal("admitted more than the refill")
	}

	// A long idle period refills to the burst cap, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 5; i++ {
		if !b.take(1, now) {
			t.Fatalf("post-idle token %d refused", i)
		}
	}
	if b.take(1, now) {
		t.Fatal("idle refill exceeded the burst cap")
	}

	// Clock regression mints nothing.
	if b.take(1, now.Add(-time.Minute)) {
		t.Fatal("backwards clock minted tokens")
	}

	// Multi-token takes are all-or-nothing.
	now = now.Add(time.Hour)
	if b.take(6, now) {
		t.Fatal("admitted a take larger than the burst")
	}
	if !b.take(5, now) {
		t.Fatal("refused a full-burst take after the oversized one")
	}
}

// TestTokenBucketInvariantConcurrent is the quota property test: many
// goroutines hammering one bucket never admit more than
// burst + rate*elapsed transactions. Run under -race this also proves
// the bucket's internals are data-race free.
func TestTokenBucketInvariantConcurrent(t *testing.T) {
	const (
		rate  = 500.0
		burst = 25.0
	)
	start := time.Now()
	b := newTokenBucket(rate, burst, start)
	var accepted atomic.Int64
	var wg sync.WaitGroup
	deadline := start.Add(100 * time.Millisecond)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if b.take(1, time.Now()) {
					accepted.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	// elapsed is measured after the last take, so the bound is an upper
	// bound on what any correct bucket could have admitted.
	elapsed := time.Since(start).Seconds()
	limit := int64(burst + rate*elapsed + 1)
	if got := accepted.Load(); got > limit {
		t.Fatalf("bucket admitted %d transactions in %.3fs; invariant allows at most %d", got, elapsed, limit)
	}
	if accepted.Load() < int64(burst) {
		t.Fatalf("bucket admitted %d, less than the burst %v — the test exercised nothing", accepted.Load(), burst)
	}
}

// TestAdmissionInflightInvariant is the load-shed property test: under
// saturation the observed concurrency never exceeds maxInflight, every
// admitted request runs to completion (admitted == completed: shedding
// never drops accepted work), every refusal is the typed ErrOverloaded,
// and the gauge returns to zero — a shed or completed request leaves no
// residue.
func TestAdmissionInflightInvariant(t *testing.T) {
	const (
		maxInflight = 4
		workers     = 8
		iters       = 2000
	)
	a := &admission{maxInflight: maxInflight}
	var (
		cur, peak           atomic.Int64
		admitted, completed atomic.Int64
		shed                atomic.Int64
		wg                  sync.WaitGroup
		wrongErr            atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := 1 + (w+i)%2 // mix single and batch-of-two admissions
				rel, err := a.admit("caller", n)
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						wrongErr.Add(1)
					}
					shed.Add(int64(n))
					continue
				}
				c := cur.Add(int64(n))
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				admitted.Add(int64(n))
				runtime.Gosched()
				cur.Add(int64(-n))
				completed.Add(int64(n))
				rel()
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > maxInflight {
		t.Fatalf("observed %d concurrent transactions, bound is %d", p, maxInflight)
	}
	if admitted.Load() != completed.Load() {
		t.Fatalf("admitted %d but completed %d — an accepted request was dropped", admitted.Load(), completed.Load())
	}
	if wrongErr.Load() != 0 {
		t.Fatalf("%d refusals were not ErrOverloaded", wrongErr.Load())
	}
	if g := a.inflight.Load(); g != 0 {
		t.Fatalf("inflight gauge = %d after all work released", g)
	}
	if a.shedInflight.Load() != shed.Load() {
		t.Fatalf("engine counted %d shed, test observed %d", a.shedInflight.Load(), shed.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("no request was ever shed — the test never saturated the bound")
	}
}

// TestAdmitPerCallerIsolation: exhausting one caller's quota refuses
// that caller with ErrRateLimited while other callers (and the untagged
// "default" caller) keep being admitted — the noisy-neighbour property.
func TestAdmitPerCallerIsolation(t *testing.T) {
	srv, err := New(table(t), trainToy(t, 0), WithCallerQuota(0.0001, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctxA := WithCallerContext(context.Background(), "noisy")
	tr := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 100}
	for i := 0; i < 2; i++ {
		if _, err := srv.Score(ctxA, &tr); err != nil {
			t.Fatalf("burst score %d: %v", i, err)
		}
	}
	if _, err := srv.Score(ctxA, &tr); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-quota score err = %v, want ErrRateLimited", err)
	}
	// A different caller has its own untouched bucket.
	ctxB := WithCallerContext(context.Background(), "quiet")
	if _, err := srv.Score(ctxB, &tr); err != nil {
		t.Fatalf("independent caller refused: %v", err)
	}
	// The untagged context is its own caller too.
	if _, err := srv.Score(context.Background(), &tr); err != nil {
		t.Fatalf("default caller refused: %v", err)
	}
	st := srv.Stats().Admission
	if st.ShedQuota != 1 || st.Admitted != 4 {
		t.Fatalf("stats = %+v, want 4 admitted / 1 shed_quota", st)
	}
	if st.Callers != 3 {
		t.Fatalf("stats track %d callers, want 3", st.Callers)
	}
}

// TestAdmitBatchAndDecidePaths: batch scoring admits len(txns) tokens in
// one take, and the decide path runs through the same gate.
func TestAdmitBatchAndDecidePaths(t *testing.T) {
	srv, err := New(table(t), trainToy(t, 0), WithCallerQuota(0.0001, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithCallerContext(context.Background(), "batcher")
	txns := []txn.Transaction{
		{ID: 1, From: 1, To: 2, Amount: 10},
		{ID: 2, From: 3, To: 4, Amount: 20},
	}
	if _, err := srv.ScoreBatch(ctx, txns); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	// One token left; a batch of two must be refused whole.
	if _, err := srv.ScoreBatch(ctx, txns); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-quota batch err = %v, want ErrRateLimited", err)
	}
	// The remaining token still serves a single.
	if _, err := srv.Score(ctx, &txns[0]); err != nil {
		t.Fatalf("final single score: %v", err)
	}
}

// TestHTTPShedTyped429: over HTTP both gates surface as status 429 with
// the distinguishing error code and a Retry-After header — overload
// degrades to a typed, retryable response, never a hung or dropped
// connection.
func TestHTTPShedTyped429(t *testing.T) {
	srv, err := New(table(t), trainToy(t, 0),
		WithCallerQuota(0.0001, 1), WithMaxInflight(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	score := func(caller string) *http.Response {
		body, _ := json.Marshal(TxnRequest{ID: 9, From: 1, To: 2, Amount: 100})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if caller != "" {
			req.Header.Set("X-Caller", caller)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Saturate the inflight bound from the library side (each holder is a
	// distinct caller so the 1-token quotas admit them), then hit HTTP.
	rel1, err := srv.Admit(WithCallerContext(context.Background(), "holder1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := srv.Admit(WithCallerContext(context.Background(), "holder2"), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp := score("hog")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if e := decodeEnvelope(t, resp); e.Code != "overloaded" {
		t.Fatalf("saturated code = %q, want overloaded", e.Code)
	}
	rel1()
	rel2()

	// With capacity back, the caller's single burst token admits once…
	resp = score("hog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	// …and the next request trips the quota, typed rate_limited.
	resp = score("hog")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("quota 429 carries no Retry-After header")
	}
	if e := decodeEnvelope(t, resp); e.Code != "rate_limited" {
		t.Fatalf("over-quota code = %q, want rate_limited", e.Code)
	}
	// A different X-Caller is unaffected.
	resp = score("bystander")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bystander status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// The stats body carries the admission section.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	adm, ok := stats["admission"].(map[string]interface{})
	if !ok {
		t.Fatal("/v1/stats has no admission section")
	}
	if adm["shed_quota"].(float64) < 1 || adm["shed_inflight"].(float64) < 1 {
		t.Fatalf("admission stats = %v, want at least one shed on each gate", adm)
	}
	if !srv.Health().Admission {
		t.Fatal("healthz does not report admission enabled")
	}
}

// TestAdmitDisabledIsFree: an engine built without admission options
// admits everything and reports zero stats.
func TestAdmitDisabledIsFree(t *testing.T) {
	srv, err := New(table(t), trainToy(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if srv.AdmissionEnabled() {
		t.Fatal("admission reported enabled on a default engine")
	}
	rel, err := srv.Admit(context.Background(), 1_000_000)
	if err != nil {
		t.Fatalf("unlimited engine refused: %v", err)
	}
	rel()
	if st := srv.Stats().Admission; st != nil {
		t.Fatalf("admission section = %+v, want none", st)
	}
}
