package ms

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/rng"
	"titant/internal/txn"
)

// decidePolicy is the test policy: the Default bands for a 0.5-threshold
// bundle plus one transaction-field rule and one velocity rule.
func decidePolicy(t testing.TB) *decision.Policy {
	t.Helper()
	p, err := decision.Parse([]byte(`{
	  "version": "pol-1",
	  "scenarios": {
	    "default": {
	      "bands": [
	        {"min": 0, "max": 0.5, "action": "approve"},
	        {"min": 0.5, "max": 0.75, "action": "challenge"},
	        {"min": 0.75, "max": 1, "action": "deny"}
	      ],
	      "rules": [
	        {"name": "amount-ceiling", "when": [{"field": "amount", "op": ">", "value": 100000}], "action": "deny"},
	        {"name": "velocity-cap", "when": [{"field": "snd_out_count", "op": ">", "value": 5}], "action": "challenge"}
	      ]
	    },
	    "withdrawal": {
	      "bands": [
	        {"min": 0, "max": 0.5, "action": "approve"},
	        {"min": 0.5, "max": 1, "action": "deny"}
	      ]
	    }
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// decideServer builds an engine with users 1..4 uploaded and the test
// policy attached, plus any extra options.
func decideServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 4; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(tab, trainToy(t, 0), append([]Option{WithPolicy(decidePolicy(t))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestDecideActions(t *testing.T) {
	srv, _ := decideServer(t)
	ctx := context.Background()
	// Low amount scores low: approve.
	lo := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 5}
	d, err := srv.Decide(ctx, &lo, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != decision.ActionApprove || d.Fraud {
		t.Fatalf("low-amount decision = %+v", d)
	}
	if d.PolicyVersion != "pol-1" || d.Reason == "" {
		t.Fatalf("attribution = %+v", d)
	}
	// High amount scores high: challenge or deny, and the verdict agrees
	// with the plain scoring path bitwise.
	hi := txn.Transaction{ID: 2, From: 1, To: 2, Amount: 1900}
	d, err = srv.Decide(ctx, &hi, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action == decision.ActionApprove {
		t.Fatalf("high-amount decision = %+v", d)
	}
	v, err := srv.Score(ctx, &hi)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score != d.Score || v.Fraud != d.Fraud {
		t.Fatalf("Decide score %v vs Score %v", d.Score, v.Score)
	}
	// The rule overrides the model regardless of score.
	huge := txn.Transaction{ID: 3, From: 1, To: 2, Amount: 200000}
	d, err = srv.Decide(ctx, &huge, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != decision.ActionDeny || !d.RuleOverride || !strings.Contains(d.Reason, "amount-ceiling") {
		t.Fatalf("rule decision = %+v", d)
	}
	// Scenario routing: withdrawal denies what default challenges.
	mid := txn.Transaction{ID: 4, From: 1, To: 2, Amount: 1400}
	dd, err := srv.Decide(ctx, &mid, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := srv.Decide(ctx, &mid, decision.ScenarioWithdrawal)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Score != dw.Score {
		t.Fatalf("scenario changed the score: %v vs %v", dd.Score, dw.Score)
	}
	if dd.Action == decision.ActionChallenge && dw.Action != decision.ActionDeny {
		t.Fatalf("withdrawal should escalate: default=%v withdrawal=%v", dd.Action, dw.Action)
	}
	st := srv.Stats().Policy
	if st.Decided != 5 || st.RuleOverrides != 1 {
		t.Fatalf("decision stats = %+v", st)
	}
}

// TestDecideOracle is the decision oracle of the acceptance criteria:
// the same bundle + policy + inputs produce bitwise-identical actions
// whether decided one at a time or as a batch, and across a policy
// hot-swap boundary (swapping in a freshly re-parsed copy of the same
// document changes nothing).
func TestDecideOracle(t *testing.T) {
	srv, _ := decideServer(t)
	ctx := context.Background()
	r := rng.New(17)
	txns := make([]txn.Transaction, 64)
	scenarios := make([]decision.Scenario, len(txns))
	all := []decision.Scenario{
		decision.ScenarioDefault, decision.ScenarioPayment,
		decision.ScenarioTransfer, decision.ScenarioWithdrawal,
	}
	for i := range txns {
		txns[i] = txn.Transaction{
			ID:   txn.TxnID(i + 1),
			From: txn.UserID(1 + r.Intn(4)), To: txn.UserID(1 + r.Intn(4)),
			Amount: float32(r.Float64() * 2500),
		}
		scenarios[i] = all[r.Intn(len(all))]
	}
	batch, err := srv.DecideBatch(ctx, txns, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i := range txns {
		one, err := srv.Decide(ctx, &txns[i], scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		if one.Score != batch[i].Score || one.Action != batch[i].Action ||
			one.Reason != batch[i].Reason || one.RuleOverride != batch[i].RuleOverride {
			t.Fatalf("item %d: Decide %+v != DecideBatch %+v", i, one, batch[i])
		}
	}
	// Hot-swap to a byte-identical re-parsed policy: every action must
	// be unchanged.
	doc, err := srv.currentPolicy().Encode()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := decision.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetPolicy(fresh); err != nil {
		t.Fatal(err)
	}
	again, err := srv.DecideBatch(ctx, txns, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if again[i].Action != batch[i].Action || again[i].Score != batch[i].Score ||
			again[i].Reason != batch[i].Reason {
			t.Fatalf("item %d diverged across policy swap: %+v vs %+v", i, again[i], batch[i])
		}
	}
}

func TestDecideDisabled(t *testing.T) {
	_, ts := v1Server(t) // built without WithPolicy
	body, _ := json.Marshal(DecideRequest{TxnRequest: TxnRequest{ID: 1, From: 1, To: 2, Amount: 5}})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "policy_disabled" {
		t.Fatalf("envelope = %+v", e)
	}
	resp, err = http.Get(ts.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/policy = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Decisioning cannot be enabled over the wire on an engine the
	// operator left it off: POST /v1/policy is replace-only.
	doc := `{"version":"sneaky","scenarios":{"default":{"bands":[{"min":0,"max":1,"action":"deny"}]}}}`
	resp, err = http.Post(ts.URL+"/v1/policy", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /v1/policy on disabled engine = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "policy_disabled" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestDecideOverWire(t *testing.T) {
	_, ts := decideServer(t)
	// Single decide, explicit scenario.
	body, _ := json.Marshal(DecideRequest{
		TxnRequest: TxnRequest{ID: 7, From: 1, To: 2, Amount: 1400},
		Scenario:   "withdrawal",
	})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.TxnID != 7 || d.Scenario != decision.ScenarioWithdrawal || d.PolicyVersion != "pol-1" {
		t.Fatalf("decision = %+v", d)
	}
	// Batch with mixed scenarios, order preserved.
	batchBody, _ := json.Marshal(DecideBatchRequest{Transactions: []DecideRequest{
		{TxnRequest: TxnRequest{ID: 1, From: 1, To: 2, Amount: 5}},
		{TxnRequest: TxnRequest{ID: 2, From: 2, To: 3, Amount: 1900}, Scenario: "payment"},
		{TxnRequest: TxnRequest{ID: 3, From: 3, To: 4, Amount: 200000}, Scenario: "transfer"},
	}})
	resp, err = http.Post(ts.URL+"/v1/decide/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br DecideBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Decisions) != 3 {
		t.Fatalf("got %d decisions", len(br.Decisions))
	}
	for i, want := range []txn.TxnID{1, 2, 3} {
		if br.Decisions[i].TxnID != want {
			t.Fatalf("order: %+v", br.Decisions)
		}
	}
	if br.Decisions[0].Action != decision.ActionApprove {
		t.Fatalf("decision 0 = %+v", br.Decisions[0])
	}
	if br.Decisions[2].Action != decision.ActionDeny || !br.Decisions[2].RuleOverride {
		t.Fatalf("decision 2 = %+v", br.Decisions[2])
	}
	// Unknown scenario: 400, not a silent default.
	bad, _ := json.Marshal(map[string]interface{}{"id": 9, "from": 1, "to": 2, "scenario": "lending"})
	resp, err = http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPolicyHotSwapOverWire(t *testing.T) {
	srv, ts := decideServer(t)
	// GET serves the active document.
	resp, err := http.Get(ts.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	var doc map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc["version"] != "pol-1" {
		t.Fatalf("GET body = %v", doc)
	}
	// POST swaps in a stricter policy; decisions change accordingly.
	stricter := `{"version": "pol-2", "scenarios": {"default": {"bands": [
	  {"min": 0, "max": 0.1, "action": "approve"},
	  {"min": 0.1, "max": 1, "action": "deny"}]}}}`
	resp, err = http.Post(ts.URL+"/v1/policy", "application/json", strings.NewReader(stricter))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var info PolicyInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != "pol-2" || len(info.Scenarios) != 1 {
		t.Fatalf("info = %+v", info)
	}
	if got := srv.PolicyVersion(); got != "pol-2" {
		t.Fatalf("engine policy = %q", got)
	}
	// An invalid policy is rejected whole; the live one keeps serving.
	resp, err = http.Post(ts.URL+"/v1/policy", "application/json",
		strings.NewReader(`{"version": "bad", "scenarios": {"default": {"bands": [{"min": 0.2, "max": 1, "action": "deny"}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid POST status = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "policy_invalid" {
		t.Fatalf("envelope = %+v", e)
	}
	if got := srv.PolicyVersion(); got != "pol-2" {
		t.Fatalf("invalid swap disturbed the live policy: %q", got)
	}
}

func TestPolicyTokenGuard(t *testing.T) {
	_, ts := decideServer(t, WithModelToken("sekrit"))
	doc := `{"version": "pol-3", "scenarios": {"default": {"bands": [{"min": 0, "max": 1, "action": "approve"}]}}}`
	resp, err := http.Post(ts.URL+"/v1/policy", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated POST = %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/policy", strings.NewReader(doc))
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated POST = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestVelocityRuleThroughEngine wires the full stack: a streaming store
// fed through Ingest supplies the velocity a policy rule caps.
func TestVelocityRuleThroughEngine(t *testing.T) {
	st := stream.New(stream.WithCities(8))
	srv, _ := decideServer(t, WithStreamAggregates(st))
	ctx := context.Background()
	tx := txn.Transaction{ID: 100, From: 1, To: 2, Amount: 5}
	d, err := srv.Decide(ctx, &tx, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != decision.ActionApprove {
		t.Fatalf("pre-velocity decision = %+v", d)
	}
	// Sender 1 sprays transfers; the live window now reports an
	// out-count above the cap.
	for i := 0; i < 10; i++ {
		if err := srv.Ingest(&txn.Transaction{ID: txn.TxnID(200 + i), From: 1, To: 3, Amount: 10, Sec: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d, err = srv.Decide(ctx, &tx, decision.ScenarioDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != decision.ActionChallenge || !strings.Contains(d.Reason, "velocity-cap") {
		t.Fatalf("post-velocity decision = %+v", d)
	}
}

// identicalChallenger returns the champion bundle re-decoded, so shadow
// comparisons must agree perfectly.
func identicalChallenger(t *testing.T, b *Bundle) *Bundle {
	t.Helper()
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

func waitShadow(t *testing.T, srv *Server, want int64) decision.ShadowStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.ShadowStats()
		if st.Scored+st.Errors >= want || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShadowAgreesWithIdenticalChallenger(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 4; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	champion := trainToy(t, 0)
	srv, err := New(tab, champion, WithShadow(identicalChallenger(t, champion)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	txns := make([]txn.Transaction, 32)
	r := rng.New(3)
	for i := range txns {
		txns[i] = txn.Transaction{
			ID:   txn.TxnID(i + 1),
			From: txn.UserID(1 + r.Intn(4)), To: txn.UserID(1 + r.Intn(4)),
			Amount: float32(r.Float64() * 2500),
		}
	}
	if _, err := srv.ScoreBatch(ctx, txns); err != nil {
		t.Fatal(err)
	}
	st := waitShadow(t, srv, int64(len(txns)))
	if st.Scored != int64(len(txns)) || st.Errors != 0 {
		t.Fatalf("shadow stats = %+v", st)
	}
	if st.Agreement != 1 || st.Flipped != 0 || st.MeanAbsDiff != 0 {
		t.Fatalf("identical challenger disagreed: %+v", st)
	}
}

// TestShadowNeverBlocks pins the drop-on-overflow contract: with the
// worker stopped and a one-slot queue, a burst of enqueues must return
// immediately and count drops instead of blocking the scoring path.
func TestShadowNeverBlocks(t *testing.T) {
	tab := table(t)
	champion := trainToy(t, 0)
	srv, err := New(tab, champion, WithShadow(identicalChallenger(t, champion)), WithShadowQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // stop the worker; the queue can only absorb one job
	v := Verdict{Score: 0.4}
	tx := txn.Transaction{ID: 1, From: 1, To: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			srv.shadow.enqueue(&tx, &v, 0)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue blocked on a full queue")
	}
	st := srv.ShadowStats()
	if st.Dropped != 99 {
		t.Fatalf("dropped = %d, want 99", st.Dropped)
	}
	if depth := srv.Stats().Shadow.QueueDepth; depth != 1 {
		t.Fatalf("queue depth = %d", depth)
	}
}

func TestShadowChallengerValidated(t *testing.T) {
	tab := table(t)
	if _, err := New(tab, trainToy(t, 0), WithShadow(&Bundle{Version: "empty"})); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("invalid challenger accepted: %v", err)
	}
}

// TestStatsAndHealthSections checks the new /v1/stats sections and the
// readiness body of /healthz with the full subsystem stack enabled.
func TestStatsAndHealthSections(t *testing.T) {
	st := stream.New(stream.WithCities(8))
	srv, ts := decideServer(t,
		WithStreamAggregates(st),
		WithDriftMonitor(decision.DriftConfig{}),
	)
	// One decide over the wire so the decide endpoint histogram and the
	// action counters are non-empty.
	body, _ := json.Marshal(DecideRequest{TxnRequest: TxnRequest{ID: 1, From: 1, To: 2, Amount: 5}})
	if resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// And one ingest for the ingest endpoint histogram.
	ing, _ := json.Marshal(IngestRequest{TxnRequest: TxnRequest{ID: 2, From: 1, To: 2, Amount: 5}})
	if resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(ing)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pol, ok := stats["policy"].(map[string]interface{})
	if !ok || pol["version"] != "pol-1" || pol["decided"].(float64) < 1 {
		t.Fatalf("policy section = %v", stats["policy"])
	}
	eps, ok := stats["endpoints"].(map[string]interface{})
	if !ok {
		t.Fatalf("endpoints section missing: %v", stats)
	}
	dec, ok := eps["decide"].(map[string]interface{})
	if !ok || dec["count"].(float64) < 1 {
		t.Fatalf("decide endpoint histogram = %v", eps["decide"])
	}
	ingStats, ok := eps["ingest"].(map[string]interface{})
	if !ok || ingStats["count"].(float64) < 1 {
		t.Fatalf("ingest endpoint histogram = %v", eps["ingest"])
	}
	drift, ok := stats["drift"].(map[string]interface{})
	if !ok {
		t.Fatalf("drift section missing: %v", stats)
	}
	series, ok := drift["series"].([]interface{})
	if !ok || len(series) == 0 {
		t.Fatalf("drift series = %v", drift)
	}
	// Readiness body.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthInfo
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := HealthInfo{
		Status: "ok", BundleVersion: srv.BundleVersion(), PolicyVersion: "pol-1",
		Stream: true, Policy: true, Drift: true,
	}
	if h != want {
		t.Fatalf("healthz = %+v, want %+v", h, want)
	}
}

// TestDriftMonitorResetOnSwap: a bundle swap re-freezes the baseline.
func TestDriftMonitorResetOnSwap(t *testing.T) {
	srv, _ := decideServer(t, WithDriftMonitor(decision.DriftConfig{BaselineSamples: 4, MinLiveSamples: 2}))
	ctx := context.Background()
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 700}
	for i := 0; i < 6; i++ {
		if _, err := srv.Score(ctx, &tx); err != nil {
			t.Fatal(err)
		}
	}
	if ds := srv.DriftStats(); ds[0].BaselineCount != 4 || ds[0].LiveCount != 2 {
		t.Fatalf("pre-swap drift = %+v", ds[0])
	}
	if err := srv.SetBundle(trainToy(t, 0)); err != nil {
		t.Fatal(err)
	}
	if ds := srv.DriftStats(); ds[0].BaselineCount != 0 || ds[0].LiveCount != 0 {
		t.Fatalf("post-swap drift not reset: %+v", ds[0])
	}
}

func TestNewRejectsInvalidPolicy(t *testing.T) {
	tab := table(t)
	bad := &decision.Policy{Version: ""} // fails Validate
	if _, err := New(tab, trainToy(t, 0), WithPolicy(bad)); !errors.Is(err, decision.ErrPolicyInvalid) {
		t.Fatalf("invalid policy accepted: %v", err)
	}
}

// TestShadowSwapDiscardsQueuedJobs: a bundle swap starts a new shadow
// epoch — jobs enqueued under the old champion are discarded by the
// worker, not recorded into the new champion's statistics.
func TestShadowSwapDiscardsQueuedJobs(t *testing.T) {
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 2; i++ {
		if err := up.PutUser(&txn.User{ID: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	champion := trainToy(t, 0)
	srv, err := New(tab, champion, WithShadow(identicalChallenger(t, champion)), WithShadowQueue(16))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // park the worker so enqueued jobs sit in the queue
	v := Verdict{Score: 0.4}
	tx := txn.Transaction{ID: 1, From: 1, To: 2}
	old := srv.shadow.epoch.Load()
	for i := 0; i < 8; i++ {
		srv.shadow.enqueue(&tx, &v, old)
	}
	if err := srv.SetBundle(trainToy(t, 0)); err != nil { // new epoch
		t.Fatal(err)
	}
	// Drain manually (the worker is stopped): every queued job must be
	// recognised as stale and skipped.
	cur := srv.shadow.epoch.Load()
	for i := 0; i < 8; i++ {
		j := <-srv.shadow.jobs
		if j.epoch == cur {
			t.Fatalf("job %d survived the epoch bump", i)
		}
	}
	if st := srv.ShadowStats(); st.Scored != 0 {
		t.Fatalf("stale comparisons recorded: %+v", st)
	}
}

// TestDecideAllocBudget: a warm single Decide allocates nothing on a v1
// GBDT bundle or on an ensemble bundle — the score scratch, its
// scoredBatch view and the one-row matrix are pooled, the compiled
// predictor walks the assembled row as it is, and the verdict's Members
// is carved from a shared slab. The slab is one object per
// memberSlabLen/k calls, which AllocsPerRun's integer division hides, so
// the ensemble case also counts over several slabs' worth of Decide and
// Score calls: at most one object per slab (plus one for the slab the
// count starts in), and no more bytes per call than k member scores plus
// their share of a slab that fills its size class. A 64-member slab, in
// the 1 792 B class, reads 28 B per member score and fails.
func TestDecideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 8; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	clf := trainedDetectors(t)["gbdt"]
	single, err := NewBundle("gbdt-1", clf, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := NewEnsembleBundle("gbdt-ens-1", []EnsembleMember{{Name: "gbdt", Clf: clf, Threshold: 0.5}},
		CombineMean, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := txn.Transaction{ID: 1, From: 1, To: 2, Amount: 1500}
	for _, tc := range []*Bundle{single, ensemble} {
		srv, err := New(tab, tc, WithPolicy(decidePolicy(t)), WithWorkers(1), WithUserCache(64))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		decide := func() {
			if _, err := srv.Decide(ctx, &tx, decision.ScenarioDefault); err != nil {
				t.Fatal(err)
			}
		}
		decide() // fill the cache, compile the model
		if got := testing.AllocsPerRun(100, decide); got > 0 {
			t.Errorf("%s: warm Decide: %.0f allocs, budget 0", tc.Version, got)
		}
		k := tc.ens.breakdown()
		if k == 0 {
			continue
		}
		score := func() {
			if _, err := srv.Score(ctx, &tx); err != nil {
				t.Fatal(err)
			}
		}
		// The counters are process-wide, and a call that lands on a P
		// whose pools are still empty refills them, so the count keeps
		// the best of five passes: that noise only adds.
		calls, perSlab := 6*memberSlabLen, memberSlabLen/k
		maxObjects, maxBytes := uint64((calls+perSlab-1)/perSlab+1), 24.5*float64(k)
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
		var objects uint64
		var perCall float64
		for pass := 0; pass < 5; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i += 2 {
				decide()
				score()
			}
			runtime.ReadMemStats(&after)
			objects, perCall = after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(calls)
			t.Logf("%s: %d calls, %d objects, %.2f B per call", tc.Version, calls, objects, perCall)
			if objects <= maxObjects && perCall <= maxBytes {
				break
			}
		}
		if objects > maxObjects {
			t.Errorf("%s: %d Decide/Score calls made %d objects, budget %d", tc.Version, calls, objects, maxObjects)
		}
		if perCall > maxBytes {
			t.Errorf("%s: %.2f B per call, budget %.2f (%d members)", tc.Version, perCall, maxBytes, k)
		}
	}
}
