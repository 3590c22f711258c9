package ms

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"titant/internal/txn"
)

// v1Server uploads a couple of users and returns a strict-mode engine
// behind an httptest server, so unknown users surface as 404s.
func v1Server(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 4; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(tab, trainToy(t, 0), WithStrictUsers())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	return env.Error
}

func TestV1ScoreHappyPath(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 7, From: 1, To: 2, Amount: 1800})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.TxnID != 7 || !v.Fraud || v.Version != "2017-04-10" {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestV1ScoreMalformedJSON(t *testing.T) {
	_, ts := v1Server(t)
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "bad_request" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestV1ScoreUnknownUser(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 1, From: 1, To: 404, Amount: 10})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "user_not_found" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestV1MethodMisuse(t *testing.T) {
	_, ts := v1Server(t)
	for _, path := range []string{"/v1/score", "/v1/score/batch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != "method_not_allowed" {
			t.Fatalf("envelope = %+v", e)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d", resp.StatusCode)
	}
}

func TestV1ScoreBatchOrdering(t *testing.T) {
	_, ts := v1Server(t)
	var req BatchRequest
	for i := 0; i < 40; i++ {
		req.Transactions = append(req.Transactions, TxnRequest{
			ID: int64(100 + i), From: int32(1 + i%4), To: int32(1 + (i+1)%4),
			Amount: float32(10 * i),
		})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/score/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Verdicts) != len(req.Transactions) {
		t.Fatalf("got %d verdicts, want %d", len(br.Verdicts), len(req.Transactions))
	}
	for i, v := range br.Verdicts {
		if v.TxnID != txn.TxnID(100+i) {
			t.Fatalf("verdict %d has txn %d: batch order not preserved", i, v.TxnID)
		}
	}
}

func TestV1ModelsHotSwap(t *testing.T) {
	srv, ts := v1Server(t)

	// GET reports the active bundle.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != "2017-04-10" {
		t.Fatalf("info = %+v", info)
	}

	// POST hot-swaps an encoded bundle over the wire.
	nb := trainToy(t, 0)
	nb.Version = "2017-04-11"
	raw, err := nb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/models", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Version != "2017-04-11" {
		t.Fatalf("status = %d info = %+v", resp.StatusCode, info)
	}
	if srv.BundleVersion() != "2017-04-11" {
		t.Fatal("hot swap did not reach the engine")
	}

	// Garbage bundles are rejected with the typed envelope.
	resp, err = http.Post(ts.URL+"/v1/models", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage bundle status = %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "bundle_invalid" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestV1ModelsTokenGuard(t *testing.T) {
	tab := table(t)
	srv, err := New(tab, trainToy(t, 0), WithModelToken("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nb := trainToy(t, 0)
	nb.Version = "guarded"
	raw, err := nb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Missing and wrong tokens are rejected; GET stays open.
	resp, err := http.Post(ts.URL+"/v1/models", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != "unauthorized" {
		t.Fatalf("envelope = %+v", e)
	}
	if srv.BundleVersion() == "guarded" {
		t.Fatal("unauthorized swap went through")
	}
	if resp, err = http.Get(ts.URL + "/v1/models"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET with token set: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	// The right token swaps.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || srv.BundleVersion() != "guarded" {
		t.Fatalf("authorized swap: %d version=%s", resp.StatusCode, srv.BundleVersion())
	}
}

func TestV1StatsAndHealth(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 1, From: 1, To: 2, Amount: 5})
	if resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body)); err != nil {
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
	if stats["scored"].(float64) < 1 || stats["version"].(string) == "" {
		t.Fatalf("stats = %v", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// The pre-v1 routes are gone: only their v1 forms answer.
	for _, path := range []string{"/score", "/stats", "/reload"} {
		resp, err = http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("removed route %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// An ensemble bundle's per-member scores and model metadata travel the
// wire: POST /v1/score carries a members array, GET /v1/models the
// combiner and member descriptors.
func TestV1EnsembleOnTheWire(t *testing.T) {
	srv := ensembleEngine(t, CombineMean)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(TxnRequest{ID: 3, From: 1, To: 2, Amount: 50})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var members []MemberScore
	if err := json.Unmarshal(raw["members"], &members); err != nil {
		t.Fatalf("members field: %v (body keys %v)", err, raw)
	}
	if len(members) != 2 || members[0].Name != "lo" || members[1].Score != 0.8 {
		t.Fatalf("wire members = %+v", members)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Combiner != "mean" || len(info.Members) != 2 || info.Members[1].Name != "hi" {
		t.Fatalf("wire model info = %+v", info)
	}
}

// A v1 engine's score response must not grow a members field.
func TestV1ScoreResponseShapeUnchanged(t *testing.T) {
	_, ts := v1Server(t)
	body, _ := json.Marshal(TxnRequest{ID: 7, From: 1, To: 2, Amount: 10})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["members"]; ok {
		t.Fatalf("v1 response grew a members field: %v", raw)
	}
}
