package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/link"
	"titant/internal/ms"
	"titant/internal/txn"
)

// The golden files under testdata/golden hold the routed responses of the
// commit before the data plane left encoding/json (ca598c6): they were
// written by this test, -update, on a checkout of that commit. The
// splicing router must answer the same bytes.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from this build's responses")

const goldenTrace = "0123456789abcdef0123456789abcdef"

// goldenShard is a canned shard: it answers the batch routes with
// values derived from the request alone, marshalled by encoding/json
// from the exported wire structs — the reference encoding, identical on
// every commit. strings with <, & and non-ASCII exercise the escaping.
func goldenShard(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	var out interface{}
	switch r.URL.Path {
	case "/v1/score/batch":
		var req ms.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := ms.BatchResponse{Verdicts: []ms.Verdict{}}
		for i := range req.Transactions {
			resp.Verdicts = append(resp.Verdicts, goldenVerdict(&req.Transactions[i]))
		}
		out = resp
	case "/v1/decide/batch":
		var req ms.DecideBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := ms.DecideBatchResponse{Decisions: []ms.Decision{}}
		for i := range req.Transactions {
			tr := &req.Transactions[i]
			sc, _ := decision.ParseScenario(tr.Scenario)
			resp.Decisions = append(resp.Decisions, ms.Decision{
				Verdict:       goldenVerdict(&tr.TxnRequest),
				Scenario:      sc,
				Action:        decision.Action(tr.ID % 3),
				Reason:        fmt.Sprintf("band [0.5,1) of \"%s\" <é&>", sc),
				RuleOverride:  tr.ID%4 == 0,
				PolicyVersion: "pol-1",
			})
		}
		out = resp
	case "/v1/ingest/batch":
		var req ms.IngestBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out = ms.IngestResponse{Ingested: len(req.Transactions)}
	default:
		http.NotFound(w, r)
		return
	}
	data, _ := json.Marshal(out)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

func goldenVerdict(tr *ms.TxnRequest) ms.Verdict {
	v := ms.Verdict{
		TxnID:   txn.TxnID(tr.ID),
		Score:   float64(tr.Amount) / 4096,
		Fraud:   tr.Amount > 2048,
		Version: "2017-04-10<a&b>",
		Latency: time.Duration(1000 + tr.ID),
	}
	if tr.ID%2 == 0 {
		v.Members = []ms.MemberScore{{Name: "gbdt", Score: v.Score}, {Name: "lr\u2028", Score: 1e-7 * float64(tr.ID)}}
	}
	return v
}

// goldenRefusal is a shard refusing the whole request.
func goldenRefusal(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "3")
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = io.WriteString(w, `{"error":{"code":"rate_limited","message":"ms: rate limited","trace_id":"`+goldenTrace+`"}}`+"\n")
}

// goldenTransport dispatches by host name to in-process handlers, so
// shard URLs — which degraded items quote — are the same on every run. A
// nil handler is a blackholed shard.
type goldenTransport map[string]http.HandlerFunc

func (g goldenTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := g[req.URL.Host]
	if h == nil {
		return nil, errors.New("blackholed")
	}
	if req.Body == nil { // the link's upgrade probe: a server would hand on an empty body
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec.Result(), nil
}

// goldenBatch is a 9-transaction body with the members of every route
// (scenario, fraud), an unknown member, uneven whitespace, escapes and a
// null transaction; senders 0..8 spread over both shards.
func goldenBatch() []byte {
	var b bytes.Buffer
	b.WriteString(`{ "note": ["not", {"a": "transaction"}], "transactions" : [`)
	for i := 0; i < 9; i++ {
		if i > 0 {
			b.WriteString(" ,\n ")
		}
		if i == 5 {
			b.WriteString("null")
			continue
		}
		fmt.Fprintf(&b, `{"id": %d, "from":%d,"to": %d, "amount": %d.5, "day":1, "sec":%d,`+
			` "scenario":"%s", "fraud": %t, "memo": "x<y é \"q\"", "tags": [1, {"k": null}]}`,
			100+i, i, (i+3)%9, 700*i, i, []string{"", "payment", "withdrawal"}[i%3], i%4 == 0)
	}
	b.WriteString("] }\n")
	return b.Bytes()
}

func TestRouterGolden(t *testing.T) { goldenCases(t) }

// TestRouterGoldenReleased is TestRouterGolden with hedging on and every
// answer record poisoned as it is released (tier1-stress runs it under
// the race detector too): the bytes stay the golden files', so no splice
// reads an answer frame after its record went back to the pool.
func TestRouterGoldenReleased(t *testing.T) {
	link.PoisonReleased.Store(true)
	defer link.PoisonReleased.Store(false)
	goldenCases(t, WithHedge(time.Microsecond))
}

func goldenCases(t *testing.T, opts ...Option) {
	both := goldenTransport{"shard0": goldenShard, "shard1": goldenShard}
	oneDown := goldenTransport{"shard0": goldenShard}
	refusing := goldenTransport{"shard0": goldenShard, "shard1": goldenRefusal}
	cases := []struct {
		name  string
		path  string
		fleet goldenTransport
	}{
		{"score_healthy", "/v1/score/batch", both},
		{"decide_healthy", "/v1/decide/batch", both},
		{"ingest_healthy", "/v1/ingest/batch", both},
		{"score_blackholed", "/v1/score/batch", oneDown},
		{"decide_blackholed", "/v1/decide/batch", oneDown},
		{"ingest_blackholed", "/v1/ingest/batch", oneDown},
		{"decide_relay_4xx", "/v1/decide/batch", refusing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New([]string{"http://shard0", "http://shard1"},
				append([]Option{WithTransport(tc.fleet), WithRetries(0, 0, 0)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(goldenBatch()))
			req.Header.Set("X-Trace-Id", goldenTrace)
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			got := fmt.Sprintf("%d\nContent-Type: %s\nRetry-After: %s\n\n%s", rec.Code,
				rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.Bytes())
			file := filepath.Join("testdata", "golden", tc.name+".txt")
			if *updateGolden && len(opts) == 0 {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("routed response differs from the pre-codec router's\n got: %s\nwant: %s", got, want)
			}
			if strings.Contains(tc.name, "blackholed") && !strings.Contains(got, "shard_unavailable") {
				t.Error("blackholed shard left no degraded marker")
			}
		})
	}
}
