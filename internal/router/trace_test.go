package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"titant/internal/link"
	"titant/internal/telemetry"
)

// tracedShard is goldenShard over the link, recording the trace each call
// arrives with.
func tracedShard(t *testing.T, mu *sync.Mutex, seen *[]string) string {
	return linkShard(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		*seen = append(*seen, r.Header.Get(telemetry.TraceHeader))
		mu.Unlock()
		goldenShard(w, r)
	}).URL
}

// exemplars returns the trace IDs of the router's slowest-request
// exemplars on the endpoint serving path.
func exemplars(t *testing.T, h http.Handler, path string) []string {
	t.Helper()
	var body struct {
		Endpoints map[string]struct {
			Slowest []struct {
				TraceID string `json:"trace_id"`
			} `json:"slowest"`
		} `json:"endpoints"`
	}
	w := doReq(t, h, http.MethodGet, "/v1/debug/trace", nil, nil)
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("/v1/debug/trace: %v: %s", err, w.Body)
	}
	var ids []string
	for _, e := range body.Endpoints[strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "_")].Slowest {
		ids = append(ids, e.TraceID)
	}
	return ids
}

// TestBatchTraceReachesEveryLeg: on each batch route, a request with no
// X-Trace-Id and one with a malformed one each run under a minted trace,
// and the ID the response echoes is the ID every shard leg receives over
// the link and the ID the router's /v1/debug/trace exemplar names.
func TestBatchTraceReachesEveryLeg(t *testing.T) {
	var mu sync.Mutex
	var legs []string
	rt := newTestRouter(t, []string{tracedShard(t, &mu, &legs), tracedShard(t, &mu, &legs)})
	h := rt.Handler()
	for _, path := range []string{"/v1/score/batch", "/v1/decide/batch", "/v1/ingest/batch"} {
		for _, sent := range []string{"", "not-a-trace"} {
			mu.Lock()
			legs = nil
			mu.Unlock()
			hdr := map[string]string{}
			if sent != "" {
				hdr[telemetry.TraceHeader] = sent
			}
			w := doReq(t, h, http.MethodPost, path, goldenBatch(), hdr)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
			}
			echoed := w.Header().Get(telemetry.TraceHeader)
			if _, ok := telemetry.ParseTraceID(echoed); !ok {
				t.Fatalf("%s with X-Trace-Id %q: echoed %q, not a minted ID", path, sent, echoed)
			}
			mu.Lock()
			got := append([]string(nil), legs...)
			mu.Unlock()
			if len(got) != 2 {
				t.Fatalf("%s: %d shard legs, want 2", path, len(got))
			}
			for i, id := range got {
				if id != echoed {
					t.Fatalf("%s: leg %d carried trace %q, the response %q", path, i, id, echoed)
				}
			}
			found := false
			for _, id := range exemplars(t, h, path) {
				found = found || id == echoed
			}
			if !found {
				t.Fatalf("%s: no /v1/debug/trace exemplar names trace %q", path, echoed)
			}
		}
	}
	if rt.link.Calls.Load() != 12 {
		t.Fatalf("%d calls over the link, want all 12", rt.link.Calls.Load())
	}
}

// TestPolicyTraceReachesEveryShard: every leg of a replicated POST
// /v1/policy carries the trace the response names — minted for a missing
// or malformed X-Trace-Id, the caller's in lower case otherwise.
func TestPolicyTraceReachesEveryShard(t *testing.T) {
	var mu sync.Mutex
	var legs []string
	shard := func() string {
		return fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			legs = append(legs, r.Header.Get(telemetry.TraceHeader))
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"version":"pol-2"}`)
		}).URL
	}
	h := newTestRouter(t, []string{shard(), shard(), shard()}).Handler()
	for _, sent := range []string{"", "not-a-trace", "00112233445566778899AABBCCDDEEFF"} {
		mu.Lock()
		legs = nil
		mu.Unlock()
		w := doReq(t, h, http.MethodPost, "/v1/policy", []byte(`{"version":"pol-2"}`), map[string]string{telemetry.TraceHeader: sent})
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		echoed := w.Header().Get(telemetry.TraceHeader)
		if _, ok := telemetry.ParseTraceID(echoed); !ok || (sent != "" && echoed == sent) {
			t.Fatalf("X-Trace-Id %q echoed as %q", sent, echoed)
		}
		if _, ok := telemetry.ParseTraceID(sent); ok && echoed != strings.ToLower(sent) {
			t.Fatalf("well-formed X-Trace-Id %q echoed as %q", sent, echoed)
		}
		if len(legs) != 3 {
			t.Fatalf("swap reached %d shards, want 3", len(legs))
		}
		for i, id := range legs {
			if id != echoed {
				t.Fatalf("shard %d got trace %q, the response %q", i, id, echoed)
			}
		}
	}
}

// TestScratchPinsNothing: once a batch or a fan-out has returned, its
// pooled scratch holds no context, slots, call inputs or answer record.
func TestScratchPinsNothing(t *testing.T) {
	rt := newTestRouter(t, []string{linkShard(t, goldenShard).URL, linkShard(t, goldenShard).URL})
	h := rt.Handler()
	for _, req := range []struct{ method, path string }{{http.MethodPost, "/v1/decide/batch"}, {http.MethodGet, "/healthz"}} {
		checked := false
		for i := 0; i < 20 && !checked; i++ {
			doReq(t, h, req.method, req.path, goldenBatch(), nil)
			sc := scratchPool.Get().(*batchScratch)
			if checked = sc.leg != nil && cap(sc.ups) > 0; !checked {
				continue // a fresh scratch: the pool dropped the used one
			}
			if sc.rt != nil || sc.ctx != nil || sc.slots != (link.Header{}) || !sc.deadline.IsZero() ||
				sc.spec.sub != nil || sc.spec.body != nil || sc.spec.route != 0 {
				t.Fatalf("%s %s: the pooled scratch keeps its request's inputs", req.method, req.path)
			}
			for si, u := range sc.ups[:cap(sc.ups)] {
				if u.Call != nil || u.err != nil {
					t.Fatalf("%s %s: the pooled scratch keeps shard %d's answer", req.method, req.path, si)
				}
			}
			scratchPool.Put(sc)
		}
		if !checked {
			t.Fatalf("%s %s: the pool never handed a used scratch back", req.method, req.path)
		}
	}
}

// TestBodyTooLargeEnvelope: a body past the route's cap is refused before
// any shard is called, with the 413 envelope naming the request's trace.
func TestBodyTooLargeEnvelope(t *testing.T) {
	var calls atomic.Int64
	shard := fakeShard(t, func(w http.ResponseWriter, r *http.Request) { calls.Add(1) })
	h := newTestRouter(t, []string{shard.URL}).Handler()
	body := append([]byte(`{"id":1,"from":3,"memo":"`), bytes.Repeat([]byte("x"), maxSingleBytes)...)
	w := doReq(t, h, http.MethodPost, "/v1/score", append(body, `"}`...), map[string]string{telemetry.TraceHeader: goldenTrace})
	want := `{"error":{"code":"body_too_large","message":"http: request body too large","trace_id":"` + goldenTrace + `"}}` + "\n"
	if w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != want || calls.Load() != 0 {
		t.Fatalf("status %d, %d shard calls, body %s", w.Code, calls.Load(), w.Body)
	}
}
