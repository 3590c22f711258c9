package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/link"
	"titant/internal/logio"
	"titant/internal/ms"
	"titant/internal/txn"
)

var latencyRe = regexp.MustCompile(`"latency_ns":\d+`)

// httpOnly is a transport that refuses the link's upgrade, as a shard
// built before the link does: every shard call is an HTTP exchange.
type httpOnly struct{ http.RoundTripper }

func (h httpOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == link.Path {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: r}, nil
	}
	return h.RoundTripper.RoundTrip(r)
}

// asCore serves a scripted HTTP shard as a shard core, the shape a link
// hands its calls to.
func asCore(fn http.HandlerFunc) link.Handler {
	return func(ctx context.Context, route int, h *link.Header, body, out []byte) (int, link.Header, []byte) {
		r := httptest.NewRequest(link.Routes[route].Method, link.Routes[route].Path, bytes.NewReader(body)).WithContext(ctx)
		for i, v := range h {
			if v != "" {
				r.Header.Set(link.Headers[i], v)
			}
		}
		w := httptest.NewRecorder()
		fn(w, r)
		var ans link.Header
		for i, name := range link.Headers {
			ans[i] = w.Header().Get(name)
		}
		return w.Code, ans, append(out, w.Body.Bytes()...)
	}
}

// linkShard is fakeShard with the link route in front of fn: a scripted
// shard reached the way a real one is.
func linkShard(t *testing.T, fn http.HandlerFunc) *httptest.Server {
	t.Helper()
	hub := &link.Hub{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != link.Path {
			fn(w, r)
		} else if err := hub.Upgrade(w, r, asCore(fn)); err != nil {
			http.Error(w, err.Error(), http.StatusUpgradeRequired)
		}
	}))
	t.Cleanup(func() {
		hs.Close()
		hub.Shutdown(context.Background())
	})
	return hs
}

// routed posts body through a router over a real socket and renders what
// a caller sees: status, the three relayed headers, body.
func routed(t *testing.T, rt *Router, path string, body []byte, hdr map[string]string) string {
	t.Helper()
	w := doReq(t, rt.Handler(), http.MethodPost, path, body, hdr)
	return fmt.Sprintf("%d\nContent-Type: %s\nRetry-After: %s\nX-Trace-Id: %s\n\n%s", w.Code,
		w.Header().Get("Content-Type"), w.Header().Get("Retry-After"), w.Header().Get("X-Trace-Id"), w.Body.Bytes())
}

// TestRouterLinkMatchesHTTP is TestRouterGolden over real sockets, twice:
// the same shards reached by link and by HTTP must give the caller the
// same bytes — status, Content-Type, Retry-After, X-Trace-Id and body —
// on all seven cases, and where the body names no shard address those
// bytes are the golden file's.
func TestRouterLinkMatchesHTTP(t *testing.T) {
	healthy := [2]http.HandlerFunc{goldenShard, goldenShard}
	cases := []struct {
		name, path string
		shards     [2]http.HandlerFunc // nil: a dead shard
	}{
		{"score_healthy", "/v1/score/batch", healthy},
		{"decide_healthy", "/v1/decide/batch", healthy},
		{"ingest_healthy", "/v1/ingest/batch", healthy},
		{"score_blackholed", "/v1/score/batch", [2]http.HandlerFunc{goldenShard, nil}},
		{"decide_blackholed", "/v1/decide/batch", [2]http.HandlerFunc{goldenShard, nil}},
		{"ingest_blackholed", "/v1/ingest/batch", [2]http.HandlerFunc{goldenShard, nil}},
		{"decide_relay_4xx", "/v1/decide/batch", [2]http.HandlerFunc{goldenShard, goldenRefusal}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := make([]string, 2)
			for i, fn := range tc.shards {
				if fn == nil {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					urls[i] = "http://" + ln.Addr().String()
					ln.Close()
					continue
				}
				urls[i] = linkShard(t, fn).URL
			}
			plain := &http.Transport{}
			defer plain.CloseIdleConnections()
			byLink := newTestRouter(t, urls, WithRetries(0, 0, 0))
			byHTTP := newTestRouter(t, urls, WithTransport(httpOnly{plain}), WithRetries(0, 0, 0))
			hdr := map[string]string{"X-Trace-Id": goldenTrace}
			got := routed(t, byLink, tc.path, goldenBatch(), hdr)
			if want := routed(t, byHTTP, tc.path, goldenBatch(), hdr); got != want {
				t.Errorf("the link and HTTP answer differently\nlink: %s\nhttp: %s", got, want)
			}
			if healthy := tc.shards[1] != nil; healthy != (byLink.link.Calls.Load() == 2) || byHTTP.link.Calls.Load() != 0 {
				t.Errorf("link calls %d with shard 1 healthy=%v; HTTP router's %d", byLink.link.Calls.Load(), healthy, byHTTP.link.Calls.Load())
			}
			if tc.shards[1] == nil {
				if !strings.Contains(got, "shard_unavailable") {
					t.Error("dead shard left no degraded marker")
				}
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got = strings.Replace(got, "X-Trace-Id: "+goldenTrace+"\n", "", 1); got != string(want) {
				t.Errorf("routed response differs from the golden file\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestRouterLinkMatchesHTTPQuota: per-caller quotas on real shards refuse
// the same calls with the same 429, Retry-After included, whichever wire
// carried X-Caller there.
func TestRouterLinkMatchesHTTPQuota(t *testing.T) {
	plain := &http.Transport{}
	defer plain.CloseIdleConnections()
	quota := func() []ms.Option { return append(streamOpts(), ms.WithCallerQuota(0.001, 2)) }
	byLink := newFleet(t, 2, quota, WithRetries(0, 0, 0))
	byHTTP := newFleet(t, 2, quota, WithRetries(0, 0, 0), WithTransport(httpOnly{plain}))
	single := []byte(`{"id":1,"from":3,"amount":10}`)
	batch, _ := json.Marshal(map[string]interface{}{"transactions": fleetTxns(12, 3)})
	refused := 0
	for i, call := range []struct {
		path, caller string
		body         []byte
	}{
		{"/v1/score", "alpha", single}, {"/v1/score", "alpha", single}, {"/v1/score", "alpha", single},
		{"/v1/score", "beta", single}, {"/v1/score/batch", "gamma", batch}, {"/v1/score/batch", "alpha", batch},
	} {
		hdr := map[string]string{"X-Caller": call.caller, "X-Trace-Id": goldenTrace}
		got, want := routed(t, byLink.rt, call.path, call.body, hdr), routed(t, byHTTP.rt, call.path, call.body, hdr)
		// Verdicts carry their measured latency: the one member that may differ.
		if mask := func(s string) string { return latencyRe.ReplaceAllString(s, `"latency_ns":0`) }; mask(got) != mask(want) {
			t.Errorf("call %d: the link and HTTP answer differently\nlink: %s\nhttp: %s", i, got, want)
		}
		if strings.HasPrefix(got, "429\n") && strings.Contains(got, "Retry-After: 1\n") {
			refused++
		}
	}
	if refused != 3 {
		t.Errorf("%d calls refused over quota with a Retry-After, want 3", refused)
	}
	if byLink.rt.link.Calls.Load() == 0 || byHTTP.rt.link.Calls.Load() != 0 {
		t.Error("the two fleets did not differ in transport")
	}
}

// TestRouterMixedFleet: a shard built before the link next to one that
// speaks it. The answers are the reference engine's either way, and the
// stats show one transport of each.
func TestRouterMixedFleet(t *testing.T) {
	f := newFleet(t, 2, streamOpts)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == link.Path {
			http.NotFound(w, r)
			return
		}
		f.servers[0].Handler().ServeHTTP(w, r)
	}))
	defer old.Close()
	rt := newTestRouter(t, []string{old.URL, f.web[1].URL})
	reqs := fleetTxns(80, 11)
	w, body := postJSON(t, rt.Handler(), "/v1/score/batch", map[string]interface{}{"transactions": reqs})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, body)
	}
	var resp ms.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	txns := make([]txn.Transaction, len(reqs))
	for i := range reqs {
		txns[i] = reqs[i].Txn()
	}
	want, err := f.ref.ScoreBatch(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := resp.Verdicts[i]; got.TxnID != want[i].TxnID || got.Score != want[i].Score {
			t.Fatalf("verdict %d: mixed fleet %+v, reference %+v", i, got, want[i])
		}
	}
	var stats Stats
	if code := getJSON(t, rt.Handler(), "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	b := stats.Router.Breakers
	if b[0].Transport != "http" || b[1].Transport != "link" || stats.Router.LinkCalls != 1 || stats.LinkConns != 1 {
		t.Fatalf("transports %q, %q; link calls %d; link conns %d — want http, link, 1, 1",
			b[0].Transport, b[1].Transport, stats.Router.LinkCalls, stats.LinkConns)
	}
}

// restartable is a real shard on a socket the test can kill — listener
// closed, links cut, as a dying process leaves them — and bring back on
// the same address.
type restartable struct {
	t    *testing.T
	addr string
	opts func() []ms.Option
	srv  *ms.Server
	hs   *http.Server
}

func (s *restartable) start() {
	s.t.Helper()
	var err error
	if s.srv, err = ms.New(seedTable(s.t), toyBundle(s.t), s.opts()...); err != nil {
		s.t.Fatal(err)
	}
	if s.addr == "" {
		s.addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Skipf("cannot bind %s: %v", s.addr, err)
	}
	s.addr = ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln)
}

func (s *restartable) kill() {
	s.hs.Close()
	s.srv.Close()
}

// TestRouterShardRestart: a shard killed mid-run. Calls come back typed
// shard_unavailable, the breaker opens on the refused redials, and once
// the shard is back the half-open probe redials the link and closes it.
func TestRouterShardRestart(t *testing.T) {
	victim := &restartable{t: t, opts: streamOpts}
	victim.start()
	defer func() { victim.kill() }()
	rt := newTestRouter(t, []string{"http://" + victim.addr}, WithRetries(0, 0, 0),
		WithBreaker(BreakerConfig{ConsecutiveFails: 3, Cooldown: 50 * time.Millisecond}))
	h := rt.Handler()
	body := []byte(`{"id":1,"from":3,"amount":10}`)
	if w := doReq(t, h, http.MethodPost, "/v1/score", body, nil); w.Code != http.StatusOK {
		t.Fatalf("healthy call: %d %s", w.Code, w.Body)
	}

	victim.kill()
	for i := 0; i < 3; i++ {
		w := doReq(t, h, http.MethodPost, "/v1/score", body, nil)
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), ms.CodeShardUnavailable) {
			t.Fatalf("call %d to the dead shard: %d %s", i, w.Code, w.Body)
		}
	}
	if st := rt.routerStats().Breakers[0]; st.State != "open" || st.Transport != "http" {
		t.Fatalf("after three refusals: breaker %s, transport %s; want open, http", st.State, st.Transport)
	}
	if w := doReq(t, h, http.MethodPost, "/v1/score", body, nil); !strings.Contains(w.Body.String(), "circuit open") {
		t.Fatalf("open breaker let a call through: %s", w.Body)
	}

	victim.start()
	time.Sleep(60 * time.Millisecond) // past the cooldown: the next call is the probe
	if w := doReq(t, h, http.MethodPost, "/v1/score", body, nil); w.Code != http.StatusOK {
		t.Fatalf("probe after the restart: %d %s", w.Code, w.Body)
	}
	st := rt.routerStats()
	if b := st.Breakers[0]; b.State != "closed" || b.HalfOpens != 1 || b.Transport != "link" || st.LinkRedials != 1 {
		t.Fatalf("after the restart: breaker %s, half-opens %d, transport %s, redials %d; want closed, 1, link, 1",
			b.State, b.HalfOpens, b.Transport, st.LinkRedials)
	}
}

// TestRouterPendingCallOnKilledShard: calls pending on a link when the
// shard dies are answered as typed shard_unavailable items, at once —
// not after the attempt timeout.
func TestRouterPendingCallOnKilledShard(t *testing.T) {
	entered, gate := make(chan struct{}, 8), make(chan struct{})
	hub := &link.Hub{}
	var h http.HandlerFunc = func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-gate
		goldenShard(w, r)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := hub.Upgrade(w, r, asCore(h)); err != nil {
			http.Error(w, err.Error(), http.StatusUpgradeRequired)
		}
	}))
	defer hs.Close()
	rt := newTestRouter(t, []string{hs.URL, linkShard(t, goldenShard).URL}, WithRetries(0, 0, 0), WithTimeout(5*time.Second))
	out := make(chan string, 1)
	go func() { out <- routed(t, rt, "/v1/score/batch", goldenBatch(), nil) }()
	<-entered
	start := time.Now()
	hs.Listener.Close()
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	go hub.Shutdown(cut) // returns once the handler does
	got := <-out
	close(gate)
	if !strings.HasPrefix(got, "200\n") || !strings.Contains(got, `"code":"shard_unavailable","shard":0`) || !strings.Contains(got, `"degraded":`) {
		t.Fatalf("pending call on a killed shard: %s", got)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("pending call failed after %v: it waited for its timeout, not for the link's death", took)
	}
}

// TestRouterLinkLifecycle (run under -race): a fleet is opened, driven
// and closed — router first, then shards, and the other way round — and
// the goroutine count returns to where it started: neither end leaves a
// reader, a frame handler or a hijacked connection behind.
func TestRouterLinkLifecycle(t *testing.T) {
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for wait := time.Now().Add(2 * time.Second); n > want && time.Now().Before(wait); n = runtime.NumGoroutine() {
			time.Sleep(2 * time.Millisecond)
		}
		return n
	}
	for _, routerFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("routerFirst=%v", routerFirst), func(t *testing.T) {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			before := runtime.NumGoroutine()
			var shards []*restartable
			urls := make([]string, 2)
			for i := range urls {
				s := &restartable{t: t, opts: streamOpts}
				s.start()
				shards, urls[i] = append(shards, s), "http://"+s.addr
			}
			tr := &http.Transport{}
			rt, err := New(urls, WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(map[string]interface{}{"transactions": fleetTxns(40, 5)})
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						if w := doReq(t, rt.Handler(), http.MethodPost, "/v1/score/batch", body, nil); w.Code != http.StatusOK {
							t.Errorf("status %d: %s", w.Code, w.Body)
						}
					}
				}()
			}
			wg.Wait()
			if n := shards[0].srv.Stats().LinkConns + shards[1].srv.Stats().LinkConns; n != 2 || rt.link.Calls.Load() != 200 {
				t.Fatalf("%d link conns, %d link calls; want 2, 200", n, rt.link.Calls.Load())
			}
			if routerFirst {
				rt.Close()
			}
			for _, s := range shards {
				s.kill()
			}
			rt.Close()
			tr.CloseIdleConnections()
			if after := settle(before); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the fleet, %d after it closed\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestRoutedAllocBudget pins what a warm routed decide batch allocates,
// process-wide: client → router → 2 shards over loopback, the client
// posting raw bytes as BenchmarkWireDecideBatch/routed does. 377 objects
// at the commit before the link, 210 before the call seam, 128 before the
// engine's pooled fan-out, 112 before the shards' engines wrote their
// decisions into the wire buffer and 108 while the router carried the
// trace in the request and its context, scattered through closures and
// left its body to net/http to close, 64 transactions; and the count must
// not grow with the batch.
func TestRoutedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	pol := decision.Default("pol", 0.5)
	f := newFleet(t, 2, func() []ms.Option { return []ms.Option{ms.WithPolicy(pol), ms.WithUserCache(128), ms.WithWorkers(1)} })
	front := httptest.NewServer(f.rt.Handler())
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	measure := func(n int) float64 {
		raw, _ := json.Marshal(map[string]interface{}{"transactions": fleetTxns(n, 9)})
		routed := testing.AllocsPerRun(100, func() {
			resp, err := client.Post(front.URL+"/v1/decide/batch", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, %v", resp.StatusCode, err)
			}
		})
		t.Logf("%d transactions: routed %.0f allocs", n, routed)
		return routed
	}
	small, large := measure(64), measure(256)
	if small > 98 {
		t.Errorf("a routed 64-transaction decide batch allocates %.0f objects, budget 98", small)
	}
	if large-small > 4 {
		t.Errorf("the wire tier's allocations grow with the batch: %.0f objects at 64 transactions, %.0f at 256", small, large)
	}
}

// stubShard is a shard end that answers every link call with the same
// canned answer and allocates nothing per call once warm, so a count of a
// warm call sees the router end alone.
func stubShard(t *testing.T, answer string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	le := binary.LittleEndian
	out := le.AppendUint16(make([]byte, logio.FrameOverhead+8), http.StatusOK)
	for i := range link.Headers {
		v := ""
		if i == link.SlotContentType {
			v = link.JSON
		}
		out = append(le.AppendUint32(out, uint32(len(v))), v...)
	}
	out = append(out, answer...)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: titant-link\r\n\r\n")
		var in []byte
		for {
			if in, err = logio.ReadFrame(br, in); err != nil {
				return
			}
			copy(out[logio.FrameOverhead:], in[:8]) // the call id
			if logio.Seal(out) != nil {
				return
			}
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestRouterCallAllocBudget counts the router end of one warm link call:
// the resilience plane's attempt through the caller seam — pooled record,
// frame out, answer back, record released — against a shard end that
// allocates nothing: none (≈ 25.7 when each attempt built an http.Request
// for http.Client.Do under context.WithTimeout and copied the answer out
// of its http.Response).
func TestRouterCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	const canned = `{"txn_id":1,"score":0.5}`
	rt := newTestRouter(t, []string{stubShard(t, canned)}, WithRetries(0, 0, 0))
	var h link.Header
	h[link.SlotContentType], h[link.SlotTrace] = link.JSON, goldenTrace
	spec := callSpec{route: link.Route(http.MethodPost, "/v1/score"), body: []byte(`{"id":1,"from":3,"amount":10}`), retryable: true}
	deadline := time.Now().Add(time.Minute) // no attempt is clamped to it
	call := func() {
		u := rt.resilientCall(context.Background(), &h, deadline, spec)
		if u.failed() || string(u.Body) != canned {
			t.Fatalf("call: %v %d %q", u.err, u.Status, u.Body)
		}
		u.release()
	}
	call() // the link is dialled
	n := testing.AllocsPerRun(500, call)
	t.Logf("the router end of a warm link call allocates %.1f objects", n)
	if n > 0 || rt.link.Calls.Load() != 502 {
		t.Errorf("router end %.1f objects over %d link calls, budget 0", n, rt.link.Calls.Load())
	}
}
