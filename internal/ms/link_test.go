package ms

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/link"
	"titant/internal/logio"
	"titant/internal/txn"
)

// slowModel is a stub detector that parks in every scoring call. The
// engine cannot interrupt a model, so an expired deadline shows at the
// stage boundary behind it.
type slowModel struct {
	Width   int
	SleepMs int
}

func init() { gob.Register(&slowModel{}) }

func (m *slowModel) NumFeatures() int { return m.Width }
func (m *slowModel) Score([]float64) float64 {
	time.Sleep(time.Duration(m.SleepMs) * time.Millisecond)
	return 0.1
}
func (m *slowModel) ScoreBatch(dst []float64, _ *feature.Matrix) {
	time.Sleep(time.Duration(m.SleepMs) * time.Millisecond)
	clear(dst)
}

// wire posts one call to a shard — over HTTP, or over a link when lk is
// set — and returns the answer's status and body.
type wire func(route int, h link.Header, body string) (int, string)

func httpWire(t *testing.T, base string) wire {
	plain := &http.Transport{}
	t.Cleanup(plain.CloseIdleConnections)
	return func(route int, h link.Header, body string) (int, string) {
		req, err := http.NewRequest(http.MethodPost, base+link.Routes[route].Path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range h {
			if v != "" {
				req.Header.Set(link.Headers[i], v)
			}
		}
		resp, err := plain.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
}

func linkWire(t *testing.T, lk *link.Transport) wire {
	return func(route int, h link.Header, body string) (int, string) {
		c := link.NewCall(0, route)
		defer c.Release()
		c.Header = h
		c.Write([]byte(body))
		if err := lk.Do(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		return c.Status, string(c.Body)
	}
}

// TestShardHonoursDeadline: a call carrying X-Deadline-Ms: 5 into an
// engine whose model takes 10 ms is answered 503 "canceled" well inside
// 50 ms on both transports — the HTTP route reads the header, the link
// the frame slot, one core behind them — the worker pool is gone when it
// is, and the next call on the same connection is unaffected.
func TestShardHonoursDeadline(t *testing.T) {
	bundle, err := NewBundle("slow", &slowModel{Width: feature.NumBasic, SleepMs: 10}, 0.5, trainToy(t, 0).City, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(table(t), bundle, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	body := `{"transactions":[{"id":1,"from":1,"to":2,"amount":5},{"id":2,"from":2,"to":3,"amount":7},` +
		`{"id":3,"from":3,"to":4,"amount":9},{"id":4,"from":4,"to":1,"amount":11}]}`

	lk := link.New(nil, []string{hs.URL})
	defer lk.Close()
	for name, post := range map[string]wire{"http": httpWire(t, hs.URL), "link": linkWire(t, lk)} {
		t.Run(name, func(t *testing.T) {
			call := func(deadlineMs string) (int, string, time.Duration) {
				var h link.Header
				h[link.SlotDeadline] = deadlineMs
				start := time.Now()
				code, raw := post(link.Route("POST", "/v1/score/batch"), h, body)
				return code, raw, time.Since(start)
			}
			// Warm: the connection and its goroutines exist before the count.
			if code, raw, _ := call("2000"); code != http.StatusOK {
				t.Fatalf("warm call: %d %s", code, raw)
			}
			before := runtime.NumGoroutine()
			code, raw, took := call("5")
			if code != http.StatusServiceUnavailable || !strings.Contains(raw, `"code":"canceled"`) {
				t.Fatalf("expired call answered %d %s, want 503 canceled", code, raw)
			}
			if took > 50*time.Millisecond {
				t.Errorf("expired call took %v, want under 50ms", took)
			}
			for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the expired call, %d before it", runtime.NumGoroutine(), before)
				}
			}
			if code, raw, _ := call("2000"); code != http.StatusOK || !strings.Contains(raw, `"verdicts"`) {
				t.Fatalf("call after the expired one: %d %s", code, raw)
			}
		})
	}
	if lk.Calls.Load() != 3 || lk.Redials.Load() != 0 || srv.Stats().LinkConns != 1 {
		t.Fatalf("link calls %d, redials %d, conns %d; want 3, 0, 1", lk.Calls.Load(), lk.Redials.Load(), srv.Stats().LinkConns)
	}
}

// TestIngestIdempotent: one keyed ingest sent twice over HTTP and twice
// over the link is applied to the window once; all four answers are the
// same bytes, and the three replays are counted. A replay that arrives
// while the first call is still being applied waits for its answer.
func TestIngestIdempotent(t *testing.T) {
	st := stream.New(stream.WithCities(2))
	srv, err := New(table(t), trainToy(t, 0), WithStreamAggregates(st))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	lk := link.New(nil, []string{hs.URL})
	defer lk.Close()
	batch := link.Route("POST", "/v1/ingest/batch")
	body := `{"transactions":[{"id":1,"day":1,"sec":5,"from":1,"to":2,"amount":5}]}`
	var h link.Header
	h[link.SlotIdempotencyKey], h[link.SlotTrace] = "k-1", "0123456789abcdef0123456789abcdef"
	var answers []string
	for _, post := range []wire{httpWire(t, hs.URL), httpWire(t, hs.URL), linkWire(t, lk), linkWire(t, lk)} {
		code, raw := post(batch, h, body)
		if code != http.StatusOK {
			t.Fatalf("keyed ingest: %d %s", code, raw)
		}
		answers = append(answers, raw)
	}
	for i, a := range answers {
		if a != answers[0] {
			t.Errorf("answer %d %q differs from the first %q", i, a, answers[0])
		}
	}
	stats := srv.Stats()
	if *stats.Ingested != 1 || *stats.IngestDeduped != 3 {
		t.Fatalf("ingested %d, deduped %d; want 1, 3", *stats.Ingested, *stats.IngestDeduped)
	}

	// In flight: the holder of a key has not settled, so a replay waits —
	// until its own context ends, or the holder's answer is in.
	e, first, err := srv.idem.claim(context.Background(), "k-2")
	if err != nil || !first {
		t.Fatalf("claim of a fresh key: first %v, %v", first, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := srv.idem.claim(ctx, "k-2"); err != context.DeadlineExceeded {
		t.Fatalf("replay of a key in flight: %v, want its context's end", err)
	}
	got := make(chan string, 1)
	go func() {
		r, _, _ := srv.idem.claim(context.Background(), "k-2")
		got <- string(r.body)
	}()
	srv.idem.settle(e, http.StatusOK, []byte("first\n"))
	if b := <-got; b != "first\n" {
		t.Fatalf("waiting replay got %q", b)
	}
}

// rawLink opens a link to a shard by hand — an upgrade written on a TCP
// connection, frames built and read in place — so that a warm call costs
// the client side no allocation and a count sees the shard end alone.
func rawLink(t *testing.T, addr string) func(route int, h *link.Header, body []byte) (int, []byte) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: titant-link\r\n\r\n", link.Path)
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	le := binary.LittleEndian
	var out, in []byte
	return func(route int, h *link.Header, body []byte) (int, []byte) {
		out = append(out[:0], make([]byte, logio.FrameOverhead)...)
		out = le.AppendUint16(le.AppendUint64(out, 1), uint16(route))
		for _, v := range h {
			out = append(le.AppendUint32(out, uint32(len(v))), v...)
		}
		out = append(out, body...)
		if err := logio.Seal(out); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		if in, err = logio.ReadFrame(br, in); err != nil {
			t.Fatal(err)
		}
		status, p := int(le.Uint16(in[8:])), in[10:]
		for range h {
			p = p[4+le.Uint32(p):]
		}
		return status, p
	}
}

// TestLinkCallAllocBudget counts the shard end of one warm link call —
// frame read, slots, core, engine verb, answer frame — at 64 and at 256
// transactions: 1 object at either size, the call's trace string (2 while
// each call's goroutine started through a method-value closure, 4 beside
// DecideBatch's own 2 before the engine put its decisions in the call's
// pooled wire buffer, ≈ 11.7 beside them when the link replayed each
// frame through a pooled http.Request and the trace middleware). Every
// call carries a fresh trace, as routed calls do.
func TestLinkCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 32; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(tab, trainToy(t, 0), WithPolicy(decidePolicy(t)), WithWorkers(1), WithUserCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	call := rawLink(t, hs.Listener.Addr().String())
	var h link.Header
	h[link.SlotContentType], h[link.SlotDeadline] = link.JSON, "2000"
	trace := []byte("0123456789abcdef0123456789abcdef")
	route, n := link.Route("POST", "/v1/decide/batch"), 0
	fresh := func() {
		n++
		for i := 0; i < 16; i++ {
			trace[31-i] = "0123456789abcdef"[n>>(4*i)&15]
		}
		h[link.SlotTrace] = string(trace)
	}
	clientSide := testing.AllocsPerRun(200, fresh) // the trace string the count's client makes
	shardEnd := func(size int) float64 {
		req := DecideBatchRequest{Transactions: make([]DecideRequest, size)}
		for i := range req.Transactions {
			tr := TxnRequest{ID: int64(i), From: int32(1 + i%32), To: int32(1 + (i+7)%32), Amount: float32(10 * i), Sec: int32(i)}
			req.Transactions[i] = DecideRequest{TxnRequest: tr, Scenario: "withdrawal"}
		}
		body, _ := json.Marshal(req)
		over := testing.AllocsPerRun(200, func() {
			fresh()
			status, ans := call(route, &h, body)
			if status != http.StatusOK || !bytes.HasPrefix(ans, []byte(`{"decisions":[`)) {
				t.Fatalf("status %d: %.80s", status, ans)
			}
		})
		t.Logf("%d transactions: link call %.1f allocs, of which the client's trace %.1f: shard end %.1f", size, over, clientSide, over-clientSide)
		return over - clientSide
	}
	small, large := shardEnd(64), shardEnd(256)
	if small > 1 || large > 1 {
		t.Errorf("the shard end of a warm link call allocates %.1f (64 txns) and %.1f (256 txns) objects, budget 1", small, large)
	}
	if small != large {
		t.Errorf("the shard end grows with the batch: %.1f objects at 64 transactions, %.1f at 256", small, large)
	}
}

// TestPooledResultsIsolated: the wire answer encodes the engine's results
// from its call's pooled buffer, so concurrent calls must never see each
// other's rows. Link and HTTP callers hammer one shard with score and
// decide calls, single and batched, of varying sizes; every answer must
// equal what the plain Score, ScoreBatch, Decide or DecideBatch returns
// for the same rows, member breakdowns included, latency aside.
func TestPooledResultsIsolated(t *testing.T) {
	tab := table(t)
	seedEmbUsers(t, &Uploader{Table: tab}, 64)
	srv, err := New(tab, embSumBundle(t), WithPolicy(decidePolicy(t)), WithWorkers(2), WithUserCache(32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	lk := link.New(nil, []string{hs.URL})
	defer lk.Close()
	plain := &http.Transport{}
	defer plain.CloseIdleConnections()
	// The two wires, as the callers' goroutines use them: errors, not t.Fatal.
	wires := []func(route int, body string) (int, string, error){
		func(route int, body string) (int, string, error) {
			c := link.NewCall(0, route)
			defer c.Release()
			c.Write([]byte(body))
			if err := lk.Do(context.Background(), c); err != nil {
				return 0, "", err
			}
			return c.Status, string(c.Body), nil
		},
		func(route int, body string) (int, string, error) {
			resp, err := (&http.Client{Transport: plain}).Post(hs.URL+link.Routes[route].Path, link.JSON, strings.NewReader(body))
			if err != nil {
				return 0, "", err
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			return resp.StatusCode, string(raw), err
		},
	}

	// One case per (route, batch): its body and the plain engine's answer.
	type want struct {
		route string
		body  string
		ds    []Decision
		vs    []Verdict
	}
	ctx := context.Background()
	var cases []want
	for k, size := range []int{1, 3, 17, 64, 5, 130} {
		txns := uniformBatches(1, size, 64, uint64(k+1))[0]
		scs := make([]decision.Scenario, size)
		reqs := make([]DecideRequest, size)
		for i := range txns {
			if i%5 == 2 {
				txns[i].Amount = 200000 // the amount-ceiling rule decides it
			}
			scs[i] = decision.Scenario((i + k) % decision.NumScenarios)
			tx := &txns[i]
			reqs[i] = DecideRequest{TxnRequest: TxnRequest{ID: int64(tx.ID), From: int32(tx.From), To: int32(tx.To), Amount: tx.Amount}, Scenario: scs[i].String()}
		}
		ds, err := srv.DecideBatch(ctx, txns, scs)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := srv.ScoreBatch(ctx, txns)
		if err != nil {
			t.Fatal(err)
		}
		batch, _ := json.Marshal(DecideBatchRequest{Transactions: reqs})
		cases = append(cases, want{route: "/v1/decide/batch", body: string(batch), ds: ds}, want{route: "/v1/score/batch", body: string(batch), vs: vs})
		one, _ := json.Marshal(reqs[0])
		d, err := srv.Decide(ctx, &txns[0], scs[0])
		if err != nil {
			t.Fatal(err)
		}
		v, err := srv.Score(ctx, &txns[0])
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, want{route: "/v1/decide", body: string(one), ds: []Decision{d}}, want{route: "/v1/score", body: string(one), vs: []Verdict{v}})
	}
	for i := range cases {
		for j := range cases[i].ds {
			cases[i].ds[j].Latency = 0
		}
		for j := range cases[i].vs {
			cases[i].vs[j].Latency = 0
		}
	}

	const callers, calls = 6, 40
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range calls {
				w := cases[(c*7+n*5)%len(cases)]
				status, body, err := wires[(c+n)%2](link.Route("POST", w.route), w.body)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d, %v: %s", w.route, status, err, body)
					return
				}
				var ds []Decision
				var vs []Verdict
				switch w.route {
				case "/v1/decide/batch":
					var r DecideBatchResponse
					err, ds = json.Unmarshal([]byte(body), &r), r.Decisions
				case "/v1/score/batch":
					var r BatchResponse
					err, vs = json.Unmarshal([]byte(body), &r), r.Verdicts
				case "/v1/decide":
					ds = make([]Decision, 1)
					err = json.Unmarshal([]byte(body), &ds[0])
				default:
					vs = make([]Verdict, 1)
					err = json.Unmarshal([]byte(body), &vs[0])
				}
				if err != nil {
					errc <- fmt.Errorf("%s: %v: %s", w.route, err, body)
					return
				}
				for i := range ds {
					ds[i].Latency = 0
				}
				for i := range vs {
					vs[i].Latency = 0
				}
				if !reflect.DeepEqual(ds, w.ds) || !reflect.DeepEqual(vs, w.vs) {
					errc <- fmt.Errorf("%s over %d rows: the wire answered\n%+v%+v\nthe engine\n%+v%+v", w.route, len(w.ds)+len(w.vs), ds, vs, w.ds, w.vs)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestWireBufReleaseClears: a released wire buffer keeps its results'
// storage but none of their contents, so it pins no bundle's or policy's
// strings.
func TestWireBufReleaseClears(t *testing.T) {
	wb := &wireBuf{}
	wb.verdicts = []Verdict{{Version: "v1", Members: []MemberScore{{Name: "gbdt"}}}}
	wb.decisions = []Decision{{Verdict: Verdict{Version: "v1"}, Reason: "band", PolicyVersion: "p1"}}
	wb.members = []MemberScore{{Name: "gbdt", Score: 1}}
	vs, ds, ms := wb.verdicts, wb.decisions, wb.members
	wb.release()
	if !reflect.DeepEqual(vs[0], Verdict{}) || !reflect.DeepEqual(ds[0], Decision{}) || ms[0] != (MemberScore{}) {
		t.Fatalf("released buffer still holds %+v %+v %+v", vs[0], ds[0], ms[0])
	}
}

// TestCloseLeavesNoGoroutines: an engine with every background part Close
// stops — an event log, a shadow challenger's worker and a router link it
// serves — leaves no goroutine behind once Close returns and its client
// side is shut, a second Close is a no-op, and logged ingest then fails.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(table(t), trainToy(t, 0), WithStreamAggregates(stream.New(stream.WithCities(2))),
		WithShadow(trainToy(t, 0)), WithEventLog(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	lk := link.New(nil, []string{hs.URL})
	post := linkWire(t, lk)
	if code, raw := post(link.Route("POST", "/v1/ingest"), link.Header{}, `{"id":1,"from":1,"to":2,"amount":5}`); code != http.StatusOK {
		t.Fatalf("ingest over the link: %d %s", code, raw)
	}
	if code, raw := post(link.Route("POST", "/v1/score/batch"), link.Header{}, `{"transactions":[{"id":2,"from":1,"to":2,"amount":5}]}`); code != http.StatusOK {
		t.Fatalf("score over the link: %d %s", code, raw)
	}
	if n := srv.Stats().LinkConns; n != 1 {
		t.Fatalf("%d live links, want 1", n)
	}

	srv.Close()
	if n := srv.Stats().LinkConns; n != 0 {
		t.Errorf("%d links live after Close", n)
	}
	srv.Close()
	tx := txn.Transaction{ID: 3, From: 1, To: 2, Amount: 5}
	if err := srv.Ingest(&tx); err == nil {
		t.Error("logged ingest after Close succeeded")
	}
	lk.Close()
	hs.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before the engine:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
