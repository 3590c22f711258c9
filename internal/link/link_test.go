package link

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"titant/internal/logio"
)

// shard serves h on a real socket: the link route upgrades, every other
// route is h over HTTP, as ms.Server.Handler does.
func shard(t testing.TB, h Handler) (*httptest.Server, *Hub) {
	t.Helper()
	hub := &Hub{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != Path {
			asHTTP(h)(w, r)
		} else if err := hub.Upgrade(w, r, h); err != nil {
			http.Error(w, err.Error(), http.StatusUpgradeRequired)
		}
	}))
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hub.Shutdown(ctx)
	})
	return hs, hub
}

// asHTTP serves a Handler as an HTTP route, the way a shard's HTTP mux
// reaches its core.
func asHTTP(h Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var hdr Header
		for i, name := range Headers {
			hdr[i] = r.Header.Get(name)
		}
		body, _ := io.ReadAll(r.Body)
		status, ans, out := h(r.Context(), Route(r.Method, r.URL.Path), &hdr, body, nil)
		for i, v := range ans {
			if v != "" {
				w.Header().Set(Headers[i], v)
			}
		}
		w.WriteHeader(status)
		w.Write(out)
	}
}

// echo answers with what it was sent: route, deadline slot, body — and
// the trace and caller slots as the answer's trace and Retry-After.
func echo(_ context.Context, route int, h *Header, body, out []byte) (int, Header, []byte) {
	status := http.StatusOK
	if h[SlotIdempotencyKey] == "teapot" {
		status = http.StatusTeapot
	}
	out = fmt.Appendf(out, "%s %s|%s|", Routes[route].Method, Routes[route].Path, h[SlotDeadline])
	return status, Header{SlotContentType: JSON, SlotTrace: h[SlotTrace], SlotRetryAfter: h[SlotCaller]}, append(out, body...)
}

// answer is what a caller saw of a call.
type answer struct {
	status int
	hdr    Header
	body   string
}

// post carries one call on route to shard, hdr naming header/value pairs.
func post(ctx context.Context, lk *Transport, shard int, route string, body string, hdr ...string) (answer, error) {
	method, path, _ := strings.Cut(route, " ")
	c := NewCall(shard, Route(method, path))
	defer c.Release()
	for i := 0; i+1 < len(hdr); i += 2 {
		for s, name := range Headers {
			if name == hdr[i] {
				c.Header[s] = hdr[i+1]
			}
		}
	}
	c.Write([]byte(body))
	if err := lk.Do(ctx, c); err != nil {
		return answer{}, err
	}
	a := answer{status: c.Status, body: string(c.Body)}
	for i, v := range c.Answer {
		a.hdr[i] = string(v)
	}
	return a, nil
}

// TestLinkCarriesCall: a data-plane call crosses the link with its route,
// header slots and body, and the answer comes back with status, slots
// and body; a control-plane call goes over HTTP.
func TestLinkCarriesCall(t *testing.T) {
	hs, hub := shard(t, echo)
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	ctx := context.Background()

	a, err := post(ctx, lk, 0, "POST /v1/decide/batch", `{"transactions":[]}`,
		"X-Trace-Id", "abc", "X-Caller", "7", "X-Deadline-Ms", "250", "X-Idempotency-Key", "teapot")
	if err != nil {
		t.Fatal(err)
	}
	if want := `POST /v1/decide/batch|250|{"transactions":[]}`; a.status != http.StatusTeapot || a.body != want {
		t.Fatalf("got %d %q, want 418 %q", a.status, a.body, want)
	}
	if a.hdr[SlotContentType] != JSON || a.hdr[SlotTrace] != "abc" || a.hdr[SlotRetryAfter] != "7" {
		t.Fatalf("answer slots %q", a.hdr)
	}
	if !lk.Linked(0) || lk.Calls.Load() != 1 || hub.Conns() != 1 {
		t.Fatalf("linked %v, calls %d, conns %d; want true, 1, 1", lk.Linked(0), lk.Calls.Load(), hub.Conns())
	}
	// Not a data-plane call: plain HTTP, slots and all.
	if a, err = post(ctx, lk, 0, "GET /v1/stats", "", "X-Caller", "8"); err != nil || a.body != "GET /v1/stats||" || a.hdr[SlotRetryAfter] != "8" {
		t.Fatalf("control-plane call: %+v, %v", a, err)
	}
	if lk.Calls.Load() != 1 {
		t.Fatalf("control-plane call counted as a link call")
	}
}

// TestLinkNegotiation: a peer without the route is spoken to over HTTP
// and probed again only after a transport failure; one with it is linked.
func TestLinkNegotiation(t *testing.T) {
	var probes atomic.Int64
	linked, _ := shard(t, echo)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == Path {
			probes.Add(1)
			http.NotFound(w, r)
			return
		}
		asHTTP(echo)(w, r)
	}))
	defer old.Close()
	lk := New(&http.Transport{}, []string{linked.URL, old.URL})
	defer lk.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for si := range 2 {
			if a, err := post(ctx, lk, si, "POST /v1/score", "b"); err != nil || a.body != "POST /v1/score||b" {
				t.Fatalf("shard %d: %q, %v", si, a.body, err)
			}
		}
	}
	if probes.Load() != 1 || lk.Calls.Load() != 3 {
		t.Fatalf("probes %d, link calls %d; want 1, 3", probes.Load(), lk.Calls.Load())
	}
	if lk.Linked(1) || !lk.Linked(0) {
		t.Fatal("Linked disagrees with the negotiation")
	}
	// The old shard goes away: the failure is a transport error, and the
	// next call probes again.
	old.Close()
	if _, err := post(ctx, lk, 1, "POST /v1/score", "b"); err == nil {
		t.Fatal("call to a closed shard succeeded")
	}
	if _, err := post(ctx, lk, 1, "POST /v1/score", "b"); err == nil || probes.Load() != 1 {
		t.Fatalf("want a failed dial, got %v after %d probes", err, probes.Load())
	}
	if lk.peers[1].plain {
		t.Fatal("a peer that failed at the transport is still taken for a plain one")
	}
}

// lifo is a handler that answers in reverse arrival order: calls park on a
// stack that a releaser pops from the top.
type lifo struct {
	mu    sync.Mutex
	stack []chan struct{}
}

func (l *lifo) serve(ctx context.Context, route int, h *Header, body, out []byte) (int, Header, []byte) {
	gate := make(chan struct{})
	l.mu.Lock()
	l.stack = append(l.stack, gate)
	l.mu.Unlock()
	select {
	case <-gate:
	case <-ctx.Done():
	}
	return echo(ctx, route, h, body, out)
}

func (l *lifo) release(stop <-chan struct{}) {
	for {
		stopped := false
		select {
		case <-stop:
			stopped = true
		case <-time.After(200 * time.Microsecond):
		}
		l.mu.Lock()
		for i := len(l.stack) - 1; i >= 0; i-- {
			close(l.stack[i])
		}
		l.stack = l.stack[:0]
		l.mu.Unlock()
		if stopped {
			return
		}
	}
}

// TestLinkMultiplex (run under -race): 8 callers over 2 shards whose
// handlers answer in reverse arrival order, a third of the calls
// cancelled at a random moment. Every answer that arrives is the
// caller's own, and a cancelled call costs its successors nothing.
func TestLinkMultiplex(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var urls []string
	for range 2 {
		l := &lifo{}
		go l.release(stop)
		hs, _ := shard(t, l.serve)
		urls = append(urls, hs.URL)
	}
	lk := New(nil, urls)
	defer lk.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rnd.Intn(3) == 0 {
					time.AfterFunc(time.Duration(rnd.Intn(400))*time.Microsecond, cancel)
				}
				body := fmt.Sprintf("caller %d call %d %s", c, i, strings.Repeat("x", rnd.Intn(3000)))
				a, err := post(ctx, lk, rnd.Intn(2), "POST /v1/score/batch", body, "X-Trace-Id", body[:12])
				cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("caller %d call %d: %v", c, i, err)
					}
					continue
				}
				if want := "POST /v1/score/batch||" + body; a.body != want || a.hdr[SlotTrace] != body[:12] {
					t.Errorf("caller %d call %d got another call's answer: %.60q", c, i, a.body)
				}
			}
		}()
	}
	wg.Wait()
	if lk.Redials.Load() != 0 {
		t.Errorf("%d redials: a cancelled call cut its link", lk.Redials.Load())
	}
}

// TestLinkLateAnswerDiscarded: a call abandoned while the shard still
// works on it — here at its Timeout — leaves the link up; its late answer
// goes nowhere and the next call on the same connection gets its own
// bytes.
func TestLinkLateAnswerDiscarded(t *testing.T) {
	gate := make(chan struct{})
	hs, hub := shard(t, func(ctx context.Context, route int, h *Header, body, out []byte) (int, Header, []byte) {
		if h[SlotCaller] == "slow" {
			<-gate
		}
		return echo(ctx, route, h, body, out)
	})
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	c := NewCall(0, Route("POST", "/v1/score"))
	c.Header[SlotCaller], c.Timeout = "slow", 20*time.Millisecond
	c.Write([]byte("first"))
	if err := lk.Do(context.Background(), c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned call: %v", err)
	}
	c.Release()
	close(gate) // the late answer is written now
	for i := 0; i < 3; i++ {
		if a, err := post(context.Background(), lk, 0, "POST /v1/score", "second"); err != nil || a.body != "POST /v1/score||second" {
			t.Fatalf("call after an abandoned one: %q, %v", a.body, err)
		}
	}
	if lk.Redials.Load() != 0 || hub.Conns() != 1 {
		t.Fatalf("redials %d, conns %d: the abandoned call cost the link", lk.Redials.Load(), hub.Conns())
	}
}

// TestLinkDeadPeer: a shard that goes away fails the pending calls with a
// transport error, and the next call redials — here onto a shard that
// came back on the same address.
func TestLinkDeadPeer(t *testing.T) {
	entered, gate := make(chan struct{}, 4), make(chan struct{})
	h := func(ctx context.Context, route int, hdr *Header, body, out []byte) (int, Header, []byte) {
		if hdr[SlotCaller] == "slow" {
			entered <- struct{}{}
			<-gate
		}
		return echo(ctx, route, hdr, body, out)
	}
	hs, hub := shard(t, h)
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	errc := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := post(context.Background(), lk, 0, "POST /v1/score", "x", "X-Caller", "slow")
			errc <- err
		}()
		<-entered
	}
	addr := hs.Listener.Addr().String()
	hs.Listener.Close() // the process dies: listener gone, links cut
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	go hub.Shutdown(cut)
	for range 2 {
		if err := <-errc; err == nil || !strings.Contains(err.Error(), "link: ") {
			t.Fatalf("pending call on a dead link: %v", err)
		}
	}
	close(gate)
	if _, err := post(context.Background(), lk, 0, "POST /v1/score", "x"); err == nil {
		t.Fatal("call to a dead shard succeeded")
	}
	// It restarts on the same address.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	hub2 := &Hub{}
	back := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := hub2.Upgrade(w, r, h); err != nil {
			http.Error(w, err.Error(), http.StatusUpgradeRequired)
		}
	})}
	go back.Serve(ln)
	defer func() { back.Close(); hub2.Shutdown(cut) }()
	if a, err := post(context.Background(), lk, 0, "POST /v1/score", "again"); err != nil || a.body != "POST /v1/score||again" {
		t.Fatalf("call after the restart: %q, %v", a.body, err)
	}
	if lk.Redials.Load() != 1 {
		t.Fatalf("redials %d, want 1", lk.Redials.Load())
	}
}

// deafPeer accepts one link upgrade and then never reads from it, as a
// shard wedged behind a full socket would.
func deafPeer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		nc.(*net.TCPConn).SetReadBuffer(4096)
		if _, err := http.ReadRequest(bufio.NewReader(nc)); err != nil {
			return
		}
		fmt.Fprintf(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", proto)
		<-done
	}()
	return "http://" + ln.Addr().String()
}

// TestLinkWriteDeadline: a call to a shard that stops reading ends by its
// own deadline — its Timeout, or its context's — even while its frame
// is stuck in the write, and the stall fails the link, so no caller
// waits behind the stuck write's lock.
func TestLinkWriteDeadline(t *testing.T) {
	const budget = 200 * time.Millisecond
	for _, byContext := range []bool{false, true} {
		lk := New(nil, []string{deafPeer(t)})
		c := NewCall(0, Route("POST", "/v1/score/batch"))
		c.Write(make([]byte, 24<<20)) // more than the socket buffers hold
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if byContext {
			ctx, cancel = context.WithTimeout(ctx, budget)
		} else {
			c.Timeout = budget
		}
		start, errc := time.Now(), make(chan error, 1)
		go func() { errc <- lk.Do(ctx, c) }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "stalled") {
				t.Errorf("by context %v: a call stuck in its write ended with %v, want the stall", byContext, err)
			}
			if took := time.Since(start); took > budget+time.Second {
				t.Errorf("by context %v: the stuck call took %v, budget %v", byContext, took, budget)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("by context %v: a write to a peer that never reads outlived its call's deadline", byContext)
		}
		if lk.Linked(0) {
			t.Errorf("by context %v: the link is still live after a stalled write", byContext)
		}
		cancel()
		c.Release()
		lk.Close()
	}
}

// TestHubShutdownDrains: Shutdown stops a link reading new calls, lets the
// call in flight answer, and returns only when the link's goroutines have.
func TestHubShutdownDrains(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	hs, hub := shard(t, func(ctx context.Context, route int, h *Header, body, out []byte) (int, Header, []byte) {
		close(entered)
		<-gate
		return echo(ctx, route, h, body, out)
	})
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	got := make(chan string, 1)
	go func() {
		a, _ := post(context.Background(), lk, 0, "POST /v1/ingest", "kept")
		got <- a.body
	}()
	<-entered
	done := make(chan struct{})
	go func() { hub.Shutdown(context.Background()); close(done) }()
	select {
	case <-done:
		t.Fatal("Shutdown returned with a call in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-done
	if body := <-got; body != "POST /v1/ingest||kept" {
		t.Fatalf("the in-flight call's answer was lost: %q", body)
	}
	if hub.Conns() != 0 {
		t.Fatalf("%d links survive Shutdown", hub.Conns())
	}
}

// pipeWriter is a ResponseWriter whose connection hijacks to one end of a
// net.Pipe, so a Hub serves a link without a listener.
type pipeWriter struct {
	httptest.ResponseRecorder
	nc net.Conn
}

func (p *pipeWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return p.nc, bufio.NewReadWriter(bufio.NewReader(p.nc), bufio.NewWriter(p.nc)), nil
}

// TestHubShutdownCutsBlockedCall: a call whose handler waits on its
// context, a drain begun, then the drain's context ends. The cut must
// cancel the call, so Shutdown returns within its context plus 50 ms —
// on every one of 1 000 runs, because whether the read loop sees the
// drain deadline before the cut is a matter of scheduling, and in that
// order only the cut can cancel the call.
func TestHubShutdownCutsBlockedCall(t *testing.T) {
	const (
		runs  = 1000
		grace = time.Millisecond
		slack = 50 * time.Millisecond
	)
	call := appendHead(nil, 1, 0, &Header{})
	if err := logio.Seal(call); err != nil {
		t.Fatal(err)
	}
	up := httptest.NewRequest(http.MethodGet, Path, nil)
	up.Header.Set("Upgrade", proto)
	for i := 0; i < runs; i++ {
		client, server := net.Pipe()
		go io.Copy(io.Discard, client)
		hub := &Hub{}
		entered := make(chan struct{})
		h := func(ctx context.Context, _ int, _ *Header, _, out []byte) (int, Header, []byte) {
			close(entered)
			<-ctx.Done()
			return http.StatusOK, Header{}, out
		}
		served := make(chan error, 1)
		go func() { served <- hub.Upgrade(&pipeWriter{nc: server}, up, h) }()
		if _, err := client.Write(call); err != nil {
			t.Fatalf("run %d: write call: %v", i, err)
		}
		<-entered
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		start := time.Now()
		done := make(chan struct{})
		go func() { hub.Shutdown(ctx); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: Shutdown still waiting on a call blocked on its context", i)
		}
		cancel()
		if took := time.Since(start); took > grace+slack {
			t.Fatalf("run %d: Shutdown took %v, context %v", i, took, grace)
		}
		if err := <-served; err != nil {
			t.Fatalf("run %d: Upgrade: %v", i, err)
		}
		client.Close()
	}
}

// frame builds a sealed frame around a payload.
func frame(payload []byte) []byte {
	f := append(make([]byte, logio.FrameOverhead), payload...)
	if err := logio.Seal(f); err != nil {
		panic(err)
	}
	return f
}

// FuzzLinkFrame throws hostile streams at the frame reader, the payload
// splitter and a live shard end: a bad length, CRC, header slot or a
// truncated tail must end in a clean error and a dropped connection —
// no panic, no call run from a frame that failed its checks, and what
// does split re-encodes to the same bytes.
func FuzzLinkFrame(f *testing.F) {
	good := appendHead(nil, 7, 3, &Header{SlotContentType: JSON, SlotTrace: "abc"})
	good = append(good, `{"transactions":[]}`...)
	if err := logio.Seal(good); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(good[:len(good)-3])                                                  // truncated tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3})                 // hostile length
	f.Add(append(append([]byte{}, good[:4]...), make([]byte, len(good)-4)...)) // CRC mismatch
	bad := append([]byte{}, good[logio.FrameOverhead:]...)
	le.PutUint32(bad[10:], 1<<31) // a header slot longer than the payload
	f.Add(frame(bad))
	bad = append([]byte{}, good[logio.FrameOverhead:]...)
	le.PutUint16(bad[8:], 99) // no such route
	f.Add(frame(bad))
	f.Add(frame([]byte("short")))

	f.Fuzz(func(t *testing.T, stream []byte) {
		var buf []byte
		valid := 0
		for br := bytes.NewReader(stream); ; {
			var err error
			if buf, err = logio.ReadFrame(br, buf); err != nil {
				break
			}
			id, code, vals, body, err := split(buf)
			if err != nil {
				break
			}
			var h Header
			for i, v := range vals {
				h[i] = string(v)
			}
			if again := append(appendHead(nil, id, code, &h), body...); !bytes.Equal(again[logio.FrameOverhead:], buf) {
				t.Fatalf("split then appendHead changed the payload:\n%x\n%x", buf, again[logio.FrameOverhead:])
			}
			if code >= DataRoutes {
				break
			}
			valid++
		}
		// The same stream against a live shard end: it runs exactly the
		// calls that passed, answers them, and hangs up.
		client, server := net.Pipe()
		var ran atomic.Int64
		served := make(chan struct{})
		go func() {
			defer close(served)
			ctx, cancel := context.WithCancel(context.Background())
			serve(ctx, cancel, server, bufio.NewReader(server), func(_ context.Context, _ int, _ *Header, body, out []byte) (int, Header, []byte) {
				ran.Add(1)
				return http.StatusOK, Header{}, append(out, body...)
			})
			server.Close()
		}()
		go io.Copy(io.Discard, client)
		client.Write(stream)
		client.Close()
		<-served
		if int(ran.Load()) != valid {
			t.Fatalf("shard end ran %d calls from a stream with %d valid frames", ran.Load(), valid)
		}
	})
}

// TestLinkHandlerPanic: a handler that panics costs its link, as it
// costs an HTTP connection — the caller sees a transport error, the
// process lives, and the next call redials.
func TestLinkHandlerPanic(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	hs, _ := shard(t, func(ctx context.Context, route int, h *Header, body, out []byte) (int, Header, []byte) {
		if h[SlotCaller] == "boom" {
			panic("handler bug")
		}
		return echo(ctx, route, h, body, out)
	})
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	if _, err := post(context.Background(), lk, 0, "POST /v1/score", "x", "X-Caller", "boom"); err == nil || !strings.Contains(err.Error(), "link: ") {
		t.Fatalf("call into a panicking handler: %v", err)
	}
	if a, err := post(context.Background(), lk, 0, "POST /v1/score", "y"); err != nil || a.body != "POST /v1/score||y" {
		t.Fatalf("call after the panic: %q, %v", a.body, err)
	}
	if lk.Redials.Load() != 1 {
		t.Fatalf("redials %d, want 1", lk.Redials.Load())
	}
}

// TestReleasePoisons: with PoisonReleased set a released call's answer
// frame is overwritten, so a splice that reads an answer after its
// record went back to the pool reads garbage, not the answer.
func TestReleasePoisons(t *testing.T) {
	PoisonReleased.Store(true)
	defer PoisonReleased.Store(false)
	hs, _ := shard(t, echo)
	lk := New(nil, []string{hs.URL})
	defer lk.Close()
	c := NewCall(0, Route("POST", "/v1/score"))
	c.Write([]byte("payload"))
	if err := lk.Do(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	body := c.Body
	if string(body) != "POST /v1/score||payload" {
		t.Fatalf("answer %q", body)
	}
	c.Release()
	if !bytes.Equal(body, bytes.Repeat([]byte{0xa5}, len(body))) {
		t.Fatalf("released answer still readable: %q", body)
	}
}
