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

// shard serves h on a real socket with the link route in front of it, as
// ms.Server.Handler does.
func shard(t testing.TB, h http.Handler) (*httptest.Server, *Hub) {
	t.Helper()
	hub := &Hub{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != Path {
			h.ServeHTTP(w, r)
		} else if err := hub.Upgrade(w, r, h); err != nil {
			http.Error(w, err.Error(), http.StatusUpgradeRequired)
		}
	}))
	t.Cleanup(func() {
		hs.Close()
		hub.Shutdown(context.Background())
	})
	return hs, hub
}

// echo answers with what it was sent: route, the carried headers, body.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Trace-Id", r.Header.Get("X-Trace-Id"))
	w.Header().Set("Retry-After", r.Header.Get("X-Caller"))
	w.Header().Set("X-Not-Carried", "dropped")
	if r.Header.Get("X-Idempotency-Key") == "teapot" {
		w.WriteHeader(http.StatusTeapot)
	}
	fmt.Fprintf(w, "%s %s|%s|", r.Method, r.URL.Path, r.Header.Get("X-Deadline-Ms"))
	w.Write(body)
}

func post(ctx context.Context, rt http.RoundTripper, url, body string, hdr ...string) (int, http.Header, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(raw), err
}

// TestLinkCarriesCall: a data-plane POST crosses the link with its route,
// whitelisted headers and body, and the answer comes back with status,
// the three answer headers and body; anything else goes over HTTP.
func TestLinkCarriesCall(t *testing.T) {
	hs, hub := shard(t, http.HandlerFunc(echo))
	lk := New(nil)
	defer lk.Close()
	ctx := context.Background()

	code, h, body, err := post(ctx, lk, hs.URL+"/v1/decide/batch", `{"transactions":[]}`,
		"X-Trace-Id", "abc", "X-Caller", "7", "X-Deadline-Ms", "250", "X-Idempotency-Key", "teapot", "X-Other", "no")
	if err != nil {
		t.Fatal(err)
	}
	if want := `POST /v1/decide/batch|250|{"transactions":[]}`; code != http.StatusTeapot || body != want {
		t.Fatalf("got %d %q, want 418 %q", code, body, want)
	}
	if h.Get("Content-Type") != "application/json" || h.Get("X-Trace-Id") != "abc" || h.Get("Retry-After") != "7" || h.Get("X-Not-Carried") != "" {
		t.Fatalf("answer headers %v", h)
	}
	host := strings.TrimPrefix(hs.URL, "http://")
	if !lk.Linked(host) || lk.Calls.Load() != 1 || hub.Conns() != 1 {
		t.Fatalf("linked %v, calls %d, conns %d; want true, 1, 1", lk.Linked(host), lk.Calls.Load(), hub.Conns())
	}
	// Not a data-plane POST: plain HTTP, headers and all.
	if _, h, _, err = post(ctx, lk, hs.URL+"/v1/models", "x"); err != nil || h.Get("X-Not-Carried") != "dropped" {
		t.Fatalf("control-plane call: %v, headers %v", err, h)
	}
	if lk.Calls.Load() != 1 {
		t.Fatalf("control-plane call counted as a link call")
	}
}

// TestLinkNegotiation: a peer without the route is spoken to over HTTP
// and probed again only after a transport failure; one with it is linked.
func TestLinkNegotiation(t *testing.T) {
	var probes atomic.Int64
	linked, _ := shard(t, http.HandlerFunc(echo))
	old := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == Path {
			probes.Add(1)
			http.NotFound(w, r)
			return
		}
		echo(w, r)
	}))
	old.Start()
	defer old.Close()
	lk := New(&http.Transport{})
	defer lk.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, hs := range []*httptest.Server{linked, old} {
			if _, _, body, err := post(ctx, lk, hs.URL+"/v1/score", "b"); err != nil || body != "POST /v1/score||b" {
				t.Fatalf("%s: %q, %v", hs.URL, body, err)
			}
		}
	}
	if probes.Load() != 1 || lk.Calls.Load() != 3 {
		t.Fatalf("probes %d, link calls %d; want 1, 3", probes.Load(), lk.Calls.Load())
	}
	if lk.Linked(strings.TrimPrefix(old.URL, "http://")) || !lk.Linked(strings.TrimPrefix(linked.URL, "http://")) {
		t.Fatal("Linked disagrees with the negotiation")
	}
	// The old shard goes away: the failure is a transport error, and the
	// next call probes again.
	old.Close()
	if _, _, _, err := post(ctx, lk, old.URL+"/v1/score", "b"); err == nil {
		t.Fatal("call to a closed shard succeeded")
	}
	if _, _, _, err := post(ctx, lk, old.URL+"/v1/score", "b"); err == nil || probes.Load() != 1 {
		t.Fatalf("want a failed dial, got %v after %d probes", err, probes.Load())
	}
	if lk.peer(strings.TrimPrefix(old.URL, "http://")).plain {
		t.Fatal("a peer that failed at the transport is still taken for a plain one")
	}
}

// lifo is a handler that answers in reverse arrival order: calls park on a
// stack that a releaser pops from the top.
type lifo struct {
	mu    sync.Mutex
	stack []chan struct{}
}

func (l *lifo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gate := make(chan struct{})
	l.mu.Lock()
	l.stack = append(l.stack, gate)
	l.mu.Unlock()
	select {
	case <-gate:
	case <-r.Context().Done():
	}
	echo(w, r)
}

func (l *lifo) release(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
		l.mu.Lock()
		for i := len(l.stack) - 1; i >= 0; i-- {
			close(l.stack[i])
		}
		l.stack = l.stack[:0]
		l.mu.Unlock()
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
		hs, _ := shard(t, l)
		urls = append(urls, hs.URL)
	}
	lk := New(nil)
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
				_, h, got, err := post(ctx, lk, urls[rnd.Intn(2)]+"/v1/score/batch", body, "X-Trace-Id", body[:12])
				cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("caller %d call %d: %v", c, i, err)
					}
					continue
				}
				if want := "POST /v1/score/batch||" + body; got != want || h.Get("X-Trace-Id") != body[:12] {
					t.Errorf("caller %d call %d got another call's answer: %.60q", c, i, got)
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
// works on it leaves the link up; its late answer goes nowhere and the
// next call on the same connection gets its own bytes.
func TestLinkLateAnswerDiscarded(t *testing.T) {
	gate := make(chan struct{})
	hs, hub := shard(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Caller") == "slow" {
			<-gate
		}
		echo(w, r)
	}))
	lk := New(nil)
	defer lk.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, _, err := post(ctx, lk, hs.URL+"/v1/score", "first", "X-Caller", "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned call: %v", err)
	}
	close(gate) // the late answer is written now
	for i := 0; i < 3; i++ {
		if _, _, body, err := post(context.Background(), lk, hs.URL+"/v1/score", "second"); err != nil || body != "POST /v1/score||second" {
			t.Fatalf("call after an abandoned one: %q, %v", body, err)
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
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Caller") == "slow" {
			entered <- struct{}{}
			<-gate
		}
		echo(w, r)
	})
	hs, hub := shard(t, h)
	lk := New(nil)
	defer lk.Close()
	errc := make(chan error, 2)
	for range 2 {
		go func() {
			_, _, _, err := post(context.Background(), lk, hs.URL+"/v1/score", "x", "X-Caller", "slow")
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
	if _, _, _, err := post(context.Background(), lk, hs.URL+"/v1/score", "x"); err == nil {
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
	if _, _, body, err := post(context.Background(), lk, hs.URL+"/v1/score", "again"); err != nil || body != "POST /v1/score||again" {
		t.Fatalf("call after the restart: %q, %v", body, err)
	}
	if lk.Redials.Load() != 1 {
		t.Fatalf("redials %d, want 1", lk.Redials.Load())
	}
}

// TestHubShutdownDrains: Shutdown stops a link reading new calls, lets the
// call in flight answer, and returns only when the link's goroutines have.
func TestHubShutdownDrains(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	hs, hub := shard(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-gate
		echo(w, r)
	}))
	lk := New(nil)
	defer lk.Close()
	got := make(chan string, 1)
	go func() {
		_, _, body, _ := post(context.Background(), lk, hs.URL+"/v1/ingest", "kept")
		got <- body
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
	good := appendHead(nil, 7, 3, http.Header{"X-Trace-Id": {"abc"}, "Content-Type": {"application/json"}})
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
			h := http.Header{}
			for i, v := range vals {
				if len(v) > 0 {
					h[headers[i]] = []string{string(v)}
				}
			}
			if again := append(appendHead(nil, id, code, h), body...); !bytes.Equal(again[logio.FrameOverhead:], buf) {
				t.Fatalf("split then appendHead changed the payload:\n%x\n%x", buf, again[logio.FrameOverhead:])
			}
			if code >= len(routes) {
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
			serve(server, bufio.NewReader(server), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ran.Add(1)
				io.Copy(w, r.Body)
			}))
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
	hs, _ := shard(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Caller") == "boom" {
			panic("handler bug")
		}
		echo(w, r)
	}))
	lk := New(nil)
	defer lk.Close()
	if _, _, _, err := post(context.Background(), lk, hs.URL+"/v1/score", "x", "X-Caller", "boom"); err == nil || !strings.Contains(err.Error(), "link: ") {
		t.Fatalf("call into a panicking handler: %v", err)
	}
	if _, _, body, err := post(context.Background(), lk, hs.URL+"/v1/score", "y"); err != nil || body != "POST /v1/score||y" {
		t.Fatalf("call after the panic: %q, %v", body, err)
	}
	if lk.Redials.Load() != 1 {
		t.Fatalf("redials %d, want 1", lk.Redials.Load())
	}
}
