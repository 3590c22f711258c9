// Package link is the router→shard hop's wire: one persistent connection
// per shard carrying the six data-plane POSTs as CRC-framed calls,
// multiplexed by call id, where HTTP/1.1 spent a text exchange and a
// pooled connection's bookkeeping on every sub-batch. Only the framing
// changes: a call and its answer are one internal/logio frame each, the
// body the same JSON (ms/wire.go) under the payload head
//
//	u64 call id | u16 code | len(headers) × (u32 len, value) | body
//
// where code is the route's index in routes on a call and the HTTP status
// on an answer. Transport, the router's end, is an http.RoundTripper, so
// the resilience plane and faultinject stack on it as on http.Transport;
// Hub, the shard's end, runs every call through the shard's own
// http.Handler, so the two wires cannot answer differently. See "The
// shard link" in docs/ARCHITECTURE.md.
package link

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/logio"
)

// Path is the shard route that upgrades a connection to a link.
const Path = "/v1/link"

const proto = "titant-link"

var (
	routes = [...]string{"/v1/score", "/v1/score/batch", "/v1/decide", "/v1/decide/batch", "/v1/ingest", "/v1/ingest/batch"}
	// headers are the ones a frame carries, each in its own slot (empty:
	// absent): what the router forwards, its per-attempt deadline, and what
	// it reads off an answer.
	headers = [...]string{"Content-Type", "Authorization", "X-Caller", "X-Idempotency-Key", "X-Trace-Id", "X-Deadline-Ms", "Retry-After"}
	// jsonValue is the header value every healthy call repeats.
	jsonValue = []string{"application/json"}

	// Why a link died; conn.fail wraps them.
	errMalformed = errors.New("malformed frame")
	errClosed    = errors.New("closed")
	le           = binary.LittleEndian
)

// appendHead starts a frame in buf: logio's header, reserved, then the
// payload up to where the body goes. logio.Seal closes the frame.
func appendHead(buf []byte, id uint64, code int, h http.Header) []byte {
	buf = append(buf[:0], make([]byte, logio.FrameOverhead)...)
	buf = le.AppendUint16(le.AppendUint64(buf, id), uint16(code))
	for _, name := range headers {
		var v string
		if vs := h[name]; len(vs) > 0 {
			v = vs[0]
		}
		buf = append(le.AppendUint32(buf, uint32(len(v))), v...)
	}
	return buf
}

// split cuts a payload into its fields, trusting none of its lengths.
func split(p []byte) (id uint64, code int, vals [len(headers)][]byte, body []byte, err error) {
	if len(p) < 10 {
		return 0, 0, vals, nil, errMalformed
	}
	id, code, p = le.Uint64(p), int(le.Uint16(p[8:])), p[10:]
	for i := range vals {
		if len(p) < 4 || uint64(len(p)-4) < uint64(le.Uint32(p)) {
			return 0, 0, vals, nil, errMalformed
		}
		n := 4 + int(le.Uint32(p))
		vals[i], p = p[4:n], p[n:]
	}
	return id, code, vals, p, nil
}

// Transport is the router's end: it carries data-plane POSTs over one
// link per shard host and hands everything else — control plane, stats
// and health fan-outs, shards that do not speak the link — to base.
type Transport struct {
	// Calls counts the calls carried by link, Redials the links reopened
	// after one died.
	Calls, Redials atomic.Int64

	base    http.RoundTripper
	readers sync.WaitGroup
	mu      sync.Mutex // only ever taken last: a dial holds its peer's lock, then this
	peers   map[string]*peer
	closed  bool
}

// peer is one shard host: its link, or the finding that it has none.
type peer struct {
	mu    sync.Mutex
	c     *conn
	plain bool // answered the upgrade with something other than 101
}

// New returns a link transport over base (nil: http.DefaultTransport),
// which carries the upgrade and every call the link does not.
func New(base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, peers: map[string]*peer{}}
}

func (t *Transport) peer(host string) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[host]
	if p == nil {
		p = &peer{}
		t.peers[host] = p
	}
	return p
}

// Linked reports whether host is reached by a live link right now.
func (t *Transport) Linked(host string) bool {
	p := t.peer(host)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c != nil && !p.c.dead.Load()
}

// Close cuts every link and waits for the reader goroutines: calls in
// flight fail, later ones are refused.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closed = true
	peers := t.peers
	t.peers = map[string]*peer{}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		if p.c != nil {
			p.c.fail(errClosed)
		}
		p.mu.Unlock()
	}
	t.readers.Wait()
}

// RoundTrip implements http.RoundTripper. The body is copied into the
// call's frame before it returns, so an abandoned retry or hedge leg
// never reads its caller's buffer late. What a frame cannot say (another
// route, a query, a body of unknown or absurd length) goes over HTTP.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := slices.Index(routes[:], req.URL.Path)
	if route < 0 || req.Method != http.MethodPost || req.URL.RawQuery != "" ||
		req.ContentLength < 0 || req.ContentLength > logio.MaxPayload/2 {
		return t.base.RoundTrip(req)
	}
	p := t.peer(req.URL.Host)
	c, err := p.link(t, req)
	if c != nil {
		t.Calls.Add(1)
		return c.roundTrip(req, route)
	}
	if err != nil {
		return nil, err
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		// A plain peer is probed again after a transport failure: it may
		// come back as a build that speaks the link.
		p.mu.Lock()
		p.plain = false
		p.mu.Unlock()
	}
	return resp, err
}

// link returns the peer's live link, opening one if need be. Neither a
// link nor an error means the peer speaks plain HTTP only.
func (p *peer) link(t *Transport, req *http.Request) (*conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plain || (p.c != nil && !p.c.dead.Load()) {
		return p.c, nil
	}
	// Callers queue here behind a dial. One that waited its budget away
	// behind a dial that failed must not start the next.
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	up, err := http.NewRequestWithContext(req.Context(), http.MethodGet, req.URL.Scheme+"://"+req.URL.Host+Path, nil)
	if err != nil {
		return nil, err
	}
	up.Header.Set("Connection", "Upgrade")
	up.Header.Set("Upgrade", proto)
	resp, err := t.base.RoundTrip(up)
	if err != nil {
		return nil, err // the dial error an HTTP exchange would have met
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		resp.Body.Close()
		p.c, p.plain = nil, true
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		rwc.Close()
		return nil, fmt.Errorf("link: %w", errClosed)
	}
	if p.c != nil {
		t.Redials.Add(1)
	}
	c := &conn{rwc: rwc, wlock: make(chan struct{}, 1), pending: map[uint64]*call{}}
	p.c = c
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		c.readLoop()
	}()
	return c, nil
}

// conn is a live link's router end: callers write their frames behind
// one lock, one reader goroutine hands answers back by call id.
type conn struct {
	rwc io.ReadWriteCloser
	// wlock is the write lock — a channel, so that a caller queued behind
	// a write that is stuck can leave when its context ends.
	wlock chan struct{}
	dead  atomic.Bool

	mu      sync.Mutex
	pending map[uint64]*call
	lastID  uint64
	err     error // why the link died
}

// call is a call's pooled record: its frame and its answer — the payload
// and how the reader split it.
type call struct {
	done       chan error // capacity 1; nil: the answer is in
	wbuf, rbuf []byte
	status     int
	vals       [len(headers)][]byte
	body       bytes.Reader
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan error, 1)} }}

// answer is the response handed to the caller and, in the same
// allocation, its body: a view of the call record until Close pools that
// again. The response itself stays valid after Close, as callers expect.
type answer struct {
	http.Response
	cl *call
}

func (a *answer) Read(p []byte) (int, error) {
	if a.cl == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	return a.cl.body.Read(p)
}

func (a *answer) Close() error {
	if a.cl != nil {
		callPool.Put(a.cl)
		a.cl = nil
	}
	return nil
}

func (c *conn) roundTrip(req *http.Request, route int) (*http.Response, error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, c.err
	}
	ctx, cl := req.Context(), callPool.Get().(*call)
	c.lastID++
	id := c.lastID
	c.pending[id] = cl
	c.mu.Unlock()

	var err error
	n := int(req.ContentLength)
	cl.wbuf = slices.Grow(appendHead(cl.wbuf, id, route, req.Header), n)
	if req.Body != nil {
		_, err = io.ReadFull(req.Body, cl.wbuf[len(cl.wbuf):len(cl.wbuf)+n])
		req.Body.Close()
	}
	if cl.wbuf = cl.wbuf[:len(cl.wbuf)+n]; err == nil {
		err = logio.Seal(cl.wbuf)
	}
	if err == nil {
		select {
		case c.wlock <- struct{}{}:
			if _, err = c.rwc.Write(cl.wbuf); err != nil {
				c.fail(err)
			}
			<-c.wlock
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err == nil {
		select {
		case err = <-cl.done:
			if err == nil {
				return cl.response(req), nil
			}
			callPool.Put(cl)
			return nil, err
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	// Abandoned: if the call is still pending the reader will drop its late
	// answer; if the reader (or fail) took it first, its verdict is due.
	c.mu.Lock()
	_, mine := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !mine {
		<-cl.done
	}
	callPool.Put(cl)
	return nil, err
}

func (cl *call) response(req *http.Request) *http.Response {
	h := make(http.Header, 4)
	for i, v := range cl.vals {
		if string(v) == jsonValue[0] {
			h[headers[i]] = jsonValue
		} else if len(v) > 0 {
			h[headers[i]] = []string{string(v)}
		}
	}
	a := &answer{cl: cl}
	a.Response = http.Response{
		StatusCode: cl.status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: a, ContentLength: int64(cl.body.Len()), Request: req,
	}
	return &a.Response
}

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.rwc, 64<<10)
	var buf []byte
	for {
		var err error
		if buf, err = logio.ReadFrame(br, buf); err != nil {
			c.fail(err)
			return
		}
		id, status, vals, body, err := split(buf)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if cl != nil { // else abandoned: a late answer is nobody's
			cl.rbuf, buf = buf, cl.rbuf
			cl.status, cl.vals = status, vals
			cl.body.Reset(body)
			cl.done <- nil
		}
	}
}

// fail kills the link once: every pending call gets a transport error —
// what the breaker and the retry loop already understand — and the peer's
// next call redials.
func (c *conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = fmt.Errorf("link: %w", err)
	c.dead.Store(true)
	for id, cl := range c.pending {
		delete(c.pending, id)
		cl.done <- c.err
	}
	c.rwc.Close()
}

// Hub is the shard's end. It tracks the links it serves because net/http
// forgets a hijacked connection: neither http.Server.Close nor Shutdown
// closes or waits for one.
type Hub struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Conns counts the live links.
func (hub *Hub) Conns() int {
	hub.mu.Lock()
	defer hub.mu.Unlock()
	return len(hub.conns)
}

// Shutdown stops every link reading new calls, lets the calls in flight
// answer until ctx ends, then cuts what is left and waits for the links'
// goroutines. Later upgrades are refused.
func (hub *Hub) Shutdown(ctx context.Context) {
	each := func(do func(net.Conn)) {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		hub.closed = true
		for nc := range hub.conns {
			do(nc)
		}
	}
	// An expired read deadline wakes the link's blocked read: drain.
	each(func(nc net.Conn) { _ = nc.SetReadDeadline(time.Unix(1, 0)) })
	idle := make(chan struct{})
	go func() { hub.wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-ctx.Done():
		each(func(nc net.Conn) { nc.Close() })
		<-idle
	}
}

// Upgrade hijacks an upgrade request's connection and serves it as a
// link, running each call through h, until the link ends. A non-nil
// error means nothing was written: the caller owes w an answer.
func (hub *Hub) Upgrade(w http.ResponseWriter, r *http.Request, h http.Handler) error {
	hj, ok := w.(http.Hijacker)
	if !ok || r.Method != http.MethodGet || r.Header.Get("Upgrade") != proto {
		return errors.New("link: GET with Upgrade: " + proto + " only")
	}
	hub.mu.Lock()
	if hub.closed {
		hub.mu.Unlock()
		return errors.New("link: shutting down")
	}
	nc, brw, err := hj.Hijack()
	if err == nil {
		if hub.conns == nil {
			hub.conns = map[net.Conn]struct{}{}
		}
		hub.conns[nc] = struct{}{}
		hub.wg.Add(1)
	}
	hub.mu.Unlock()
	if err != nil {
		return err
	}
	_ = nc.SetDeadline(time.Time{}) // the HTTP server's timeouts do not govern a link
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+proto+"\r\n\r\n"); err == nil {
		serve(nc, bufio.NewReaderSize(brw.Reader, 64<<10), h)
	}
	nc.Close()
	hub.mu.Lock()
	delete(hub.conns, nc)
	hub.mu.Unlock()
	hub.wg.Done()
	return nil
}

// served is a link's shard end.
type served struct {
	nc    net.Conn
	h     http.Handler
	wmu   sync.Mutex
	calls sync.WaitGroup
	pool  sync.Pool // *servedCall, bound to this link's context
}

// servedCall is a call's pooled in-memory request/response pair: the
// http.Request the handler reads, whose headers and body alias the frame
// in in, and the http.ResponseWriter whose output is the answer frame out.
type servedCall struct {
	s       *served
	in, out []byte
	id      uint64
	req     *http.Request
	body    bytes.Reader
	vals    [len(headers)][1]string
	header  http.Header
	wrote   bool
}

// serve reads calls off a link until it fails or is told to drain (a
// read deadline), then waits for the calls in flight: a cut link cancels
// them, a drain lets them answer.
func serve(nc net.Conn, br *bufio.Reader, h http.Handler) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &served{nc: nc, h: h}
	defer s.calls.Wait()
	for {
		sc, _ := s.pool.Get().(*servedCall)
		if sc == nil {
			sc = &servedCall{s: s, header: http.Header{}}
			sc.req, _ = http.NewRequestWithContext(ctx, http.MethodPost, "/", nil)
		}
		var err error
		if sc.in, err = logio.ReadFrame(br, sc.in); err == nil {
			err = sc.parse()
		}
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				cancel()
			}
			return
		}
		s.calls.Add(1)
		go sc.run()
	}
}

// parse points the pooled request at the frame in sc.in. A header value
// equal to the record's last keeps that string, so on a warm link only
// the trace id allocates.
func (sc *servedCall) parse() error {
	id, route, vals, body, err := split(sc.in)
	if err != nil || route >= len(routes) {
		return errMalformed
	}
	sc.id, sc.req.URL.Path = id, routes[route]
	clear(sc.req.Header)
	for i, v := range vals {
		if sc.vals[i][0] != string(v) {
			sc.vals[i][0] = string(v)
		}
		if len(v) > 0 {
			sc.req.Header[headers[i]] = sc.vals[i][:]
		}
	}
	sc.body.Reset(body)
	sc.req.Body, sc.req.ContentLength = sc, int64(len(body))
	return nil
}

func (sc *servedCall) run() {
	s := sc.s
	defer s.calls.Done()
	defer func() {
		// As net/http does for a panicking handler: log it and drop the
		// connection, not the process.
		if p := recover(); p != nil {
			log.Printf("link: panic serving %s: %v\n%s", sc.req.URL.Path, p, debug.Stack())
			s.nc.Close()
		}
	}()
	s.h.ServeHTTP(sc, sc.req)
	sc.WriteHeader(http.StatusOK)
	err := logio.Seal(sc.out)
	if err == nil {
		s.wmu.Lock()
		_, err = s.nc.Write(sc.out)
		s.wmu.Unlock()
	}
	if err != nil {
		s.nc.Close()
	}
	clear(sc.header)
	sc.wrote = false
	s.pool.Put(sc)
}

func (sc *servedCall) Read(p []byte) (int, error) { return sc.body.Read(p) }
func (sc *servedCall) Close() error               { return nil }
func (sc *servedCall) Header() http.Header        { return sc.header }

func (sc *servedCall) WriteHeader(status int) {
	if !sc.wrote {
		sc.wrote = true
		sc.out = appendHead(sc.out, sc.id, status, sc.header)
	}
}

func (sc *servedCall) Write(p []byte) (int, error) {
	sc.WriteHeader(http.StatusOK)
	sc.out = append(sc.out, p...)
	return len(p), nil
}
