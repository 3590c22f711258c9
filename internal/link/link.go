// Package link is the router→shard hop: one transport-neutral call that
// both ends speak, and the wire that carries it — one persistent
// connection per shard, the six data-plane POSTs as CRC-framed calls
// multiplexed by call id, where HTTP/1.1 spent a text exchange and a
// pooled connection's bookkeeping on every sub-batch.
//
// A call is a route index, seven header slots and a body; its answer is a
// status, the same slots and a body. On the link each is one
// internal/logio frame whose payload is
//
//	u64 call id | u16 code | len(Headers) × (u32 len, value) | body
//
// where code is the route's index in Routes on a call and the HTTP status
// on an answer. Transport, the router's end, is a Caller: the resilience
// plane calls through that seam and faultinject wraps it. Hub, the shard's
// end, hands each call to the shard's data-plane core — the Handler its
// HTTP routes call too — so the two wires cannot answer differently. See
// "The shard link" in docs/ARCHITECTURE.md.
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
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/logio"
	"titant/internal/telemetry"
)

// Path is the shard route that upgrades a connection to a link.
const Path = "/v1/link"

const proto = "titant-link"

// Routes are the shard routes a call can name, by index: the six
// data-plane POSTs a frame carries (a route's index is its frame code),
// then the control plane, which a Transport always sends over HTTP.
var Routes = [...]struct{ Method, Path string }{
	{"POST", "/v1/score"}, {"POST", "/v1/score/batch"}, {"POST", "/v1/decide"},
	{"POST", "/v1/decide/batch"}, {"POST", "/v1/ingest"}, {"POST", "/v1/ingest/batch"},
	{"GET", "/v1/models"}, {"POST", "/v1/models"}, {"GET", "/v1/policy"}, {"POST", "/v1/policy"},
	{"GET", "/v1/stats"}, {"GET", "/metrics"}, {"GET", "/healthz"},
}

// DataRoutes is how many of Routes a frame can carry.
const DataRoutes = 6

// Route returns the index of method and path in Routes, or -1.
func Route(method, path string) int {
	for i, r := range Routes {
		if r.Method == method && r.Path == path {
			return i
		}
	}
	return -1
}

// The header slots, by index into a Header: what the router forwards, its
// per-attempt deadline, and what it reads off an answer.
const (
	SlotContentType = iota
	SlotAuthorization
	SlotCaller
	SlotIdempotencyKey
	SlotTrace
	SlotDeadline
	SlotRetryAfter
	numSlots
)

// Headers names the slots.
var Headers = [numSlots]string{"Content-Type", "Authorization", "X-Caller", "X-Idempotency-Key", "X-Trace-Id", "X-Deadline-Ms", "Retry-After"}

// Header is a call's or an answer's header slots; "" is absent.
type Header [numSlots]string

// JSON is the Content-Type every data-plane answer carries.
const JSON = "application/json"

var (
	// Why a link died; conn.fail wraps them.
	errMalformed = errors.New("malformed frame")
	errClosed    = errors.New("closed")
	errStalled   = errors.New("write stalled past the call's deadline")
	le           = binary.LittleEndian
)

// appendHead starts a frame in buf: logio's header, reserved, then the
// payload up to where the body goes. logio.Seal closes the frame.
func appendHead(buf []byte, id uint64, code int, h *Header) []byte {
	buf = append(buf[:0], make([]byte, logio.FrameOverhead)...)
	buf = le.AppendUint16(le.AppendUint64(buf, id), uint16(code))
	for _, v := range h {
		buf = append(le.AppendUint32(buf, uint32(len(v))), v...)
	}
	return buf
}

// split cuts a payload into its fields, trusting none of its lengths.
func split(p []byte) (id uint64, code int, vals [numSlots][]byte, body []byte, err error) {
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

// Caller carries calls to shards: the seam between the router's
// resilience plane and the wire. Transport is the production one;
// faultinject wraps it. Do returns nil once the answer is in the record.
type Caller interface {
	Do(ctx context.Context, c *Call) error
}

// Call is one call's pooled record at the router's end: Shard, Route,
// Header and Timeout set and the body written, a Caller carries it; after
// a nil error the answer is in Status, Answer and Body — views of the
// answer frame, valid until Release.
type Call struct {
	Shard, Route int
	Header       Header
	// Timeout bounds the call beside its context (0: only the context
	// does); the caller tells the callee in the X-Deadline-Ms slot.
	Timeout time.Duration

	Status int
	Answer [numSlots][]byte
	Body   []byte

	frame  []byte // the call frame: head, then the body Write appends
	bodyAt int    // where the body starts in frame; 0 before the head is written
	rbuf   []byte // the answer frame (or, over HTTP, the answer body)
	done   chan error
}

var callPool = sync.Pool{New: func() any { return &Call{done: make(chan error, 1)} }}

// PoisonReleased, when set, makes Release overwrite the answer frame, so a
// splice that reads an answer after its record went back to the pool reads
// garbage, not the answer. The release tests set it.
var PoisonReleased atomic.Bool

// NewCall returns a pooled record for a call on route to shard.
func NewCall(shard, route int) *Call {
	c := callPool.Get().(*Call)
	c.Shard, c.Route = shard, route
	return c
}

// Write appends p to the call's body. The header slots are frozen at the
// first Write.
func (c *Call) Write(p []byte) (int, error) {
	c.open()
	c.frame = append(c.frame, p...)
	return len(p), nil
}

func (c *Call) open() {
	if c.bodyAt == 0 {
		c.frame = appendHead(c.frame, 0, c.Route, &c.Header)
		c.bodyAt = len(c.frame)
	}
}

// body is what Write appended.
func (c *Call) body() []byte {
	c.open()
	return c.frame[c.bodyAt:]
}

// Release pools the record again; the views of its answer die with it.
func (c *Call) Release() {
	if PoisonReleased.Load() {
		full := c.rbuf[:cap(c.rbuf)]
		for i := range full {
			full[i] = 0xa5
		}
	}
	if cap(c.frame)+cap(c.rbuf) > 1<<20 { // a control-plane body: not worth holding
		return
	}
	*c = Call{frame: c.frame[:0], rbuf: c.rbuf[:0], done: c.done}
	callPool.Put(c)
}

// Transport is the router's end: it carries data-plane calls over one
// link per shard and everything else — control plane, stats and health
// fan-outs, shards that do not speak the link — over HTTP on base.
type Transport struct {
	// Calls counts the calls carried by link, Redials the links reopened
	// after one died.
	Calls, Redials atomic.Int64

	base    http.RoundTripper
	peers   []*peer
	readers sync.WaitGroup
	mu      sync.Mutex // only ever taken last: a dial holds its peer's lock, then this
	closed  bool
}

// peer is one shard: its base URL, its link, or the finding that it has
// none.
type peer struct {
	url   string
	mu    sync.Mutex
	c     *conn
	plain bool // answered the upgrade with something other than 101
}

// New returns a link transport to the shards at the given base URLs (a
// call's Shard indexes them) over base (nil: http.DefaultTransport), which
// carries the upgrade and every call the link does not.
func New(base http.RoundTripper, shards []string) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &Transport{base: base, peers: make([]*peer, len(shards))}
	for i, u := range shards {
		t.peers[i] = &peer{url: u}
	}
	return t
}

// URL is the address of route on shard.
func (t *Transport) URL(shard, route int) string { return t.peers[shard].url + Routes[route].Path }

// Linked reports whether shard is reached by a live link right now.
func (t *Transport) Linked(shard int) bool {
	p := t.peers[shard]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c != nil && !p.c.dead.Load()
}

// Close cuts every link and waits for the reader goroutines: calls in
// flight fail, later ones are refused.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	for _, p := range t.peers {
		p.mu.Lock()
		if p.c != nil {
			p.c.fail(errClosed)
		}
		p.mu.Unlock()
	}
	t.readers.Wait()
}

// Do implements Caller. What a frame cannot say (a control-plane route,
// an absurd body) goes over HTTP.
func (t *Transport) Do(ctx context.Context, c *Call) error {
	p := t.peers[c.Shard]
	if c.Route >= DataRoutes || len(c.body()) > logio.MaxPayload/2 {
		return t.http(ctx, p, c)
	}
	cn, err := p.link(ctx, t)
	if cn != nil {
		t.Calls.Add(1)
		return cn.do(ctx, c)
	}
	if err != nil {
		return err
	}
	if err = t.http(ctx, p, c); err != nil {
		// A plain peer is probed again after a transport failure: it may
		// come back as a build that speaks the link.
		p.mu.Lock()
		p.plain = false
		p.mu.Unlock()
	}
	return err
}

// http carries c as an HTTP exchange.
func (t *Transport) http(ctx context.Context, p *peer, c *Call) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, Routes[c.Route].Method, p.url+Routes[c.Route].Path, bytes.NewReader(c.body()))
	if err != nil {
		return err
	}
	for i, v := range c.Header {
		if v != "" {
			req.Header[Headers[i]] = []string{v}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(c.rbuf[:0])
	if _, err = buf.ReadFrom(io.LimitReader(resp.Body, 64<<20)); err != nil {
		return err
	}
	c.rbuf = buf.Bytes()
	c.Status, c.Body = resp.StatusCode, c.rbuf
	for i, name := range Headers {
		if v := resp.Header.Get(name); v != "" {
			c.Answer[i] = []byte(v)
		}
	}
	return nil
}

// link returns the peer's live link, opening one if need be. Neither a
// link nor an error means the peer speaks plain HTTP only.
func (p *peer) link(ctx context.Context, t *Transport) (*conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plain || (p.c != nil && !p.c.dead.Load()) {
		return p.c, nil
	}
	// Callers queue here behind a dial. One that waited its budget away
	// behind a dial that failed must not start the next.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	up, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+Path, nil)
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
	c := &conn{rwc: rwc, wlock: make(chan struct{}, 1), pending: map[uint64]*Call{}}
	c.stall = time.AfterFunc(time.Hour, func() { c.fail(errStalled) })
	c.stall.Stop()
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
	// stall fails the link when a write outlives its call's deadline; only
	// the writer holding wlock arms it.
	stall *time.Timer
	dead  atomic.Bool

	mu      sync.Mutex
	pending map[uint64]*Call
	lastID  uint64
	err     error // why the link died
}

func (cn *conn) do(ctx context.Context, c *Call) error {
	cn.mu.Lock()
	if cn.err != nil {
		cn.mu.Unlock()
		return cn.err
	}
	cn.lastID++
	id := cn.lastID
	cn.pending[id] = c
	cn.mu.Unlock()

	c.open()
	le.PutUint64(c.frame[logio.FrameOverhead:], id)
	err := logio.Seal(c.frame)
	var expired <-chan struct{}
	deadline, bounded := ctx.Deadline()
	if c.Timeout > 0 {
		dl := telemetry.WithDeadline(ctx, c.Timeout, telemetry.TraceID{})
		defer dl.Release()
		expired = dl.Done()
		if at, _ := dl.Deadline(); !bounded || at.Before(deadline) {
			deadline, bounded = at, true
		}
	}
	if err == nil {
		select {
		case cn.wlock <- struct{}{}:
			err = cn.write(c.frame, deadline, bounded)
			<-cn.wlock
		case <-ctx.Done():
			err = ctx.Err()
		case <-expired:
			err = context.DeadlineExceeded
		}
	}
	if err == nil {
		select {
		case err = <-c.done:
			return err
		case <-ctx.Done():
			err = ctx.Err()
		case <-expired:
			err = context.DeadlineExceeded
		}
	}
	// Abandoned: if the call is still pending the reader will drop its late
	// answer; if the reader (or fail) took it first, its verdict is due.
	cn.mu.Lock()
	_, mine := cn.pending[id]
	delete(cn.pending, id)
	cn.mu.Unlock()
	if !mine {
		<-c.done
	}
	return err
}

// write sends a frame under wlock by the call's deadline, when it has one.
// A write still blocked then means the peer stopped reading: the stall
// timer fails the link, which closes the connection under the write and
// frees wlock for the callers queued behind it. (The upgraded body
// net/http hands the router does not expose its connection's
// SetWriteDeadline, so a timer does what that deadline would.)
func (cn *conn) write(frame []byte, deadline time.Time, bounded bool) error {
	if bounded {
		left := time.Until(deadline)
		if left <= 0 {
			return context.DeadlineExceeded
		}
		cn.stall.Reset(left)
		defer cn.stall.Stop()
	}
	if _, err := cn.rwc.Write(frame); err != nil {
		cn.fail(err)
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return cn.err // errStalled when the timer cut the write
	}
	return nil
}

func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.rwc, 64<<10)
	var buf []byte
	for {
		var err error
		if buf, err = logio.ReadFrame(br, buf); err != nil {
			cn.fail(err)
			return
		}
		id, status, vals, body, err := split(buf)
		if err != nil {
			cn.fail(err)
			return
		}
		cn.mu.Lock()
		c := cn.pending[id]
		delete(cn.pending, id)
		cn.mu.Unlock()
		if c != nil { // else abandoned: a late answer is nobody's
			c.rbuf, buf = buf, c.rbuf
			c.Status, c.Answer, c.Body = status, vals, body
			c.done <- nil
		}
	}
}

// fail kills the link once: every pending call gets a transport error —
// what the breaker and the retry loop already understand — and the peer's
// next call redials.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return
	}
	cn.err = fmt.Errorf("link: %w", err)
	cn.dead.Store(true)
	for id, c := range cn.pending {
		delete(cn.pending, id)
		c.done <- cn.err
	}
	cn.rwc.Close()
}

// Handler is a shard's data-plane core, the one function behind both of
// its wires: it answers the call on route (< DataRoutes) with header slots
// h and body by appending the answer body to out, and returns the answer's
// status and slots. h and body are only valid during the call.
type Handler func(ctx context.Context, route int, h *Header, body, out []byte) (status int, ans Header, reply []byte)

// Hub is the shard's end. It tracks the links it serves because net/http
// forgets a hijacked connection: neither http.Server.Close nor Shutdown
// closes or waits for one. Each link's connection is kept beside the
// cancel of the context its calls run under, so cutting a link also
// cancels the calls still in flight on it.
type Hub struct {
	mu     sync.Mutex
	conns  map[net.Conn]context.CancelFunc
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
// answer until ctx ends, then cuts what is left — closing each connection
// and cancelling its calls — and waits for the links' goroutines. Later
// upgrades are refused.
func (hub *Hub) Shutdown(ctx context.Context) {
	each := func(do func(net.Conn, context.CancelFunc)) {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		hub.closed = true
		for nc, cancel := range hub.conns {
			do(nc, cancel)
		}
	}
	// An expired read deadline wakes the link's blocked read: drain.
	each(func(nc net.Conn, _ context.CancelFunc) { _ = nc.SetReadDeadline(time.Unix(1, 0)) })
	idle := make(chan struct{})
	go func() { hub.wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-ctx.Done():
		each(func(nc net.Conn, cancel context.CancelFunc) {
			cancel()
			nc.Close()
		})
		<-idle
	}
}

// Upgrade hijacks an upgrade request's connection and serves it as a
// link, handing each call to h, until the link ends. A non-nil error
// means nothing was written: the caller owes w an answer.
func (hub *Hub) Upgrade(w http.ResponseWriter, r *http.Request, h Handler) error {
	hj, ok := w.(http.Hijacker)
	if !ok || r.Method != http.MethodGet || r.Header.Get("Upgrade") != proto {
		return errors.New("link: GET with Upgrade: " + proto + " only")
	}
	hub.mu.Lock()
	if hub.closed {
		hub.mu.Unlock()
		return errors.New("link: shutting down")
	}
	ctx, cancel := context.WithCancel(context.Background())
	nc, brw, err := hj.Hijack()
	if err == nil {
		if hub.conns == nil {
			hub.conns = map[net.Conn]context.CancelFunc{}
		}
		hub.conns[nc] = cancel
		hub.wg.Add(1)
	}
	hub.mu.Unlock()
	if err != nil {
		cancel()
		return err
	}
	_ = nc.SetDeadline(time.Time{}) // the HTTP server's timeouts do not govern a link
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+proto+"\r\n\r\n"); err == nil {
		serve(ctx, cancel, nc, bufio.NewReaderSize(brw.Reader, 64<<10), h)
	}
	cancel()
	nc.Close()
	hub.mu.Lock()
	delete(hub.conns, nc)
	hub.mu.Unlock()
	hub.wg.Done()
	return nil
}

// served is a link's shard end.
type served struct {
	ctx   context.Context
	nc    net.Conn
	h     Handler
	wmu   sync.Mutex
	calls sync.WaitGroup
	pool  sync.Pool // *servedCall
}

// servedCall is a call's pooled record at the shard end: the frame in, its
// route, slots and body (views of in), the handler's reply, and the answer
// frame out. A slot equal to the record's last keeps that string, so on a
// warm link only the trace id allocates.
type servedCall struct {
	s              *served
	in, reply, out []byte
	id             uint64
	route          int
	hdr            Header
	body           []byte
	run            func() // answer, bound once: starting a call allocates no closure
}

// serve reads calls off a link until it fails or is told to drain (a
// read deadline), then waits for the calls in flight, which run under
// ctx: a failed link cancels them before the wait, a drain lets them
// answer — until the hub cuts the link, which cancels ctx too.
func serve(ctx context.Context, cancel context.CancelFunc, nc net.Conn, br *bufio.Reader, h Handler) {
	s := &served{ctx: ctx, nc: nc, h: h}
	for {
		sc, _ := s.pool.Get().(*servedCall)
		if sc == nil {
			sc = &servedCall{s: s}
			sc.run = sc.answer
		}
		if err := sc.read(br); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				cancel()
			}
			s.calls.Wait()
			return
		}
		s.calls.Add(1)
		go sc.run()
	}
}

// read reads the link's next call into sc.
func (sc *servedCall) read(br *bufio.Reader) (err error) {
	if sc.in, err = logio.ReadFrame(br, sc.in); err != nil {
		return err
	}
	id, route, vals, body, err := split(sc.in)
	if err != nil || route >= DataRoutes {
		return errMalformed
	}
	sc.id, sc.route, sc.body = id, route, body
	for i, v := range vals {
		if sc.hdr[i] != string(v) {
			sc.hdr[i] = string(v)
		}
	}
	return nil
}

func (sc *servedCall) answer() {
	s := sc.s
	defer s.calls.Done()
	defer func() {
		// As net/http does for a panicking handler: log it and drop the
		// connection, not the process.
		if p := recover(); p != nil {
			log.Printf("link: panic serving %s: %v\n%s", Routes[sc.route].Path, p, debug.Stack())
			s.nc.Close()
		}
	}()
	status, ans, reply := s.h(s.ctx, sc.route, &sc.hdr, sc.body, sc.reply[:0])
	sc.reply = reply
	sc.out = append(appendHead(sc.out, sc.id, status, &ans), reply...)
	err := logio.Seal(sc.out)
	if err == nil {
		s.wmu.Lock()
		_, err = s.nc.Write(sc.out)
		s.wmu.Unlock()
	}
	if err != nil {
		s.nc.Close()
	}
	s.pool.Put(sc)
}
