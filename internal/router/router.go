// Package router is the scatter/gather tier that lifts the in-process
// shard split over the wire: a stateless daemon owning no model, no
// table and no window, only the hash ring. It fans the v1 batch routes
// out to shard servers with ms.ShardOf — the same jump hash the
// in-process engine partitions by — merges the responses in input order,
// replicates control-plane swaps (models, policy) to every shard, and
// folds the fleet's stats and health into single bodies.
//
// A request's headers are read once, into its link.Header call slots:
// X-Caller, X-Idempotency-Key, X-Deadline-Ms and the trace, adopted from
// a well-formed X-Trace-Id or minted. The trace is stamped on the response
// before anything else, and every attempt of every shard call copies the
// slots, so over the shard link (internal/link) the trace is a frame slot
// the shard's engine runs under: one ID names a verdict's whole path.
//
// Shard servers are plain `titant serve` processes: each carries the
// full read-only feature table (replicated T+1 artifacts are cheap to
// copy) while the hot user-keyed state — user cache, event log, the
// sender's half of the stream window — partitions by sender, because
// every call goes to its sender's owner. The window's receiver half does
// not: an ingest lands on the sender's owner, so on a wire fleet the
// receiver-velocity rule reads and the live city fraud rates are
// shard-local partial sums, not one engine's, until ingest routes the
// receiver's half to its own owner.
//
// Partial failure is the steady state, and every proxied call runs
// through the resilience plane (see resilience.go): a deadline budget
// propagated from the caller's X-Deadline-Ms, bounded full-jitter
// retries for idempotent ops, a circuit breaker per shard, and optional
// tail-latency hedging for single-shard reads. Delivery semantics on
// the data plane stay at-most-once for ingest (no retry unless the
// caller sends X-Idempotency-Key); score and decide are read-only and
// retry freely. When a shard stays unreachable the router degrades
// rather than fails: batch responses carry per-item typed errors
// (ms.CodeShardUnavailable) and decide items fall back to a configured
// fail-closed action, so a verdict always arrives and is never silently
// wrong.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/link"
	"titant/internal/ms"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Request-body ceilings, mirroring the shard servers' own limits: the
// router never buffers more than a shard would accept.
const (
	maxSingleBytes  = 1 << 20
	maxBatchBytes   = 64 << 20
	maxControlBytes = 64 << 20
)

// Headers the resilience plane acts on.
const (
	// HeaderDeadline carries the caller's remaining budget in
	// milliseconds; the router re-propagates the per-attempt remainder
	// downstream so a shard never works past the caller's patience.
	HeaderDeadline = ms.HeaderDeadline
)

// Option configures a Router.
type Option func(*Router)

// WithTimeout bounds each proxied shard attempt (default 2s). Retries
// get a fresh attempt timeout each, inside the overall budget.
func WithTimeout(d time.Duration) Option {
	return func(rt *Router) {
		if d > 0 {
			rt.perTry = d
		}
	}
}

// WithBudget sets the default overall request budget used when the
// caller sends no X-Deadline-Ms (default 10s), and the gather margin
// reserved from every budget for merging (default 50ms).
func WithBudget(budget, margin time.Duration) Option {
	return func(rt *Router) {
		if budget > 0 {
			rt.budget = budget
		}
		if margin > 0 {
			rt.margin = margin
		}
	}
}

// WithRetries sets the retry budget for idempotent calls (default 2,
// i.e. up to 3 attempts) and the full-jitter backoff base/cap
// (defaults 25ms/250ms). retries 0 disables retrying.
func WithRetries(retries int, base, cap time.Duration) Option {
	return func(rt *Router) {
		if retries >= 0 {
			rt.retries = retries
		}
		if base > 0 {
			rt.backoff = base
		}
		if cap > 0 {
			rt.backoffCap = cap
		}
	}
}

// WithBreaker tunes the per-shard circuit breakers.
func WithBreaker(cfg BreakerConfig) Option {
	return func(rt *Router) { rt.brkCfg = cfg }
}

// WithHedge enables tail-latency hedging for single-shard reads: a
// second identical request launches if the first has not answered
// within max(floor, shard p99); the first success wins and the loser is
// cancelled. floor <= 0 disables hedging (the default).
func WithHedge(floor time.Duration) Option {
	return func(rt *Router) { rt.hedgeFloor = floor }
}

// WithFallbackAction sets the action degraded decide items carry
// (default ms.FallbackActionReview, the fail-closed stance).
func WithFallbackAction(action string) Option {
	return func(rt *Router) { rt.fallback = action }
}

// WithQuorum sets how many healthy shards /healthz needs to answer 200
// (default: a majority, n/2+1). Below quorum the fleet reports 503.
func WithQuorum(q int) Option {
	return func(rt *Router) { rt.quorum = q }
}

// WithTransport sets the HTTP transport beneath the shard link
// (default http.DefaultTransport): it carries the link's upgrade, the
// control plane, and every call to a shard that does not speak the link.
func WithTransport(t http.RoundTripper) Option {
	return func(rt *Router) { rt.base = t }
}

// WithSeed seeds the backoff-jitter RNG (default 1), keeping chaos runs
// reproducible end to end.
func WithSeed(seed uint64) Option {
	return func(rt *Router) { rt.seed = seed }
}

// Router fans v1 traffic across a fixed shard ring.
type Router struct {
	shards []string // base URLs, index = shard number
	base   http.RoundTripper
	link   *link.Transport // the shard link
	// caller is what the resilience plane issues calls through: the link,
	// or a layer wrapped around it (see Wrap).
	caller link.Caller

	// Resilience-plane tuning (see the Option funcs for semantics).
	perTry     time.Duration
	perTryMs   string // X-Deadline-Ms of an attempt the budget does not clamp
	budget     time.Duration
	margin     time.Duration
	retries    int
	backoff    time.Duration
	backoffCap time.Duration
	hedgeFloor time.Duration
	fallback   string
	quorum     int
	brkCfg     BreakerConfig
	seed       uint64

	brk []*breaker
	lat []*telemetry.Histogram // successful per-shard call latency, feeds the hedge delay
	rnd *lockedRand
	now func() time.Time

	// Observability plane: the trace-ID minter for requests arriving
	// without an X-Trace-Id, and the per-endpoint stage span tracker
	// behind /v1/debug/trace and the router's /metrics page, its tracks
	// fixed per data-plane route ("/v1/score/batch" → "score_batch").
	minter *telemetry.Minter
	tel    *telemetry.Tracker
	tracks [link.DataRoutes]*telemetry.EndpointTrack

	// Observability counters for the /v1/stats "router" section.
	singles   atomic.Int64 // single-row requests forwarded to one owner
	batches   atomic.Int64 // batch requests scattered
	fanouts   atomic.Int64 // sub-batches dispatched by scatters
	controls  atomic.Int64 // model/policy swaps replicated
	errors    atomic.Int64 // upstream failures relayed or detected
	retried   atomic.Int64 // retry attempts issued
	hedges    atomic.Int64 // hedge legs launched
	hedgeWins atomic.Int64 // hedge legs that answered first
	degraded  atomic.Int64 // items answered with a degraded envelope
	deadlines atomic.Int64 // calls abandoned on an exhausted caller budget
}

// New builds a router over the given shard base URLs (e.g.
// "http://10.0.0.1:8080"). Order is identity: index i is shard i of
// len(shards), and must stay stable across router restarts or users
// would re-partition silently.
func New(shards []string, opts ...Option) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: no shards")
	}
	cleaned := make([]string, len(shards))
	for i, s := range shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("router: empty shard URL at index %d", i)
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		if _, err := url.Parse(s); err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		cleaned[i] = s
	}
	rt := &Router{
		shards:     cleaned,
		perTry:     2 * time.Second,
		budget:     10 * time.Second,
		margin:     50 * time.Millisecond,
		retries:    2,
		backoff:    25 * time.Millisecond,
		backoffCap: 250 * time.Millisecond,
		fallback:   ms.FallbackActionReview,
		seed:       1,
		now:        time.Now,
	}
	for _, o := range opts {
		o(rt)
	}
	fb, err := ms.ParseFallbackAction(rt.fallback)
	if err != nil {
		return nil, err
	}
	rt.link = link.New(rt.base, cleaned)
	rt.caller = rt.link
	rt.perTryMs = strconv.FormatInt(rt.perTry.Milliseconds(), 10)
	rt.fallback = fb
	if rt.quorum < 0 || rt.quorum > len(cleaned) {
		return nil, fmt.Errorf("router: quorum %d out of range for %d shards", rt.quorum, len(cleaned))
	}
	if rt.quorum == 0 {
		rt.quorum = len(cleaned)/2 + 1
	}
	rt.rnd = newLockedRand(rt.seed)
	rt.brk = make([]*breaker, len(cleaned))
	rt.lat = make([]*telemetry.Histogram, len(cleaned))
	for i := range cleaned {
		rt.brk[i] = newBreaker(rt.brkCfg, rt.now)
		rt.lat[i] = telemetry.NewHistogram(nil)
	}
	rt.minter = telemetry.NewMinter(rt.seed)
	rt.tel = telemetry.NewTracker([]string{
		"score", "decide", "ingest", "score_batch", "decide_batch", "ingest_batch",
	}, 0)
	for i := range rt.tracks {
		rt.tracks[i] = rt.tel.Endpoint(strings.ReplaceAll(strings.TrimPrefix(link.Routes[i].Path, "/v1/"), "/", "_"))
	}
	return rt, nil
}

// Shards returns the ring width.
func (rt *Router) Shards() int { return len(rt.shards) }

// Wrap puts wrap's Caller between the resilience plane and the shard
// link — the seam the faultinject chaos layer plugs into, so that its
// faults sit above the production path. Call it before serving.
func (rt *Router) Wrap(wrap func(link.Caller) link.Caller) { rt.caller = wrap(rt.caller) }

// Close cuts the router's shard links and waits for their readers.
func (rt *Router) Close() { rt.link.Close() }

// ownerShard returns the index of the shard owning user u.
func (rt *Router) ownerShard(u txn.UserID) int {
	return ms.ShardOf(u, len(rt.shards))
}

// Handler returns the router's HTTP surface: the shard servers' v1
// routes, one hop up. Every request's call slots are taken first (see
// slots), so every response carries its trace. The read-outs answer GET,
// and /healthz HEAD too, which load balancers probe liveness with. A path
// no route names goes to an empty mux, which answers 404 or redirects to
// the cleaned path.
func (rt *Router) Handler() http.Handler {
	fallback := http.NewServeMux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := rt.slots(w, r)
		path := r.URL.Path
		switch read := r.Method == http.MethodGet || r.Method == http.MethodHead && path == "/healthz"; {
		case path == "/v1/models" || path == "/v1/policy":
			rt.control(w, r, &h)
		case path == "/v1/stats" && read:
			rt.stats(w, r, &h)
		case path == "/metrics" && read:
			rt.metrics(w, r, &h)
		case path == "/healthz" && read:
			rt.healthz(w, r, &h)
		case path == "/v1/debug/trace" && read:
			// The router's own stage spans and slowest exemplars: each
			// shard serves its own, and the trace ID joins them.
			writeJSON(w, http.StatusOK, telemetry.TraceBody(rt.tel))
		case path == "/v1/stats" || path == "/metrics" || path == "/healthz" || path == "/v1/debug/trace":
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		default:
			if route := link.Route(http.MethodPost, path); route >= 0 {
				rt.serveData(w, r, route, &h)
			} else {
				fallback.ServeHTTP(w, r)
			}
		}
	})
}

// slots fills a request's call slots from its headers, adopts or mints
// its trace and stamps it on the response (see the package comment).
func (rt *Router) slots(w http.ResponseWriter, r *http.Request) (h link.Header) {
	for i := range link.SlotRetryAfter {
		if v := r.Header[link.Headers[i]]; len(v) > 0 {
			h[i] = v[0]
		}
	}
	h[link.SlotTrace] = rt.minter.Adopt(h[link.SlotTrace])
	w.Header()[telemetry.TraceHeader] = []string{h[link.SlotTrace]}
	return h
}

// ListenAndServe serves the router on addr with the shard servers'
// graceful-shutdown contract.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	return ms.ListenAndServe(ctx, addr, rt.Handler(), nil)
}

// writeError writes the error envelope. It names the trace Handler stamped
// on the response, so error bodies are greppable even when the caller
// dropped the headers.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]ms.APIError{"error": {Code: code, Message: msg, TraceID: w.Header().Get(telemetry.TraceHeader)}})
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// upstream is one proxied shard call's outcome: the answer — Status,
// Answer slots and Body, held in its call record until release — or a
// transport failure.
type upstream struct {
	*link.Call
	err error // transport failure (no answer)
}

// failed reports whether the upstream is a transport failure or 5xx —
// the failure class that counts against breakers and triggers
// degradation. 4xx means the shard is healthy and refusing.
func (u upstream) failed() bool { return u.err != nil || u.Status >= 500 }

// release hands the answer's record back to its pool: after the last
// splice out of its body is written.
func (u upstream) release() {
	if u.Call != nil {
		u.Release()
	}
}

// callSpec describes one logical shard call for the resilience plane.
type callSpec struct {
	route int // index into link.Routes
	body  []byte
	// sub, when set, writes the body instead: the batch scratch whose
	// items owned by shard form the call's sub-batch.
	sub   *batchScratch
	shard int
	// retryable marks idempotent ops (score/decide/stats/healthz, and
	// ingest only with an idempotency key) eligible for the retry loop.
	retryable bool
	// hedged marks single-shard reads eligible for tail-latency hedging.
	hedged bool
	// noBreaker bypasses the circuit breaker entirely (health probes
	// must tell the truth, not echo the breaker's opinion).
	noBreaker bool
	// spans, when set, accumulates the call's retry-backoff and hedge
	// stage durations. Each concurrent call (scatter goroutine, hedge
	// leg) must have its own buffer; the handler folds them together.
	spans *telemetry.Spans
}

// attempt issues one call for spec through the caller seam, with the
// request's slots h, bounded by the smaller of the per-try timeout and
// the remaining deadline budget, propagating the remainder downstream as
// X-Deadline-Ms. The call's record comes from a pool and its body is
// written straight into its frame; a failure is quoted as the *url.Error
// an HTTP client reports.
func (rt *Router) attempt(ctx context.Context, h *link.Header, deadline time.Time, spec *callSpec) upstream {
	rem := deadline.Sub(rt.now())
	if rem <= 0 {
		return upstream{err: errBudgetExhausted}
	}
	per, perMs, clamped := rt.perTry, rt.perTryMs, false
	if per <= 0 || rem < per {
		per, perMs, clamped = rem, strconv.FormatInt(rem.Milliseconds(), 10), true
	}
	c := link.NewCall(spec.shard, spec.route)
	c.Header = *h
	c.Header[link.SlotDeadline], c.Timeout = perMs, per
	if spec.sub != nil {
		spec.sub.writeSub(c, spec.shard)
	} else {
		c.Write(spec.body)
	}
	err := rt.caller.Do(ctx, c)
	if err == nil {
		return upstream{Call: c}
	}
	c.Release()
	// A timeout on an attempt that was clamped to the remaining budget IS
	// the budget running out, not the shard being slow.
	if clamped && errors.Is(err, context.DeadlineExceeded) {
		return upstream{err: errBudgetExhausted}
	}
	if ctx.Err() != nil && deadline.Sub(rt.now()) <= 0 {
		return upstream{err: errBudgetExhausted}
	}
	m := link.Routes[spec.route].Method
	return upstream{err: &url.Error{Op: m[:1] + strings.ToLower(m[1:]), URL: rt.link.URL(spec.shard, spec.route), Err: err}}
}

// requestBudget derives this request's work deadline: the caller's
// X-Deadline-Ms (capped by the router's own budget) minus the gather
// margin, so merging finishes before the caller hangs up. The margin
// never eats more than half the budget. Every attempt is clamped to it,
// so no context has to carry it.
func (rt *Router) requestBudget(h *link.Header) time.Time {
	budget := rt.budget
	if v := h[link.SlotDeadline]; v != "" {
		if msv, err := strconv.ParseInt(v, 10, 64); err == nil && msv > 0 {
			if d := time.Duration(msv) * time.Millisecond; d < budget {
				budget = d
			}
		}
	}
	work := budget - rt.margin
	if work < budget/2 {
		work = budget / 2
	}
	return rt.now().Add(work)
}

// itemError classifies one failed upstream into the typed per-item
// error the degraded envelopes carry.
func (rt *Router) itemError(u upstream, shard int) *ms.ItemError {
	code := ms.CodeShardUnavailable
	msg := fmt.Sprintf("shard %d unavailable", shard)
	switch {
	case errors.Is(u.err, errBudgetExhausted):
		code = ms.CodeDeadlineExceeded
		msg = fmt.Sprintf("deadline budget exhausted before shard %d answered", shard)
	case errors.Is(u.err, errCircuitOpen):
		msg = fmt.Sprintf("shard %d circuit open", shard)
	case u.err != nil:
		msg = fmt.Sprintf("shard %d: %v", shard, u.err)
	case u.Status >= 500:
		msg = fmt.Sprintf("shard %d answered %d", shard, u.Status)
	}
	return &ms.ItemError{Code: code, Shard: shard, Message: msg}
}

// writeFailure writes the typed error for a wholly-failed call:
// 504 deadline_exceeded when the caller's budget ran out, 503
// shard_unavailable otherwise.
func (rt *Router) writeFailure(w http.ResponseWriter, u upstream, shard int) {
	ie := rt.itemError(u, shard)
	status := http.StatusServiceUnavailable
	if ie.Code == ms.CodeDeadlineExceeded {
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, ie.Code, ie.Message)
}

// relay writes one upstream response through unchanged (a transport
// failure maps to 502 shard_unreachable). A Retry-After already set on
// w (the cross-shard max) is not overwritten.
func (rt *Router) relay(w http.ResponseWriter, u upstream) {
	if u.err != nil {
		rt.errors.Add(1)
		writeError(w, http.StatusBadGateway, "shard_unreachable", u.err.Error())
		return
	}
	if u.Status >= 400 {
		rt.errors.Add(1)
	}
	if ct := string(u.Answer[link.SlotContentType]); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := string(u.Answer[link.SlotRetryAfter]); ra != "" && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(u.Status)
	_, _ = w.Write(u.Body)
}

// maxRetryAfter returns the largest Retry-After advertised by any
// upstream: a caller backing off a sharded fleet must wait for the
// slowest shard, not whichever happened to answer last.
func maxRetryAfter(ups []upstream) string {
	best, bestN := "", -1.0
	for _, u := range ups {
		if u.Call == nil {
			continue
		}
		ra := string(u.Answer[link.SlotRetryAfter])
		if ra == "" {
			continue
		}
		if n, err := strconv.ParseFloat(ra, 64); err == nil {
			if n > bestN {
				bestN, best = n, ra
			}
		} else if best == "" {
			best = ra
		}
	}
	return best
}

// serveData is the six data-plane routes over HTTP, shaped like the
// shards' own: the body read to EOF under the route's cap and closed, so
// writing the response does not make net/http try to drain it, then the
// route. A batch reads into its pooled scratch; a single's body is not
// pooled, as a cancelled hedge leg's transport may still be reading it
// after the handler has returned.
func (rt *Router) serveData(w http.ResponseWriter, r *http.Request, route int, h *link.Header) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var sc *batchScratch
	var body []byte
	limit := int64(maxSingleBytes)
	if route%2 == 1 { // link.Routes lists each verb's single route, then its batch route
		sc = scratchPool.Get().(*batchScratch)
		defer sc.put()
		body, limit = sc.body[:0], maxBatchBytes
	}
	body, err := ms.ReadBody(body, http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		rt.readError(w, err)
		return
	}
	r.Body.Close()
	if sc == nil {
		rt.single(r.Context(), w, route, h, body)
		return
	}
	sc.body = body
	rt.batch(r.Context(), w, route, h, sc)
}

// single forwards a one-transaction request (score/decide/ingest) whole
// to the sender's owner shard. Score and decide are idempotent reads:
// they retry, and hedge when enabled. Ingest is at-most-once — one
// attempt, no retry — unless the caller opts in with X-Idempotency-Key.
// A decide that cannot be served still answers 200, carrying the
// fail-closed fallback action and a degraded marker.
func (rt *Router) single(ctx context.Context, w http.ResponseWriter, route int, h *link.Header, body []byte) {
	id, from, err := ms.PeekTxn(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.singles.Add(1)
	trace, _ := telemetry.ParseTraceID(h[link.SlotTrace])
	start := rt.now()
	var spans telemetry.Spans
	defer func() { rt.tracks[route].Observe(trace, rt.now().Sub(start), &spans) }()
	read := link.Routes[route].Path != "/v1/ingest" // score, decide
	spec := callSpec{route: route, body: body, shard: rt.ownerShard(txn.UserID(from)), spans: &spans,
		retryable: read || h[link.SlotIdempotencyKey] != "", hedged: read}
	rstart := rt.now()
	u := rt.hedgedCall(ctx, h, rt.requestBudget(h), spec)
	defer u.release()
	spans[telemetry.StageRoute] = rt.now().Sub(rstart)
	if !u.failed() {
		rt.relay(w, u)
		return
	}
	rt.errors.Add(1)
	if link.Routes[route].Path == "/v1/decide" {
		rt.degraded.Add(1)
		writeJSON(w, http.StatusOK, ms.DegradedDecision{
			DegradedVerdict: ms.DegradedVerdict{
				TxnID:    txn.TxnID(id),
				Degraded: true,
				Error:    rt.itemError(u, spec.shard),
				TraceID:  h[link.SlotTrace],
			},
			Action: rt.fallback,
			Reason: "fallback: owner shard unavailable",
		})
		return
	}
	rt.writeFailure(w, u, spec.shard)
}

func (rt *Router) readError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// batchScratch is one scatter's working set, pooled: a batch's inbound
// body, where its transactions lie and who owns them, where each shard's
// answers lie, and the spliced response; and every scatter's inputs and
// answers. It goes back to the pool when the handler returns, after the
// last call has: an attempt writes its sub-batch out of body into its own
// call record before it returns, so no transport reads the scratch late.
type batchScratch struct {
	body   []byte
	items  []ms.WireItem   // the request's transactions, in input order
	owner  []int           // owner shard of each
	parts  [][]ms.WireItem // per shard: the items of its answer
	next   []int           // per shard: how many of them are spliced
	failed []*ms.ItemError // per shard: why its items degrade, nil if they don't
	out    []byte
	// Per shard: items to send (0: not called), answer, and the leg's span
	// buffer.
	counts    []int
	ups       []upstream
	callSpans []telemetry.Spans

	// The scatter's inputs, zeroed by put; the next shard a leg claims; and
	// leg, bound once when the pool makes the scratch, which each helper
	// goroutine runs — so starting one allocates no closure.
	rt       *Router
	ctx      context.Context
	slots    link.Header
	deadline time.Time
	spec     callSpec
	claim    atomic.Int64
	legs     sync.WaitGroup
	leg      func()
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(batchScratch)
	sc.leg = func() { sc.work(); sc.legs.Done() }
	return sc
}}

// put releases the scratch's answers and pools it again, pinning nothing
// of its request: no context, slots or answer record.
func (sc *batchScratch) put() {
	for i := range sc.ups {
		sc.ups[i].release()
	}
	clear(sc.ups)
	sc.rt, sc.ctx, sc.slots, sc.deadline, sc.spec = nil, nil, link.Header{}, time.Time{}, callSpec{}
	scratchPool.Put(sc)
}

// scatter issues spec, with the request's slots h, to the legs shards
// sc.counts gives items, concurrently: the handler runs one leg beside a
// helper goroutine per further shard. It returns once every call has, with
// the answers in sc.ups.
func (rt *Router) scatter(ctx context.Context, h *link.Header, spec callSpec, sc *batchScratch, legs int) {
	n := len(sc.counts)
	sc.ups, sc.callSpans = perShard(sc.ups, n), perShard(sc.callSpans, n)
	sc.rt, sc.ctx, sc.slots, sc.deadline, sc.spec = rt, ctx, *h, rt.requestBudget(h), spec
	sc.claim.Store(0)
	helpers := max(legs-1, 0)
	sc.legs.Add(helpers)
	for range helpers {
		go sc.leg()
	}
	sc.work()
	sc.legs.Wait()
}

// work claims shards in ring order until none is left, and calls each
// that has items through the resilience plane.
func (sc *batchScratch) work() {
	for si := int(sc.claim.Add(1)) - 1; si < len(sc.counts); si = int(sc.claim.Add(1)) - 1 {
		if sc.counts[si] > 0 {
			spec := sc.spec
			spec.shard, spec.spans = si, &sc.callSpans[si]
			sc.ups[si] = sc.rt.resilientCall(sc.ctx, &sc.slots, sc.deadline, spec)
		}
	}
}

// writeSub writes shard si's sub-batch into c: its items' byte ranges,
// in input order, under a "transactions" array.
func (sc *batchScratch) writeSub(c *link.Call, si int) {
	sep := subBatchOpen
	for i, it := range sc.items {
		if sc.owner[i] == si {
			c.Write([]byte(sep))
			c.Write(sc.body[it.Start:it.End])
			sep = ","
		}
	}
	c.Write([]byte("]}"))
}

// perShard returns s resized to n zero values.
func perShard[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

const subBatchOpen = `{"transactions":[`

// batch scatters a batch route across owner shards and gathers the
// responses in input order, merging the response array its verb names
// ("verdicts", "decisions"), or, for ingest, the {"ingested": n} counts.
//
// Nothing is unmarshalled on the way: ms.SplitTransactions finds each
// transaction's byte range and routing key, sub-batch bodies are those
// ranges appended — so members the router does not know (labels,
// scenarios, future additions) survive untouched — and the gather cuts
// the shards' answers into ranges with the same scanner and appends
// them in input order.
//
// Gather degrades instead of failing: a shard that cannot answer
// (circuit open, retries exhausted, 5xx) turns only its own items into
// typed degraded envelopes — score items report shard_unavailable,
// decide items additionally carry the fallback action — while the rest
// of the batch returns real verdicts. A shard answering 4xx still fails
// the whole batch (lowest shard index wins, the in-process engine's
// deterministic error order) with Retry-After maxed across shards.
func (rt *Router) batch(ctx context.Context, w http.ResponseWriter, route int, h *link.Header, sc *batchScratch) {
	var err error
	if sc.items, err = ms.SplitTransactions(sc.body, sc.items); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.batches.Add(1)
	trace, _ := telemetry.ParseTraceID(h[link.SlotTrace])
	start := rt.now()
	var spans telemetry.Spans
	defer func() { rt.tracks[route].Observe(trace, rt.now().Sub(start), &spans) }()

	n := len(rt.shards)
	sc.counts = perShard(sc.counts, n)
	counts := sc.counts
	sc.owner = sc.owner[:0]
	legs := 0 // shards called
	for _, it := range sc.items {
		si := ms.ShardOf(txn.UserID(it.From), n)
		sc.owner = append(sc.owner, si)
		if counts[si] == 0 {
			legs++
		}
		counts[si]++
	}
	itemsKey := [...]string{"verdicts", "decisions", ""}[route/2]
	spec := callSpec{route: route, sub: sc, retryable: itemsKey != "" || h[link.SlotIdempotencyKey] != ""}
	rt.fanouts.Add(int64(legs))
	scatterStart := rt.now()
	rt.scatter(ctx, h, spec, sc, legs)
	// The answers stay in their call records until put, after the response.
	ups, callSpans := sc.ups, sc.callSpans
	spans[telemetry.StageRoute] = rt.now().Sub(scatterStart)
	for i := range callSpans {
		spans[telemetry.StageRetry] += callSpans[i][telemetry.StageRetry]
	}

	// A 4xx is the shard refusing a request the router faithfully
	// forwarded (malformed row, over quota): relay it whole, lowest
	// failing shard index first, with the cross-shard max Retry-After.
	for si, u := range ups {
		if counts[si] > 0 && u.err == nil && u.Status >= 400 && u.Status < 500 {
			if ra := maxRetryAfter(ups); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			rt.relay(w, u)
			return
		}
	}

	gstart := rt.now()
	if itemsKey == "" {
		rt.gatherIngest(w, counts, ups)
	} else {
		rt.gatherItems(w, itemsKey, sc, counts, ups)
	}
	spans[telemetry.StageGather] = rt.now().Sub(gstart)
}

// gatherIngest merges per-shard ingest counts. Failed shards surface as
// a "failed" count plus typed per-shard errors; ingest has no per-item
// bodies to degrade.
func (rt *Router) gatherIngest(w http.ResponseWriter, counts []int, ups []upstream) {
	total, failedCount := 0, 0
	var failedShards []map[string]interface{}
	for si, u := range ups {
		if counts[si] == 0 {
			continue
		}
		if u.failed() {
			rt.errors.Add(1)
			failedCount += counts[si]
			failedShards = append(failedShards, map[string]interface{}{
				"shard": si, "count": counts[si], "error": rt.itemError(u, si),
			})
			continue
		}
		ingested, err := ms.DecodeIngestResponse(u.Body)
		if err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
			return
		}
		total += ingested
	}
	if failedCount > 0 {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"ingested": total, "failed": failedCount, "failed_shards": failedShards,
		})
		return
	}
	ms.WriteBody(w, append(strconv.AppendInt([]byte(`{"ingested":`), int64(total), 10), "}\n"...))
}

// gatherItems splices per-shard score/decide answers back into caller
// order, substituting typed degraded envelopes for items owned by
// failed shards.
func (rt *Router) gatherItems(w http.ResponseWriter, itemsKey string, sc *batchScratch, counts []int, ups []upstream) {
	n := len(ups)
	sc.parts = slices.Grow(sc.parts[:0], n)[:n]
	sc.next, sc.failed = perShard(sc.next, n), perShard(sc.failed, n)
	degradedCount := 0
	for si, u := range ups {
		switch {
		case counts[si] == 0:
		case u.failed():
			rt.errors.Add(1)
			rt.degraded.Add(int64(counts[si]))
			degradedCount += counts[si]
			sc.failed[si] = rt.itemError(u, si)
		default:
			var err error
			sc.parts[si], err = ms.SplitItems(u.Body, itemsKey, sc.parts[si])
			if err == nil && len(sc.parts[si]) != counts[si] {
				err = fmt.Errorf("shard %d returned %d %s for %d transactions", si, len(sc.parts[si]), itemsKey, counts[si])
			}
			if err != nil {
				rt.errors.Add(1)
				writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
				return
			}
		}
	}
	// Members in the order the map-built response had them: sorted, so
	// "decisions" < "degraded" < "verdicts".
	out := append(sc.out[:0], '{')
	if degradedCount > 0 && itemsKey > "degraded" {
		out = append(strconv.AppendInt(append(out, `"degraded":`...), int64(degradedCount), 10), ',')
	}
	out = append(append(append(out, '"'), itemsKey...), `":[`...)
	for i, it := range sc.items {
		if i > 0 {
			out = append(out, ',')
		}
		si := sc.owner[i]
		if sc.failed[si] == nil {
			part := sc.parts[si][sc.next[si]]
			sc.next[si]++
			out = append(out, ups[si].Body[part.Start:part.End]...)
			continue
		}
		dv := ms.DegradedVerdict{
			TxnID: txn.TxnID(it.ID), Degraded: true, Error: sc.failed[si],
			TraceID: sc.slots[link.SlotTrace],
		}
		var item interface{} = dv
		if itemsKey == "decisions" {
			item = ms.DegradedDecision{
				DegradedVerdict: dv,
				Action:          rt.fallback,
				Reason:          "fallback: owner shard unavailable",
			}
		}
		enc, _ := json.Marshal(item)
		out = append(out, enc...)
	}
	out = append(out, ']')
	if degradedCount > 0 && itemsKey < "degraded" {
		out = strconv.AppendInt(append(out, `,"degraded":`...), int64(degradedCount), 10)
	}
	sc.out = append(out, "}\n"...)
	ms.WriteBody(w, sc.out)
}

// control handles /v1/models and /v1/policy. GET reads shard 0 (the
// fleet is swapped in lockstep, so any shard answers) and fails over in
// ring order when it cannot answer. POST replicates the swap to every
// shard in ring order with NO automatic retry — replication is
// at-most-once per shard, and a mid-ring failure leaves a mixed fleet
// with a response naming the failed shard and how far the swap got; the
// operator retries the idempotent swap until it lands everywhere, and
// /v1/stats surfaces the mix via "version_mixed".
func (rt *Router) control(w http.ResponseWriter, r *http.Request, h *link.Header) {
	var body []byte
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes)); err != nil {
			rt.readError(w, err)
			return
		}
		rt.controls.Add(1)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
		return
	}
	swap, deadline := r.Method == http.MethodPost, rt.requestBudget(h)
	var last upstream
	defer func() { last.release() }()
	for si := range rt.shards {
		last.release()
		last = rt.resilientCall(r.Context(), h, deadline, callSpec{route: link.Route(r.Method, r.URL.Path), body: body, shard: si})
		switch {
		case !swap && !last.failed():
			rt.relay(w, last)
			return
		case swap && last.err != nil:
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_unreachable",
				fmt.Sprintf("shard %d: %v (swap applied to %d of %d shards)", si, last.err, si, len(rt.shards)))
			return
		case swap && last.Status != http.StatusOK:
			rt.errors.Add(1)
			rt.relay(w, last)
			return
		}
	}
	if swap {
		rt.relay(w, last)
		return
	}
	rt.errors.Add(1)
	rt.writeFailure(w, last, len(rt.shards)-1)
}

// fanGet issues one GET of path per shard concurrently through the
// resilience plane. The caller puts the scratch back, which releases the
// answers in its ups.
func (rt *Router) fanGet(r *http.Request, h *link.Header, path string, spec callSpec) *batchScratch {
	sc := scratchPool.Get().(*batchScratch)
	sc.counts = perShard(sc.counts, len(rt.shards))
	for i := range sc.counts {
		sc.counts[i] = 1
	}
	spec.route = link.Route(http.MethodGet, path)
	rt.scatter(r.Context(), h, spec, sc, len(rt.shards))
	return sc
}

// healthz folds the fleet's readiness with quorum semantics: 200 "ok"
// when every shard answers ok, 200 "degraded" (with per-shard detail)
// while at least quorum shards are healthy — a load balancer must keep
// sending traffic to a fleet that can still serve most users — and 503
// "unavailable" only below quorum. Probes bypass the circuit breakers:
// health must report what the shard says now, not what the breaker
// remembers.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request, h *link.Header) {
	fan := rt.fanGet(r, h, "/healthz", callSpec{retryable: true, noBreaker: true})
	defer fan.put()
	ups := fan.ups
	type shardHealth struct {
		Shard   int    `json:"shard"`
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
		Error   string `json:"error,omitempty"`
	}
	out := map[string]interface{}{"shards": len(rt.shards), "quorum": rt.quorum}
	statuses := make([]shardHealth, len(ups))
	healthy := 0
	for si, u := range ups {
		sh := shardHealth{Shard: si, Status: "ok", Breaker: breakerStateName(rt.brk[si].currentState())}
		switch {
		case u.err != nil:
			sh.Status, sh.Error = "unreachable", u.err.Error()
		case u.Status != http.StatusOK:
			sh.Status = fmt.Sprintf("http_%d", u.Status)
		default:
			var body map[string]interface{}
			if err := json.Unmarshal(u.Body, &body); err != nil || body["status"] != "ok" {
				sh.Status = "degraded"
			} else {
				healthy++
				if _, ok := out["bundle_version"]; !ok {
					out["bundle_version"] = body["bundle_version"]
					if pv, ok := body["policy_version"]; ok {
						out["policy_version"] = pv
					}
				}
			}
		}
		statuses[si] = sh
	}
	out["shard_status"] = statuses
	out["healthy"] = healthy
	status := http.StatusOK
	switch {
	case healthy == len(rt.shards):
		out["status"] = "ok"
	case healthy >= rt.quorum:
		rt.errors.Add(1)
		out["status"] = "degraded"
	default:
		rt.errors.Add(1)
		out["status"] = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}
