// Package router is the scatter/gather tier that lifts the in-process
// shard split over the wire: a stateless daemon owning no model, no
// table and no window, only the hash ring. It fans the v1 batch routes
// out to shard servers with ms.ShardOf — the same jump hash the
// in-process engine partitions by — merges the responses in input order,
// replicates control-plane swaps (models, policy) to every shard, and
// folds the fleet's stats and health into single bodies.
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
	// HeaderIdempotencyKey opts an ingest request into retries: the
	// caller asserts replays are safe to deduplicate on its side.
	HeaderIdempotencyKey = "X-Idempotency-Key"
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
	for i, s := range cleaned {
		if _, err := url.Parse(s); err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
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

// Handler returns the router's mux: the shard servers' v1 surface, one
// hop up.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score", rt.single)
	mux.HandleFunc("/v1/decide", rt.single)
	mux.HandleFunc("/v1/ingest", rt.single)
	mux.HandleFunc("/v1/score/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "verdicts")
	})
	mux.HandleFunc("/v1/decide/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "decisions")
	})
	mux.HandleFunc("/v1/ingest/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.batch(w, r, "")
	})
	mux.HandleFunc("/v1/models", rt.control)
	mux.HandleFunc("/v1/policy", rt.control)
	mux.HandleFunc("/v1/stats", rt.stats)
	mux.HandleFunc("/v1/debug/trace", rt.debugTrace)
	mux.HandleFunc("/metrics", rt.metrics)
	mux.HandleFunc("/healthz", rt.healthz)
	return rt.traceMiddleware(mux)
}

// traceMiddleware adopts the caller's X-Trace-Id (minting one when the
// header is absent or malformed), echoes it on the response, rewrites it
// onto the inbound request so forwardHeaders propagates one consistent
// ID to every shard attempt, and carries it in the request context for
// span observation.
func (rt *Router) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader))
		if !ok {
			id = rt.minter.Mint()
		}
		hex := id.String()
		w.Header().Set(telemetry.TraceHeader, hex)
		r.Header.Set(telemetry.TraceHeader, hex)
		next.ServeHTTP(w, r.WithContext(telemetry.WithTrace(r.Context(), id)))
	})
}

// ListenAndServe serves the router on addr with the shard servers'
// graceful-shutdown contract.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	return ms.ListenAndServe(ctx, addr, rt.Handler(), nil)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := map[string]string{"code": code, "message": msg}
	// The trace middleware stamps X-Trace-Id on the response header
	// before any handler runs; fold it into the envelope so error bodies
	// are greppable even when the caller dropped the headers.
	if id := w.Header().Get(telemetry.TraceHeader); id != "" {
		e["trace_id"] = id
	}
	_ = json.NewEncoder(w).Encode(map[string]interface{}{"error": e})
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// forwardHeaders fills the call slots shard servers act on from the
// request's headers.
// X-Caller rides through so per-caller admission quotas hold across the
// wire tier; X-Idempotency-Key rides through so shards (and the retry
// classifier) see the caller's dedup assertion; X-Trace-Id (rewritten by
// the trace middleware to the adopted-or-minted ID) rides through so one
// trace names a verdict's whole path across tiers — retries and hedge
// legs included, since every attempt copies from the same source
// request. X-Deadline-Ms is NOT copied — the router re-derives it per
// attempt from the remaining budget.
func forwardHeaders(h *link.Header, src *http.Request) {
	for _, i := range [...]int{link.SlotContentType, link.SlotAuthorization, link.SlotCaller, link.SlotIdempotencyKey, link.SlotTrace} {
		if v := src.Header[link.Headers[i]]; len(v) > 0 {
			h[i] = v[0]
		}
	}
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

func releaseAll(ups []upstream) {
	for _, u := range ups {
		u.release()
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

// attempt issues one call for spec through the caller seam, bounded by
// the smaller of the per-try timeout and the remaining deadline budget,
// propagating the remainder downstream as X-Deadline-Ms. The call's
// record comes from a pool and its body is written straight into its
// frame; a failure is quoted as the *url.Error an HTTP client reports.
func (rt *Router) attempt(ctx context.Context, src *http.Request, deadline time.Time, spec *callSpec) upstream {
	rem := deadline.Sub(rt.now())
	if rem <= 0 {
		return upstream{err: errBudgetExhausted}
	}
	per, perMs, clamped := rt.perTry, rt.perTryMs, false
	if per <= 0 || rem < per {
		per, perMs, clamped = rem, strconv.FormatInt(rem.Milliseconds(), 10), true
	}
	c := link.NewCall(spec.shard, spec.route)
	forwardHeaders(&c.Header, src)
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
func (rt *Router) requestBudget(r *http.Request) time.Time {
	budget := rt.budget
	if h := r.Header.Get(HeaderDeadline); h != "" {
		if msv, err := strconv.ParseInt(h, 10, 64); err == nil && msv > 0 {
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

// single forwards a one-transaction request (score/decide/ingest) whole
// to the sender's owner shard. Score and decide are idempotent reads:
// they retry, and hedge when enabled. Ingest is at-most-once — one
// attempt, no retry — unless the caller opts in with X-Idempotency-Key.
// A decide that cannot be served still answers 200, carrying the
// fail-closed fallback action and a degraded marker.
func (rt *Router) single(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	// The body is not pooled: a cancelled hedge leg's transport may still
	// be reading it after this handler has returned.
	body, err := ms.ReadBody(nil, http.MaxBytesReader(w, r.Body, maxSingleBytes), r.ContentLength)
	if err != nil {
		rt.readError(w, err)
		return
	}
	id, from, err := ms.PeekTxn(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.singles.Add(1)
	start := rt.now()
	var spans telemetry.Spans
	spec := callSpec{route: link.Route(http.MethodPost, r.URL.Path), body: body, shard: rt.ownerShard(txn.UserID(from)), spans: &spans}
	defer func() { rt.observe(r, spec.route, rt.now().Sub(start), &spans) }()
	switch r.URL.Path {
	case "/v1/ingest":
		spec.retryable = r.Header.Get(HeaderIdempotencyKey) != ""
	default: // score, decide
		spec.retryable, spec.hedged = true, true
	}
	rstart := rt.now()
	u := rt.hedgedCall(r.Context(), r, rt.requestBudget(r), spec)
	defer u.release()
	spans[telemetry.StageRoute] = rt.now().Sub(rstart)
	if !u.failed() {
		rt.relay(w, u)
		return
	}
	rt.errors.Add(1)
	if r.URL.Path == "/v1/decide" {
		rt.degraded.Add(1)
		writeJSON(w, http.StatusOK, ms.DegradedDecision{
			DegradedVerdict: ms.DegradedVerdict{
				TxnID:    txn.TxnID(id),
				Degraded: true,
				Error:    rt.itemError(u, spec.shard),
				TraceID:  w.Header().Get(telemetry.TraceHeader),
			},
			Action: rt.fallback,
			Reason: "fallback: owner shard unavailable",
		})
		return
	}
	rt.writeFailure(w, u, spec.shard)
}

// observe folds one request's spans into its route's track under the
// request's trace ID.
func (rt *Router) observe(r *http.Request, route int, total time.Duration, spans *telemetry.Spans) {
	id, _ := telemetry.TraceFrom(r.Context())
	rt.tracks[route].Observe(id, total, spans)
}

func (rt *Router) readError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// batchScratch is one batch request's working set, pooled: the inbound
// body, where its transactions lie and who owns them, where each shard's
// answers lie, and the spliced response. It goes back to the pool when
// the handler returns, after the last scatter call has: every attempt
// writes its sub-batch out of body into its own call record before it
// returns, so no transport reads the scratch late.
type batchScratch struct {
	body   []byte
	items  []ms.WireItem   // the request's transactions, in input order
	owner  []int           // owner shard of each
	parts  [][]ms.WireItem // per shard: the items of its answer
	next   []int           // per shard: how many of them are spliced
	failed []*ms.ItemError // per shard: why its items degrade, nil if they don't
	out    []byte
	// Per shard: item count, answer, and the scatter goroutine's span
	// buffer.
	counts    []int
	ups       []upstream
	callSpans []telemetry.Spans
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

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

const subBatchOpen = `{"transactions":[`

// batch scatters a batch route across owner shards and gathers the
// responses in input order. itemsKey names the response array to merge
// ("verdicts", "decisions"); "" merges ingest {"ingested": n} counts.
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
func (rt *Router) batch(w http.ResponseWriter, r *http.Request, itemsKey string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	var err error
	if sc.body, err = ms.ReadBody(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBatchBytes), r.ContentLength); err != nil {
		rt.readError(w, err)
		return
	}
	if sc.items, err = ms.SplitTransactions(sc.body, sc.items); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	rt.batches.Add(1)
	start := rt.now()
	var spans telemetry.Spans
	route := link.Route(http.MethodPost, r.URL.Path)
	defer func() { rt.observe(r, route, rt.now().Sub(start), &spans) }()

	n := len(rt.shards)
	sc.counts, sc.ups, sc.callSpans = perShard(sc.counts, n), perShard(sc.ups, n), perShard(sc.callSpans, n)
	counts, ups, callSpans := sc.counts, sc.ups, sc.callSpans
	sc.owner = sc.owner[:0]
	for _, it := range sc.items {
		si := ms.ShardOf(txn.UserID(it.From), n)
		sc.owner = append(sc.owner, si)
		counts[si]++
	}

	ctx, deadline := r.Context(), rt.requestBudget(r)
	retryable := itemsKey != "" || r.Header.Get(HeaderIdempotencyKey) != ""
	var wg sync.WaitGroup
	scatterStart := rt.now()
	for si := range counts {
		if counts[si] == 0 {
			continue
		}
		wg.Add(1)
		rt.fanouts.Add(1)
		go func() {
			defer wg.Done()
			ups[si] = rt.resilientCall(ctx, r, deadline, callSpec{
				route: route, sub: sc, shard: si, retryable: retryable, spans: &callSpans[si],
			})
		}()
	}
	wg.Wait()
	// The answers stay in their call records until the response is written.
	defer releaseAll(ups)
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
			TraceID: w.Header().Get(telemetry.TraceHeader),
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
func (rt *Router) control(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		deadline := rt.requestBudget(r)
		var last upstream
		defer func() { last.release() }()
		for si := range rt.shards {
			last.release()
			last = rt.resilientCall(r.Context(), r, deadline, callSpec{
				route: link.Route(http.MethodGet, r.URL.Path), shard: si,
			})
			if !last.failed() {
				rt.relay(w, last)
				return
			}
		}
		rt.errors.Add(1)
		rt.writeFailure(w, last, len(rt.shards)-1)
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
		if err != nil {
			rt.readError(w, err)
			return
		}
		rt.controls.Add(1)
		deadline := rt.requestBudget(r)
		var last upstream
		defer func() { last.release() }()
		for si := range rt.shards {
			last.release()
			u := rt.resilientCall(r.Context(), r, deadline, callSpec{
				route: link.Route(http.MethodPost, r.URL.Path), body: body, shard: si,
			})
			last = u
			if u.err != nil || u.Status != http.StatusOK {
				rt.errors.Add(1)
				if u.err != nil {
					writeError(w, http.StatusBadGateway, "shard_unreachable",
						fmt.Sprintf("shard %d: %v (swap applied to %d of %d shards)", si, u.err, si, len(rt.shards)))
					return
				}
				rt.relay(w, u)
				return
			}
		}
		rt.relay(w, last)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

// fanGet issues one GET per shard concurrently through the resilience
// plane. The caller releases the answers.
func (rt *Router) fanGet(r *http.Request, path string, spec callSpec) []upstream {
	deadline := rt.requestBudget(r)
	ups := make([]upstream, len(rt.shards))
	var wg sync.WaitGroup
	for si := range rt.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := spec
			s.route, s.shard = link.Route(http.MethodGet, path), si
			ups[si] = rt.resilientCall(r.Context(), r, deadline, s)
		}(si)
	}
	wg.Wait()
	return ups
}

// healthz folds the fleet's readiness with quorum semantics: 200 "ok"
// when every shard answers ok, 200 "degraded" (with per-shard detail)
// while at least quorum shards are healthy — a load balancer must keep
// sending traffic to a fleet that can still serve most users — and 503
// "unavailable" only below quorum. Probes bypass the circuit breakers:
// health must report what the shard says now, not what the breaker
// remembers.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	ups := rt.fanGet(r, "/healthz", callSpec{retryable: true, noBreaker: true})
	defer releaseAll(ups)
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
