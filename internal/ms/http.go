package ms

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"titant/internal/decision"
	"titant/internal/link"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Request-body bounds: oversized payloads are rejected before they are
// buffered or parsed.
const (
	maxBundleBytes = 64 << 20 // POST /v1/models
	maxScoreBytes  = 1 << 20  // POST /v1/score
	maxBatchBytes  = 64 << 20 // POST /v1/score/batch hard ceiling
	maxPolicyBytes = 1 << 20  // POST /v1/policy
	// maxTxnJSONBytes generously bounds one transaction's wire size; the
	// batch body cap derives from it (clamped to maxBatchBytes) to keep
	// the parse cost proportional to the configured batch limit.
	maxTxnJSONBytes = 512
)

// TxnRequest is the JSON wire format of a scoring request.
type TxnRequest struct {
	ID         int64   `json:"id"`
	Day        int     `json:"day"`
	Sec        int32   `json:"sec"`
	From       int32   `json:"from"`
	To         int32   `json:"to"`
	Amount     float32 `json:"amount"`
	TransCity  uint16  `json:"trans_city"`
	DeviceRisk float32 `json:"device_risk"`
	IPRisk     float32 `json:"ip_risk"`
	Channel    uint8   `json:"channel"`
}

// Txn converts the wire format to the internal record.
func (r *TxnRequest) Txn() txn.Transaction {
	return txn.Transaction{
		ID: txn.TxnID(r.ID), Day: txn.Day(r.Day), Sec: r.Sec,
		From: txn.UserID(r.From), To: txn.UserID(r.To),
		Amount: r.Amount, TransCity: r.TransCity,
		DeviceRisk: r.DeviceRisk, IPRisk: r.IPRisk,
		Channel: txn.Channel(r.Channel),
	}
}

// BatchRequest is the wire format of POST /v1/score/batch.
type BatchRequest struct {
	Transactions []TxnRequest `json:"transactions"`
}

// IngestRequest is the wire format of POST /v1/ingest: a transaction plus
// its fraud label, if known. Completed transfers are ingested unlabelled
// as they happen; when a delayed fraud report arrives (days later, per
// the paper), the transaction is re-sent with fraud=true so the window's
// city fraud rates incorporate it.
type IngestRequest struct {
	TxnRequest
	Fraud bool `json:"fraud"`
}

// Txn converts the wire format to the internal record, label included.
func (r *IngestRequest) Txn() txn.Transaction {
	t := r.TxnRequest.Txn()
	t.Fraud = r.Fraud
	return t
}

// IngestBatchRequest is the wire format of POST /v1/ingest/batch.
type IngestBatchRequest struct {
	Transactions []IngestRequest `json:"transactions"`
}

// IngestResponse reports how many transactions an ingest call submitted
// to the live window. The window itself may still shed a submission as
// out-of-window (too old, or an uncorroborated far-future timestamp);
// those show up in the store's Dropped counter, not as request errors.
type IngestResponse struct {
	Ingested int `json:"ingested"`
}

// BatchResponse carries the batch verdicts in request order.
type BatchResponse struct {
	Verdicts []Verdict `json:"verdicts"`
}

// APIError is the JSON error envelope body of every non-2xx v1 response:
// {"error": {"code": "...", "message": "...", "trace_id": "..."}}. The
// trace ID ties the error to its request trace; it is present whenever
// the request passed through the trace middleware (all HTTP serving).
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// writeJSON marshals before touching the response so an unencodable value
// (e.g. a bundle whose threshold froze to +Inf on degenerate training
// data) yields a 500 envelope rather than a silent empty 200.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		writeEncodeError(w, &encodeError{err})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// writeEncodeError answers 500 for a response value JSON cannot carry.
func writeEncodeError(w http.ResponseWriter, err *encodeError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(envelope(nil, "internal", err.Error(), ""))
}

// writeError writes the error envelope, folding in the request's trace
// ID from the response header the trace middleware stamped — so the
// body of every error names the trace to grep for, without threading
// the ID through each handler.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{APIError{
		Code: code, Message: msg,
		TraceID: w.Header().Get(telemetry.TraceHeader),
	}})
}

// checkBearer reports whether an Authorization value carries the given
// bearer token, comparing in constant time.
func checkBearer(auth, token string) bool {
	return subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+token)) == 1
}

// scoreError maps the engine's typed errors onto HTTP statuses, envelope
// codes and a Retry-After.
func scoreError(err error) (status int, code, retryAfter string) {
	switch {
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests, "rate_limited", "1"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded", "1"
	case errors.Is(err, ErrUserNotFound):
		return http.StatusNotFound, "user_not_found", ""
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge, "batch_too_large", ""
	case errors.Is(err, ErrStreamDisabled):
		return http.StatusConflict, "stream_disabled", ""
	case errors.Is(err, ErrPolicyDisabled):
		return http.StatusConflict, "policy_disabled", ""
	case errors.Is(err, ErrBundleInvalid):
		return http.StatusInternalServerError, "bundle_invalid", ""
	case errors.Is(err, ErrDimensionMismatch):
		return http.StatusInternalServerError, "dimension_mismatch", ""
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "canceled", ""
	}
	return http.StatusInternalServerError, "internal", ""
}

// Handler returns the v1 HTTP mux:
//
//	POST /v1/score         score one transaction
//	POST /v1/score/batch   score a batch in order
//	POST /v1/decide        score + policy decision for one transaction
//	POST /v1/decide/batch  decide a batch in order
//	POST /v1/ingest        feed one observed transaction into the live window
//	POST /v1/ingest/batch  feed a batch into the live window
//	GET  /v1/models        active bundle metadata
//	POST /v1/models        hot-swap an encoded bundle
//	GET  /v1/policy        active decision-policy document
//	POST /v1/policy        hot-swap a JSON policy document
//	GET  /v1/stats         latency, decision, shadow and drift stats
//	GET  /healthz          readiness: versions + subsystem enablement
//	GET  /v1/link          Upgrade: the router's multiplexed shard link (internal/link)
//
// The ingest routes answer 409 stream_disabled on an engine built without
// WithStreamAggregates and can be guarded with WithIngestToken; the
// decide routes answer 409 policy_disabled without WithPolicy, and
// POST /v1/policy shares WithModelToken's guard with POST /v1/models (a
// policy swap changes live risk decisions exactly as a model swap does).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for route := range link.DataRoutes {
		mux.HandleFunc(link.Routes[route].Path, func(w http.ResponseWriter, r *http.Request) { s.serveHTTP(w, r, route) })
	}
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/policy", s.handlePolicy)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// A link's calls go to the same core as the six data-plane routes.
	mux.HandleFunc(link.Path, func(w http.ResponseWriter, r *http.Request) {
		if err := s.links.Upgrade(w, r, s.serveCall); err != nil {
			writeError(w, http.StatusUpgradeRequired, "upgrade_required", err.Error())
		}
	})
	return s.traceMiddleware(mux)
}

// traceMiddleware assigns every request its trace identity: a
// well-formed X-Trace-Id header is adopted (so a trace spans router →
// shard → response), anything else gets a freshly minted ID. The ID is
// stamped on the response header before the handler runs, so success,
// error and degraded responses all carry it; the data-plane routes read
// it back from there into the call's trace slot.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()[telemetry.TraceHeader] = []string{s.minter.Adopt(r.Header.Get(telemetry.TraceHeader))}
		next.ServeHTTP(w, r)
	})
}

// handleMetrics serves the Prometheus text exposition (format 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.MetricsBody())
}

// handleDebugTrace serves the stage-timing and slow-exemplar dump.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.TraceBody())
}

// verb is one data-plane operation; every verb has a single-transaction
// route and a batch route.
type verb uint8

const (
	verbScore verb = iota
	verbDecide
	verbIngest
)

// verbFields are the members each verb's request rows carry beyond the
// transaction's own.
var verbFields = [...]wireField{verbScore: txnFields, verbDecide: txnFields | fieldScenario, verbIngest: txnFields | fieldFraud}

// bodyLimit is a data-plane route's body cap: one transaction's worth for
// a single route; for a batch route it derives from the engine's batch
// limit (clamped to the hard ceiling), keeping parse cost proportional to
// the configured batch size.
func (s *Server) bodyLimit(batch bool) int64 {
	if !batch {
		return maxScoreBytes
	}
	limit := int64(maxBatchBytes)
	if s.maxBatch > 0 {
		if l := int64(s.maxBatch)*maxTxnJSONBytes + 1024; l < limit {
			limit = l
		}
	}
	return limit
}

// httpBody is one data-plane HTTP exchange's pooled buffers: the request
// body and the answer.
type httpBody struct{ in, out []byte }

var httpBodies = sync.Pool{New: func() any { return new(httpBody) }}

var errNotPost = errors.New("POST only")

// serveHTTP is a data-plane route over HTTP: the slots taken from the
// headers, the body read under its cap, then the core.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request, route int) {
	hb := httpBodies.Get().(*httpBody)
	defer httpBodies.Put(hb)
	var h link.Header
	for i, name := range link.Headers {
		if v := r.Header[name]; len(v) > 0 {
			h[i] = v[0]
		}
	}
	// The trace middleware adopted or minted the call's trace.
	h[link.SlotTrace] = w.Header().Get(telemetry.TraceHeader)
	readErr := errNotPost
	if r.Method == http.MethodPost {
		hb.in, readErr = ReadBody(hb.in[:0], http.MaxBytesReader(w, r.Body, s.bodyLimit(route%2 == 1)), r.ContentLength)
	}
	status, ans, out := s.answer(r.Context(), route, &h, hb.in, readErr, hb.out[:0])
	if hb.out = out; status == http.StatusOK {
		WriteBody(w, out)
		return
	}
	if ra := ans[link.SlotRetryAfter]; ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// serveCall is the data-plane core as a link hands it a call.
func (s *Server) serveCall(ctx context.Context, route int, h *link.Header, body, out []byte) (int, link.Header, []byte) {
	return s.answer(ctx, route, h, body, nil, out)
}

// answer is the one shape of the six data-plane routes on either wire:
// adopt the call's trace, decode the body into pooled rows, run the
// engine verb over them under the call's deadline, append the answer to
// out. readErr is why an HTTP body could not be read. Nothing on the
// success path touches encoding/json (see wire.go).
func (s *Server) answer(parent context.Context, route int, h *link.Header, body []byte, readErr error, out []byte) (status int, ans link.Header, reply []byte) {
	// link.Routes lists each verb's single route, then its batch route, in
	// verb order.
	op, batch := verb(route/2), route%2 == 1
	switch op {
	case verbDecide:
		defer recordEndpoint(s.decideHist, time.Now())
	case verbIngest:
		defer recordEndpoint(s.ingestHist, time.Now())
	}
	trace, ok := telemetry.ParseTraceID(h[link.SlotTrace])
	ans[link.SlotContentType], ans[link.SlotTrace] = link.JSON, h[link.SlotTrace]
	if !ok {
		trace = s.minter.Mint()
		ans[link.SlotTrace] = trace.String()
	}
	limit, max := s.bodyLimit(batch), 1
	if batch {
		if max = s.maxBatch; max <= 0 {
			max = math.MaxInt
		}
	}
	switch {
	case readErr == errNotPost:
		return failed(ans, out, http.StatusMethodNotAllowed, "method_not_allowed", readErr.Error())
	case op == verbIngest && s.ingestToken != "" && !checkBearer(h[link.SlotAuthorization], s.ingestToken):
		return failed(ans, out, http.StatusUnauthorized, "unauthorized", "ingest requires a valid bearer token")
	case readErr != nil && tooBig(readErr):
		return failed(ans, out, http.StatusRequestEntityTooLarge, "body_too_large", readErr.Error())
	case readErr != nil:
		return failed(ans, out, http.StatusBadRequest, "bad_request", "malformed JSON: "+readErr.Error())
	case int64(len(body)) > limit:
		return failed(ans, out, http.StatusRequestEntityTooLarge, "body_too_large", (&http.MaxBytesError{Limit: limit}).Error())
	}
	wb := wirePool.Get().(*wireBuf)
	defer wb.release()
	if err := wb.decode(body, verbFields[op], batch, max); err != nil {
		return failed(ans, out, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
	}
	if wb.n > max {
		return failedVerb(ans, out, batchTooLarge(wb.n, max))
	}
	if row, err := wb.scenarioError(); err != nil {
		msg := err.Error()
		if batch {
			msg = fmt.Sprintf("transaction %d: %v", row, err)
		}
		return failed(ans, out, http.StatusBadRequest, "bad_request", msg)
	}
	ctx := parent
	if c := h[link.SlotCaller]; c != "" {
		ctx = WithCallerContext(ctx, c)
	}
	var after time.Duration
	if msv, err := strconv.ParseInt(h[link.SlotDeadline], 10, 64); err == nil && msv > 0 {
		after = time.Duration(msv) * time.Millisecond
	}
	d := telemetry.WithDeadline(ctx, after, trace)
	defer d.Release()
	if key := h[link.SlotIdempotencyKey]; op == verbIngest && key != "" {
		e, first, err := s.idem.claim(d, key)
		switch {
		case err != nil:
			return failedVerb(ans, out, err)
		case !first:
			return e.status, ans, append(out, e.body...)
		}
		defer func() { s.idem.settle(e, status, reply) }()
	}
	wb.out = out
	var err error
	switch decide := op == verbDecide; {
	case op == verbIngest:
		// Ingest takes no context, so admission runs here: the one request
		// path that bypasses the scoring cores still honors quotas and the
		// inflight bound.
		var release func()
		if release, err = s.Admit(d, len(wb.txns)); err != nil {
			break
		}
		defer release()
		if batch {
			err = s.IngestBatch(wb.txns)
		} else {
			err = s.Ingest(&wb.txns[0])
		}
		if err == nil {
			err = wb.putIngested(len(wb.txns))
		}
	case batch:
		// The core leaves its results in wb (none for an empty batch) for
		// the encoder, which reads them before release.
		if err = s.batch(d, wb.txns, decide, wb.scenarios, &wb.results); err == nil && decide {
			err = wb.putDecisions(wb.decisions[:len(wb.txns)])
		} else if err == nil {
			err = wb.putVerdicts(wb.verdicts[:len(wb.txns)])
		}
	default:
		var dc Decision
		if dc, err = s.one(d, &wb.txns[0], decide, wb.scenarios[0]); err == nil && decide {
			err = wb.putDecision(&dc)
		} else if err == nil {
			err = wb.putVerdict(&dc.Verdict)
		}
	}
	if err != nil {
		return failedVerb(ans, out, err)
	}
	return http.StatusOK, ans, wb.out
}

// envelope appends the error envelope; trace "" leaves trace_id out.
func envelope(out []byte, code, msg, trace string) []byte {
	data, _ := json.Marshal(errorEnvelope{APIError{Code: code, Message: msg, TraceID: trace}})
	return append(append(out, data...), '\n')
}

// failed answers the error envelope, naming the answer's trace.
func failed(ans link.Header, out []byte, status int, code, msg string) (int, link.Header, []byte) {
	return status, ans, envelope(out, code, msg, ans[link.SlotTrace])
}

// tooBig reports a body read past its cap.
func tooBig(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

// failedVerb answers an engine error (see scoreError) or an answer the
// encoders cannot represent.
func failedVerb(ans link.Header, out []byte, err error) (int, link.Header, []byte) {
	var unencodable *encodeError
	if errors.As(err, &unencodable) {
		return http.StatusInternalServerError, ans, envelope(out, "internal", unencodable.Error(), "")
	}
	status, code, retryAfter := scoreError(err)
	ans[link.SlotRetryAfter] = retryAfter
	return failed(ans, out, status, code, err.Error())
}

// HeaderDeadline carries how many milliseconds the sender will wait for
// this call. A shard bounds the engine verb by it and answers 503
// "canceled" past it: on a multiplexed link no connection closes under
// an abandoned call, so the deadline is how a shard learns to stop.
const HeaderDeadline = "X-Deadline-Ms"

// DecideRequest is the wire format of POST /v1/decide: a transaction
// plus the scenario it arrived under (omitted or empty = default).
type DecideRequest struct {
	TxnRequest
	Scenario string `json:"scenario,omitempty"`
}

// DecideBatchRequest is the wire format of POST /v1/decide/batch.
type DecideBatchRequest struct {
	Transactions []DecideRequest `json:"transactions"`
}

// DecideBatchResponse carries the batch decisions in request order.
type DecideBatchResponse struct {
	Decisions []Decision `json:"decisions"`
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		pol := s.currentPolicy()
		if pol == nil {
			writeError(w, http.StatusNotFound, "policy_disabled", ErrPolicyDisabled.Error())
			return
		}
		raw, err := pol.Encode()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(append(raw, '\n'))
	case http.MethodPost:
		// Same guard as POST /v1/models: a policy swap changes live risk
		// decisions exactly as a model swap does.
		raw, ok := s.swapBody(w, r, maxPolicyBytes, "policy", "policy")
		if !ok {
			return
		}
		pol, err := decision.Parse(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "policy_invalid", err.Error())
			return
		}
		if err := s.SetPolicy(pol); err != nil {
			// Replace-only: decisioning cannot be switched on over the
			// wire when the operator left it off.
			if errors.Is(err, ErrPolicyDisabled) {
				writeError(w, http.StatusConflict, "policy_disabled", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "policy_invalid", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, s.PolicyInfo())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

// swapBody reads a model or policy swap's body under its cap, behind the
// model token; on false the envelope is written.
func (s *Server) swapBody(w http.ResponseWriter, r *http.Request, limit int64, what, tooLarge string) ([]byte, bool) {
	if s.modelToken != "" && !checkBearer(r.Header.Get("Authorization"), s.modelToken) {
		writeError(w, http.StatusUnauthorized, "unauthorized", what+" swap requires a valid bearer token")
		return nil, false
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	switch {
	case tooBig(err):
		writeError(w, http.StatusRequestEntityTooLarge, tooLarge+"_too_large", err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	default:
		return raw, true
	}
	return nil, false
}

// recordEndpoint lands one request's wall time in a per-endpoint
// histogram (deferred at handler entry, so errors are measured too).
func recordEndpoint(h *telemetry.Histogram, start time.Time) {
	h.Record(time.Since(start))
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.ModelInfo())
	case http.MethodPost:
		raw, ok := s.swapBody(w, r, maxBundleBytes, "model", "bundle")
		if !ok {
			return
		}
		b, err := DecodeBundle(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bundle_invalid", err.Error())
			return
		}
		if err := s.SetBundle(b); err != nil {
			writeError(w, http.StatusBadRequest, "bundle_invalid", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, s.ModelInfo())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST only")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// HealthInfo is the GET /healthz readiness body: which bundle and policy
// versions are live and which serving subsystems are enabled, so a
// deployment controller can verify a daemon actually carries the
// configuration it was rolled out with instead of trusting a bare 200.
type HealthInfo struct {
	Status        string `json:"status"`
	BundleVersion string `json:"bundle_version"`
	PolicyVersion string `json:"policy_version,omitempty"`
	Stream        bool   `json:"stream"`
	Admission     bool   `json:"admission"`
	UserCache     bool   `json:"user_cache"`
	Policy        bool   `json:"policy"`
	Shadow        bool   `json:"shadow"`
	Drift         bool   `json:"drift"`
	DriftAlert    bool   `json:"drift_alert,omitempty"`
	EventLog      bool   `json:"event_log"`
	Replayed      int64  `json:"replayed,omitempty"`
	Shards        int    `json:"shards,omitempty"` // feature-store width, when partitioned
}

// Health snapshots the readiness view served by GET /healthz.
func (s *Server) Health() HealthInfo {
	h := HealthInfo{
		Status:        "ok",
		BundleVersion: s.BundleVersion(),
		PolicyVersion: s.PolicyVersion(),
		Stream:        s.StreamEnabled(),
		Admission:     s.AdmissionEnabled(),
		UserCache:     s.cache != nil,
		Policy:        s.PolicyEnabled(),
		Shadow:        s.shadow != nil,
		Drift:         s.drift.Load() != nil,
		DriftAlert:    s.DriftAlerted(),
		EventLog:      s.elog != nil,
		Replayed:      s.EventLogReplayed(),
	}
	if n := len(s.tables); n > 1 {
		h.Shards = n
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// HEAD stays allowed: load balancers commonly probe liveness with it
	// (net/http suppresses the body automatically).
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Health())
}

// ListenAndServe serves the v1 API on addr until ctx is cancelled, then
// shuts down gracefully, draining in-flight requests and link calls for
// up to five seconds. It returns nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return ListenAndServe(ctx, addr, s.Handler(), s.links.Shutdown)
}

// ListenAndServe serves handler on addr with the same graceful-shutdown
// contract as Server.ListenAndServe. drain, when not nil, runs inside the
// shutdown budget after the HTTP server has drained: http.Server.Shutdown
// does not know the connections a handler hijacked.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, drain func(context.Context)) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := hs.Shutdown(sctx)
		if drain != nil {
			drain(sctx)
		}
		// Surface a startup failure (e.g. address already in use) that
		// raced the cancellation instead of reporting a clean shutdown.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return serr
	}
}
