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
	"sync/atomic"
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
	data, _ := json.Marshal(errorEnvelope{APIError{Code: "internal", Message: err.Error()}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(append(data, '\n'))
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

// CheckBearer reports whether the request carries the given bearer token,
// comparing in constant time.
func CheckBearer(r *http.Request, token string) bool {
	return subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+token)) == 1
}

// writeScoreError maps the engine's typed errors onto HTTP statuses.
func writeScoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "rate_limited", err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, ErrUserNotFound):
		writeError(w, http.StatusNotFound, "user_not_found", err.Error())
	case errors.Is(err, ErrBatchTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large", err.Error())
	case errors.Is(err, ErrStreamDisabled):
		writeError(w, http.StatusConflict, "stream_disabled", err.Error())
	case errors.Is(err, ErrPolicyDisabled):
		writeError(w, http.StatusConflict, "policy_disabled", err.Error())
	case errors.Is(err, ErrBundleInvalid):
		writeError(w, http.StatusInternalServerError, "bundle_invalid", err.Error())
	case errors.Is(err, ErrDimensionMismatch):
		writeError(w, http.StatusInternalServerError, "dimension_mismatch", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "canceled", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// callerContext tags the request context with the admission caller
// identity carried by the X-Caller header, so per-caller quotas key on
// the client's declared identity (untagged requests share "default").
func callerContext(r *http.Request) context.Context {
	if c := r.Header.Get("X-Caller"); c != "" {
		return WithCallerContext(r.Context(), c)
	}
	return r.Context()
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
	for path, op := range map[string]verb{"/v1/score": verbScore, "/v1/decide": verbDecide, "/v1/ingest": verbIngest} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, op, false) })
		mux.HandleFunc(path+"/batch", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, op, true) })
	}
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/policy", s.handlePolicy)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	h := s.traceMiddleware(mux)
	// A link's calls run through h itself: the same middleware and routes
	// as the HTTP exchange they replace, against an in-memory request.
	mux.HandleFunc(link.Path, func(w http.ResponseWriter, r *http.Request) {
		if err := s.links.Upgrade(w, r, h); err != nil {
			writeError(w, http.StatusUpgradeRequired, "upgrade_required", err.Error())
		}
	})
	return h
}

// traceMiddleware assigns every request its trace identity: a
// well-formed X-Trace-Id header is adopted (so a trace spans router →
// shard → response), anything else gets a freshly minted ID. The ID is
// stamped on the response header before the handler runs — success,
// error and degraded responses all carry it — and injected into the
// request context so the engine's span tracker can attribute stage
// timings to it.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := telemetry.ParseTraceID(r.Header.Get(telemetry.TraceHeader))
		if !ok {
			id = s.minter.Mint()
		}
		w.Header().Set(telemetry.TraceHeader, id.String())
		next.ServeHTTP(w, r.WithContext(telemetry.WithTrace(r.Context(), id)))
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

// batchBodyLimit derives a batch route's body cap from the engine's batch
// limit (clamped to the hard ceiling), keeping parse cost proportional to
// the configured batch size.
func (s *Server) batchBodyLimit() int64 {
	limit := int64(maxBatchBytes)
	if s.maxBatch > 0 {
		if l := int64(s.maxBatch)*maxTxnJSONBytes + 1024; l < limit {
			limit = l
		}
	}
	return limit
}

// serve is the one shape of the six data-plane routes: decode the body
// into pooled rows, run the engine verb over them, encode its answer.
// Nothing on the success path touches encoding/json (see wire.go).
func (s *Server) serve(w http.ResponseWriter, r *http.Request, op verb, batch bool) {
	switch op {
	case verbDecide:
		defer recordEndpoint(s.decideHist, time.Now())
	case verbIngest:
		defer recordEndpoint(s.ingestHist, time.Now())
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	if op == verbIngest && !s.checkIngestAuth(w, r) {
		return
	}
	wb := wirePool.Get().(*wireBuf)
	defer wirePool.Put(wb)
	if !s.decode(w, r, wb, op, batch) {
		return
	}
	ctx := callerContext(r)
	if msv, err := strconv.ParseInt(r.Header.Get(HeaderDeadline), 10, 64); err == nil && msv > 0 {
		d := withDeadline(ctx, time.Duration(msv)*time.Millisecond)
		defer d.release()
		ctx = d
	}
	var err error
	switch {
	case op == verbScore && batch:
		var vs []Verdict
		if vs, err = s.ScoreBatch(ctx, wb.txns); err == nil {
			err = wb.putVerdicts(vs)
		}
	case op == verbScore:
		var v Verdict
		if v, err = s.Score(ctx, &wb.txns[0]); err == nil {
			err = wb.putVerdict(&v)
		}
	case op == verbDecide && batch:
		var ds []Decision
		if ds, err = s.DecideBatch(ctx, wb.txns, wb.scenarios); err == nil {
			err = wb.putDecisions(ds)
		}
	case op == verbDecide:
		var d Decision
		if d, err = s.Decide(ctx, &wb.txns[0], wb.scenarios[0]); err == nil {
			err = wb.putDecision(&d)
		}
	default:
		// Ingest takes no context, so admission runs here: the one request
		// path that bypasses Score/Decide still honors quotas and the
		// inflight bound.
		var release func()
		if release, err = s.Admit(ctx, len(wb.txns)); err != nil {
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
	}
	var unencodable *encodeError
	switch {
	case err == nil:
		WriteBody(w, wb.out)
	case errors.As(err, &unencodable):
		writeEncodeError(w, unencodable)
	default:
		writeScoreError(w, err)
	}
}

// decode reads and decodes the request body into wb, writing the
// envelope on failure: 413 for an oversize body or batch, 400 for a
// malformed one.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, wb *wireBuf, op verb, batch bool) bool {
	limit, max := int64(maxScoreBytes), 1
	if batch {
		limit, max = s.batchBodyLimit(), s.maxBatch
		if max <= 0 {
			max = math.MaxInt
		}
	}
	err := wb.decode(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, verbFields[op], batch, max)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
	case wb.n > max:
		writeScoreError(w, batchTooLarge(wb.n, max))
	default:
		row, err := wb.scenarioError()
		if err == nil {
			return true
		}
		msg := err.Error()
		if batch {
			msg = fmt.Sprintf("transaction %d: %v", row, err)
		}
		writeError(w, http.StatusBadRequest, "bad_request", msg)
	}
	return false
}

// HeaderDeadline carries how many milliseconds the sender will wait for
// this call. A shard bounds the engine verb by it and answers 503
// "canceled" past it: on a multiplexed link no connection closes under
// an abandoned call, so the deadline is how a shard learns to stop.
const HeaderDeadline = "X-Deadline-Ms"

// deadline is that bound as a pooled context — no allocation per call,
// where context.WithTimeout makes five. Done closes at the deadline only;
// the parent's own cancellation shows through Err, which the engine polls
// between stages.
type deadline struct {
	context.Context
	at    time.Time
	done  chan struct{}
	timer *time.Timer
	fired atomic.Bool
}

var deadlinePool = sync.Pool{New: func() any {
	d := &deadline{done: make(chan struct{})}
	d.timer = time.AfterFunc(time.Hour, func() { d.fired.Store(true); close(d.done) })
	d.timer.Stop()
	return d
}}

func withDeadline(parent context.Context, after time.Duration) *deadline {
	d := deadlinePool.Get().(*deadline)
	d.Context, d.at = parent, time.Now().Add(after)
	d.timer.Reset(after)
	return d
}

// release pools d again unless it fired: a closed channel is spent.
func (d *deadline) release() {
	if d.timer.Stop() {
		d.Context = nil
		deadlinePool.Put(d)
	}
}

func (d *deadline) Deadline() (time.Time, bool) { return d.at, true }
func (d *deadline) Done() <-chan struct{}       { return d.done }
func (d *deadline) Err() error {
	if d.fired.Load() {
		return context.DeadlineExceeded
	}
	return d.Context.Err()
}

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
		if s.modelToken != "" && !CheckBearer(r, s.modelToken) {
			writeError(w, http.StatusUnauthorized, "unauthorized", "policy swap requires a valid bearer token")
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "policy_too_large", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
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

// recordEndpoint lands one request's wall time in a per-endpoint
// histogram (deferred at handler entry, so errors are measured too).
func recordEndpoint(h *telemetry.Histogram, start time.Time) {
	h.Record(time.Since(start))
}

// checkIngestAuth enforces the optional ingest bearer token, writing the
// 401 envelope on failure.
func (s *Server) checkIngestAuth(w http.ResponseWriter, r *http.Request) bool {
	if s.ingestToken != "" && !CheckBearer(r, s.ingestToken) {
		writeError(w, http.StatusUnauthorized, "unauthorized", "ingest requires a valid bearer token")
		return false
	}
	return true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.ModelInfo())
	case http.MethodPost:
		if s.modelToken != "" && !CheckBearer(r, s.modelToken) {
			writeError(w, http.StatusUnauthorized, "unauthorized", "model swap requires a valid bearer token")
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "bundle_too_large", err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
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
