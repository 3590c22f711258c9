package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"titant/internal/decision"
	"titant/internal/ms"
	"titant/internal/txn"
)

// ErrShed is the typed refusal a target reports when the server sheds a
// request (quota or overload, HTTP 429). The runner counts sheds
// separately from errors: under an overload schedule sheds are the
// admission control working, not the engine failing.
var ErrShed = errors.New("loadgen: request shed")

// ErrDegraded is the typed outcome for a request the wire tier answered
// with a degraded envelope instead of a real verdict: a router whose
// owner shard was unavailable (typed shard_unavailable / deadline
// errors, or a decide fallback action). The runner counts these apart
// from errors — during a chaos run they are the resilience plane
// degrading by design, and the count is what the chaos gate asserts on.
var ErrDegraded = errors.New("loadgen: degraded verdict")

// Target is one way to reach a scoring engine. Do performs op on t,
// reporting whether the engine flagged the transaction (a fraud verdict,
// or any decide action other than approve); flagged is meaningless for
// ingest ops. Implementations must be safe for concurrent use.
type Target interface {
	Do(ctx context.Context, op Op, t *txn.Transaction, scenario decision.Scenario) (flagged bool, err error)
}

// EngineTarget drives an in-process engine directly: the driver and the
// engine share one address space, so the harness measures the serving
// core without network or JSON overhead.
type EngineTarget struct {
	Server *ms.Server
}

// Do satisfies Target.
func (e *EngineTarget) Do(ctx context.Context, op Op, t *txn.Transaction, sc decision.Scenario) (bool, error) {
	switch op {
	case OpScore:
		v, err := e.Server.Score(ctx, t)
		return v.Fraud, shedErr(err)
	case OpDecide:
		d, err := e.Server.Decide(ctx, t, sc)
		return err == nil && d.Action != decision.ActionApprove, shedErr(err)
	case OpIngest:
		// Ingest takes no context, so the driver admits explicitly —
		// exactly what the HTTP ingest handler does.
		release, err := e.Server.Admit(ctx, 1)
		if err != nil {
			return false, shedErr(err)
		}
		defer release()
		return false, shedErr(e.Server.Ingest(t))
	}
	return false, fmt.Errorf("loadgen: unknown op %d", op)
}

// shedErr folds the engine's admission refusals into ErrShed.
func shedErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ms.ErrRateLimited) || errors.Is(err, ms.ErrOverloaded) {
		return fmt.Errorf("%w: %v", ErrShed, err)
	}
	return err
}

// HTTPTarget drives a live server over the v1 JSON API, measuring the
// full serving stack as a client sees it.
type HTTPTarget struct {
	BaseURL string       // e.g. "http://localhost:8080"
	Caller  string       // X-Caller identity; empty omits the header
	Client  *http.Client // nil uses http.DefaultClient

	// TraceSink, when set, receives every response's X-Trace-Id with the
	// request's HTTP round-trip time. The runner wires this to the trace
	// sampler when Config.TraceSample > 0; set it before Run starts — it
	// is read concurrently afterwards.
	TraceSink func(traceID string, d time.Duration)
}

// SetTraceSink installs the trace sink (the seam Run uses, so callers
// composing their own Target wrappers can forward it).
func (h *HTTPTarget) SetTraceSink(fn func(traceID string, d time.Duration)) {
	h.TraceSink = fn
}

func (h *HTTPTarget) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// wireTxn converts a transaction to the v1 request shape (ingest adds
// the label field).
func wireTxn(t *txn.Transaction) ms.TxnRequest {
	return ms.TxnRequest{
		ID: int64(t.ID), Day: int(t.Day), Sec: t.Sec,
		From: int32(t.From), To: int32(t.To),
		Amount: t.Amount, TransCity: t.TransCity,
		DeviceRisk: t.DeviceRisk, IPRisk: t.IPRisk,
		Channel: uint8(t.Channel),
	}
}

// Do satisfies Target.
func (h *HTTPTarget) Do(ctx context.Context, op Op, t *txn.Transaction, sc decision.Scenario) (bool, error) {
	var path string
	var body interface{}
	switch op {
	case OpScore:
		path, body = "/v1/score", wireTxn(t)
	case OpDecide:
		path = "/v1/decide"
		body = struct {
			ms.TxnRequest
			Scenario string `json:"scenario,omitempty"`
		}{wireTxn(t), sc.String()}
	case OpIngest:
		path = "/v1/ingest"
		body = struct {
			ms.TxnRequest
			Fraud bool `json:"fraud"`
		}{wireTxn(t), t.Fraud}
	default:
		return false, fmt.Errorf("loadgen: unknown op %d", op)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.BaseURL+path, bytes.NewReader(raw))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if h.Caller != "" {
		req.Header.Set("X-Caller", h.Caller)
	}
	rtStart := time.Now()
	resp, err := h.client().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if h.TraceSink != nil {
		h.TraceSink(resp.Header.Get("X-Trace-Id"), time.Since(rtStart))
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return false, ErrShed
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(msg, &env) == nil &&
			(env.Error.Code == ms.CodeShardUnavailable || env.Error.Code == ms.CodeDeadlineExceeded) {
			return false, fmt.Errorf("%w: %s: %s", ErrDegraded, path, env.Error.Code)
		}
		return false, fmt.Errorf("loadgen: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if op == OpIngest {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	var out struct {
		Fraud    bool   `json:"fraud"`
		Action   string `json:"action"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, fmt.Errorf("loadgen: %s: decode response: %w", path, err)
	}
	if out.Degraded {
		// A fallback action is a placeholder, not a verdict; grading it
		// as flagged would hide the outage from the recall numbers.
		return false, fmt.Errorf("%w: %s: fallback action %q", ErrDegraded, path, out.Action)
	}
	if op == OpDecide {
		return out.Action != "" && out.Action != "approve", nil
	}
	return out.Fraud, nil
}
