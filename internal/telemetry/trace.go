package telemetry

import (
	"context"
	"encoding/hex"
	"strings"
	"sync"

	"titant/internal/rng"
)

// TraceHeader is the wire header carrying a request's trace ID: adopted
// by the router (or a shard hit directly) when the caller supplies one,
// minted otherwise, echoed on every /v1/* response, and forwarded on
// every proxied sub-request — so one grep for the ID finds a verdict's
// whole path across tiers.
const TraceHeader = "X-Trace-Id"

// TraceID is a 16-byte request identifier, rendered as 32 lowercase hex
// characters on the wire.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string {
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// AppendHex appends the ID's 32 hex characters to dst — the
// allocation-free form of String for pooled hot paths.
func (id TraceID) AppendHex(dst []byte) []byte {
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return append(dst, buf[:]...)
}

// ParseTraceID decodes a 32-hex-character trace ID. Anything else —
// wrong length, non-hex, all zeros — reports false, which callers treat
// as "mint a fresh one" rather than an error: a malformed inbound
// header must never fail a scoring request.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// Minter mints trace IDs from a seeded deterministic stream. The
// underlying rng.RNG is not concurrency-safe, so the minter wraps it in
// a mutex — contention is negligible against the cost of the request
// the ID names. Seeded minting keeps replayed load runs and tests
// reproducible end to end, trace IDs included.
type Minter struct {
	mu sync.Mutex
	r  *rng.RNG
}

// NewMinter returns a minter over a stream derived from seed.
func NewMinter(seed uint64) *Minter {
	return &Minter{r: rng.New(seed).Split(0x7e1e)}
}

// Mint returns a fresh non-zero trace ID.
func (m *Minter) Mint() TraceID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id TraceID
	for id.IsZero() {
		a, b := m.r.Uint64(), m.r.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// Adopt returns the trace a request with X-Trace-Id s runs under: s in
// its lowercase form when it is a well-formed ID — s itself, with no
// allocation, unless the caller wrote it in upper case — else a fresh ID.
func (m *Minter) Adopt(s string) string {
	if _, ok := ParseTraceID(s); ok {
		return strings.ToLower(s)
	}
	return m.Mint().String()
}

// traceKey is the context key carrying the request's TraceID: a
// Deadline's (see WithDeadline), the one context that carries a trace.
type traceKey struct{}

// TraceFrom extracts the trace ID from ctx (zero ID, false if absent).
func TraceFrom(ctx context.Context) (TraceID, bool) {
	if id, ok := ctx.Value(traceKey{}).(*TraceID); ok {
		return *id, !id.IsZero()
	}
	return TraceID{}, false
}
