package router

import (
	"encoding/json"
	"net/http"

	"titant/internal/link"
	"titant/internal/ms"
	"titant/internal/telemetry"
)

// Stats is the router's GET /v1/stats body: the fleet view ms.Merge
// folds from the shards' bodies — counters sum, histograms merge
// bucket-wise with percentiles recomputed, worst-shard readings take the
// max, and a mid-rollout fleet is flagged "version_mixed" — plus the
// router's own section.
type Stats struct {
	ms.Stats
	Router RouterStats `json:"router"`
}

// MarshalJSON renders the body in the shards' member order (and shadows
// the embedded snapshot's marshaller, which knows no router section).
func (st Stats) MarshalJSON() ([]byte, error) { return ms.MarshalStats(&st) }

// RouterStats is the "router" section — the ring, the router's own
// counters and per-shard breaker state — and, through its prom tags, the
// router-owned /metrics series (see telemetry.Expo.Emit). The stage
// histograms share the engines' family name; the router's series carry
// no shard label, which keeps them distinct from the re-labeled shard
// series.
type RouterStats struct {
	Shards            []string                  `json:"shards"`
	Singles           int64                     `json:"singles" prom:"titant_router_singles_total" help:"single-row requests forwarded to an owner shard"`
	Batches           int64                     `json:"batches" prom:"titant_router_batches_total" help:"batch requests scattered across the ring"`
	Fanouts           int64                     `json:"fanouts" prom:"titant_router_fanouts_total" help:"sub-batches dispatched by scatters"`
	Controls          int64                     `json:"controls" prom:"titant_router_controls_total" help:"model/policy swaps replicated"`
	Errors            int64                     `json:"errors" prom:"titant_router_errors_total" help:"upstream failures relayed or detected"`
	Retries           int64                     `json:"retries" prom:"titant_router_retries_total" help:"retry attempts issued"`
	Hedges            int64                     `json:"hedges" prom:"titant_router_hedges_total" help:"hedge legs launched"`
	HedgeWins         int64                     `json:"hedge_wins" prom:"titant_router_hedge_wins_total" help:"hedge legs that answered first"`
	DegradedItems     int64                     `json:"degraded_items" prom:"titant_router_degraded_items_total" help:"items answered with a degraded envelope"`
	DeadlineExhausted int64                     `json:"deadline_exhausted" prom:"titant_router_deadline_exhausted_total" help:"calls abandoned on an exhausted caller budget"`
	LinkCalls         int64                     `json:"link_calls" prom:"titant_router_link_calls_total" help:"shard calls carried by a multiplexed link instead of an HTTP exchange"`
	LinkRedials       int64                     `json:"link_redials" prom:"titant_router_link_redials_total" help:"shard links reopened after one died"`
	Width             int                       `json:"-" prom:"titant_router_shards" help:"shard ring width"`
	Quorum            int                       `json:"-" prom:"titant_router_quorum" help:"healthy shards /healthz requires for 200"`
	FallbackAction    string                    `json:"fallback_action"`
	Breakers          []BreakerStats            `json:"breakers"`
	Unreachable       []int                     `json:"unreachable,omitempty"` // shards whose stats could not be fetched
	Stages            []telemetry.StageSnapshot `json:"-"`
}

// BreakerStats is one shard's circuit breaker and call latency. Its
// fields are declared in /metrics order; MarshalJSON keeps the body's key
// order.
type BreakerStats struct {
	Shard     int                     `json:"shard" prom:",shard"`
	Transport string                  `json:"transport" prom:"titant_router_shard_transport,transport" help:"how the shard's data plane is reached: link or http (value is always 1)"`
	State     string                  `json:"state" prom:"titant_router_breaker_state,state" help:"per-shard breaker state (value is always 1)"`
	Opens     int64                   `json:"opens" prom:"titant_router_breaker_opens_total" help:"breaker trips to open"`
	HalfOpens int64                   `json:"half_opens" prom:"titant_router_breaker_half_opens_total" help:"breaker transitions to half-open"`
	Probes    int64                   `json:"probes" prom:"titant_router_breaker_probes_total" help:"half-open probes launched"`
	Failures  int64                   `json:"failures" prom:"titant_router_breaker_failures_total" help:"shard call failures recorded by the breaker"`
	Successes int64                   `json:"successes" prom:"titant_router_breaker_successes_total" help:"shard call successes recorded by the breaker"`
	P99       int64                   `json:"p99_us"`
	Latency   *telemetry.HistSnapshot `json:"-" prom:"titant_router_shard_latency_seconds" help:"successful shard call latency"`
}

func (b BreakerStats) MarshalJSON() ([]byte, error) { return ms.MarshalStats(&b) }

// routerStats reads the router's own section.
func (rt *Router) routerStats() RouterStats {
	rs := RouterStats{
		Shards:  rt.shards,
		Singles: rt.singles.Load(), Batches: rt.batches.Load(), Fanouts: rt.fanouts.Load(),
		Controls: rt.controls.Load(), Errors: rt.errors.Load(), Retries: rt.retried.Load(),
		Hedges: rt.hedges.Load(), HedgeWins: rt.hedgeWins.Load(),
		DegradedItems: rt.degraded.Load(), DeadlineExhausted: rt.deadlines.Load(),
		Width: len(rt.shards), Quorum: rt.quorum, FallbackAction: rt.fallback,
		Breakers:  make([]BreakerStats, len(rt.brk)),
		Stages:    rt.tel.StageSnapshots(),
		LinkCalls: rt.link.Calls.Load(), LinkRedials: rt.link.Redials.Load(),
	}
	for si, b := range rt.brk {
		rs.Breakers[si] = b.stats(si, rt.lat[si].Snapshot())
		rs.Breakers[si].Transport = "http"
		if rt.link.Linked(si) {
			rs.Breakers[si].Transport = "link"
		}
	}
	return rs
}

// stats fans GET /v1/stats to every shard and merges the reachable
// bodies. Unreachable shards are listed, not fatal — stats is how
// operators see a degraded fleet, so it must answer while the fleet is
// degraded. Only a fully unreachable fleet is a 502.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request, h *link.Header) {
	fan := rt.fanGet(r, h, "/v1/stats", callSpec{retryable: true})
	defer fan.put()
	ups := fan.ups
	var bodies []ms.Stats
	var unreachable []int
	for si, u := range ups {
		if u.failed() {
			rt.errors.Add(1)
			unreachable = append(unreachable, si)
			continue
		}
		var body ms.Stats
		if err := json.Unmarshal(u.Body, &body); err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
			return
		}
		bodies = append(bodies, body)
	}
	if len(bodies) == 0 {
		writeError(w, http.StatusBadGateway, "shard_unreachable", "no shard answered /v1/stats")
		return
	}
	out := Stats{Stats: ms.Merge(bodies), Router: rt.routerStats()}
	out.Router.Unreachable = unreachable
	writeJSON(w, http.StatusOK, out)
}
