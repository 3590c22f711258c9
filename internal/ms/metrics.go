package ms

import (
	"strconv"

	"titant/internal/telemetry"
)

// Prometheus exposition for the serving tiers. The series are declared
// on the Stats fields (stats.go): named titant_<subsystem>_<name>, with
// labels drawn from {shard, endpoint, stage, member, caller}; latency
// surfaces as native histogram families so dashboards can recompute any
// quantile. Server.MetricsBody renders one engine; the sharded engine
// renders each shard with a shard label plus its front door; the wire
// router (internal/router) self-scrapes these pages and re-labels.

// MetricsBody renders the engine's Prometheus text exposition.
func (s *Server) MetricsBody() []byte {
	e := telemetry.NewExpo()
	st := s.Stats()
	e.Emit(&st)
	shardsGauge(e, 1)
	return e.Bytes()
}

// MetricsBody renders the fleet exposition: every shard's series with a
// shard label, then the series owned by the ring's front door (see
// FrontDoor).
func (se *ShardedEngine) MetricsBody() []byte {
	e := telemetry.NewExpo()
	for i, s := range se.shards {
		st := s.engineStats()
		e.Emit(&st, "shard", strconv.Itoa(i))
	}
	fd := se.frontDoor()
	e.Emit(&fd)
	shardsGauge(e, len(se.shards))
	return e.Bytes()
}

// shardsGauge reports the process's engine width, once per page (see
// Stats.Shards).
func shardsGauge(e *telemetry.Expo, n int) {
	e.Gauge("titant_engine_shards", "engine shard count", float64(n))
}

// TraceBody renders the engine's GET /v1/debug/trace dump.
func (s *Server) TraceBody() map[string]interface{} {
	return telemetry.TraceBody(s.tel)
}

// TraceBody merges every shard's span tracker into one fleet dump: stage
// histograms sum bucket-wise and the slow-exemplar rings re-rank into a
// fleet-wide top K per endpoint.
func (se *ShardedEngine) TraceBody() map[string]interface{} {
	trackers := make([]*telemetry.Tracker, len(se.shards))
	for i, s := range se.shards {
		trackers[i] = s.tel
	}
	return telemetry.TraceBody(trackers...)
}
