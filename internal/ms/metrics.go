package ms

import "titant/internal/telemetry"

// Prometheus exposition for the serving tiers. The series are declared
// on the Stats fields (stats.go): named titant_<subsystem>_<name>, with
// labels drawn from {shard, endpoint, stage, member, caller}; latency
// surfaces as native histogram families so dashboards can recompute any
// quantile. Server.MetricsBody renders the engine; the wire router
// (internal/router) self-scrapes these pages and adds the shard label.

// MetricsBody renders the engine's Prometheus text exposition.
func (s *Server) MetricsBody() []byte {
	e := telemetry.NewExpo()
	st := s.Stats()
	e.Emit(&st)
	e.Gauge("titant_engine_shards", "engine shard count", float64(st.Shards))
	return e.Bytes()
}

// TraceBody renders the engine's GET /v1/debug/trace dump.
func (s *Server) TraceBody() map[string]interface{} {
	return telemetry.TraceBody(s.tel)
}
