package main

import (
	"fmt"
	"slices"
)

// metricDef names one reported metric. BENCHMARK.json mirrors these
// lists; TestBenchmarkJSONMatches keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"; end-to-end only
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd is what the regression gate reads from the untraced run of
// every workload. Every metric here repeats between runs of identical
// code to well inside its bound on the shared 2-vCPU reference box; see
// closedLoop for the ones that do not.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.01},
	{"bytes_per_txn", "B", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"recall", "share", "higher", 0.001},
}

// closedLoop is the closed loop's clock: throughput, process CPU and
// call latency. Every run prints them, but only the traced run reports
// them, as per-layer metrics without a bound: on the reference box
// identical code moves them by a quarter between runs minutes apart (a
// frozen arithmetic loop moves 5%, a pointer chase 2x), no run length
// that fits the driver's budget brings that inside a tenth, and a bound
// wider than a tenth detects nothing worth detecting. A gain on them is
// claimed by paired alternating runs; see README.md.
var closedLoop = []metricDef{
	{name: "proc.txn_per_s", unit: "1/s"},
	{name: "proc.cpu_us_per_txn", unit: "us"},
	{name: "proc.latency_p50_us", unit: "us"},
	{name: "proc.latency_p99_us", unit: "us"},
}

// perLayer is what the traced run reports: the closed loop's clock, then
// what it attributes to single layers (layer = module name). Layer
// timing metrics are the mean of the trace spans of the same name, per
// unit of work the span covered.
var perLayer = slices.Concat(closedLoop, []metricDef{
	// Set-up stages -> setup_s.
	{name: stageCompose, unit: "s"},
	{name: stageTrain, unit: "s"},
	{name: stageDeploy, unit: "s"},
	{name: stageWarm, unit: "s"},
	{name: stageOpen, unit: "s"},
	{name: stageRecover, unit: "s"},
	{name: "eventlog.replay_us_per_rec", unit: "us"},
	// Feature store and user cache -> batch_cold.
	{name: "hbase.visit_row_ns", unit: "ns"},
	{name: "hbase.visit_rows_ns_per_row", unit: "ns"},
	{name: "usercache.hit_share", unit: "share"},
	{name: "usercache.loads_per_txn", unit: "count"},
	{name: "usercache.evictions_per_txn", unit: "count"},
	{name: "usercache.peek_ns", unit: "ns"},
	// Stream window: reads -> batch_warm, writes -> online_mixed.
	{name: "stream.velocity_ns", unit: "ns"},
	{name: "stream.lookup_city_ns", unit: "ns"},
	{name: "stream.ingest_ns", unit: "ns"},
	{name: "stream.read_under_write_ns", unit: "ns"},
	// Assembly, model, policy -> batch_warm, batch_sharded.
	{name: "feature.assemble_ns_per_row", unit: "ns"},
	{name: "model.score_ns_per_row", unit: "ns"},
	{name: "model.score_single_ns", unit: "ns"},
	{name: "decision.decide_ns", unit: "ns"},
	// Whole engine calls, one caller, and the attribution-closure row.
	{name: "ms.decide_batch_us_per_txn", unit: "us"},
	{name: "ms.decide_single_us", unit: "us"},
	{name: "ms.ingest_single_us", unit: "us"},
	{name: "ms.unattributed_share", unit: "share"},
	{name: "ms.snapshot_ms", unit: "ms"},
	{name: "ms.stage.admit_us_p50", unit: "us"},
	{name: "ms.stage.fetch_us_p50", unit: "us"},
	{name: "ms.stage.assemble_us_p50", unit: "us"},
	{name: "ms.stage.score_us_p50", unit: "us"},
	{name: "ms.stage.decide_us_p50", unit: "us"},
	// In-process ring -> batch_sharded.
	{name: "sharded.decide_batch_us_per_txn", unit: "us"},
	{name: "sharded.overhead_us_per_txn", unit: "us"},
	{name: "sharded.extra_allocs_per_txn", unit: "count"},
	{name: "sharded.skew", unit: "ratio"},
	// Wire tier -> wire_batch.
	{name: "wire.json_encode_ns_per_txn", unit: "ns"},
	{name: "wire.json_decode_ns_per_txn", unit: "ns"},
	{name: "ms.http_handler_us_per_txn", unit: "us"},
	{name: "wire.shard_direct_us_per_txn", unit: "us"},
	{name: "wire.routed_us_per_txn", unit: "us"},
	{name: "router.overhead_us_per_txn", unit: "us"},
	{name: "router.retries", unit: "count"},
	{name: "router.degraded", unit: "count"},
	// Event log -> online_mixed.
	{name: "eventlog.append_ns", unit: "ns"},
	{name: "eventlog.bytes_per_rec", unit: "B"},
	{name: "eventlog.fsyncs_per_ktxn", unit: "count"},
	{name: "txn.encode_record_ns", unit: "ns"},
	// Detection quality and failures of the parity pass and traced slices.
	{name: "quality.fpr", unit: "share"},
	{name: "proc.error_share", unit: "share"},
	// The harness itself.
	{name: "proc.cpu_busy_share", unit: "share"},
	{name: "gen.us_per_txn", unit: "us"},
	{name: "trace.overhead_share", unit: "share"},
})

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult reports exactly the metrics defs lists, taking each value
// from values; a listed metric nobody measured is an error, not a zero.
func newResult(defs []metricDef, values map[string]float64, correct bool, attempted, failed int64) (*result, error) {
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	return res, nil
}

// unitScale converts seconds into a timing metric's unit.
func unitScale(unit string) float64 {
	switch unit {
	case "ns":
		return 1e9
	case "us":
		return 1e6
	case "ms":
		return 1e3
	}
	return 1
}
