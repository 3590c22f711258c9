package router

import (
	"encoding/json"
	"reflect"
	"testing"

	"titant/internal/ms"
)

// mergeBodies takes shard /v1/stats bodies the way the router does —
// decoded into ms.Stats, merged, marshalled — and returns the merged
// body decoded generically, so the assertions read the wire form.
func mergeBodies(t *testing.T, raws ...string) map[string]interface{} {
	t.Helper()
	snaps := make([]ms.Stats, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal([]byte(raw), &snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.Marshal(ms.Merge(snaps))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMergeStatsCountersAndHistogram(t *testing.T) {
	m := mergeBodies(t, `{
	  "scored": 10, "alerted": 1, "version": "v1", "shards": 1,
	  "p50_us": 1, "p99_us": 2, "max_us": 3,
	  "latency_hist": {"bounds_ns": [1000, 2000], "counts": [10, 0, 0], "max_ns": 900},
	  "user_cache": {"hits": 5, "misses": 5, "size": 4, "capacity": 64},
	  "admission": {"admitted": 10, "shed_quota": 1, "rate": 100, "burst": 50, "max_inflight": 8, "callers": 2, "inflight": 0, "shed_inflight": 0}
	}`, `{
	  "scored": 30, "alerted": 2, "version": "v1", "shards": 1,
	  "p50_us": 2, "p99_us": 2, "max_us": 2,
	  "latency_hist": {"bounds_ns": [1000, 2000], "counts": [0, 0, 30], "max_ns": 5000},
	  "user_cache": {"hits": 20, "misses": 10, "size": 9, "capacity": 64},
	  "admission": {"admitted": 30, "shed_quota": 0, "rate": 100, "burst": 50, "max_inflight": 8, "callers": 3, "inflight": 1, "shed_inflight": 2}
	}`)

	if m["scored"].(float64) != 40 || m["alerted"].(float64) != 3 {
		t.Fatalf("counters: scored=%v alerted=%v", m["scored"], m["alerted"])
	}
	if m["version"] != "v1" {
		t.Fatalf("version = %v", m["version"])
	}
	if _, mixed := m["version_mixed"]; mixed {
		t.Fatal("uniform fleet flagged as mixed")
	}
	if m["shards"].(float64) != 2 {
		t.Fatalf("shards = %v", m["shards"])
	}

	// Histogram counts summed: 10 samples <=1µs, 30 above 2µs. The p50
	// rank (20) falls in the overflow bucket, clamped to the observed
	// max — NOT any average of the per-shard p50s (1µs, 2µs).
	hist := m["latency_hist"].(map[string]interface{})
	counts := hist["counts"].([]interface{})
	if counts[0].(float64) != 10 || counts[2].(float64) != 30 {
		t.Fatalf("merged counts = %v", counts)
	}
	if hist["max_ns"].(float64) != 5000 {
		t.Fatalf("merged max_ns = %v", hist["max_ns"])
	}
	if m["p50_us"].(float64) != 5 || m["max_us"].(float64) != 5 {
		t.Fatalf("recomputed p50_us=%v max_us=%v, want 5 and 5", m["p50_us"], m["max_us"])
	}

	cache := m["user_cache"].(map[string]interface{})
	if cache["hits"].(float64) != 25 || cache["capacity"].(float64) != 128 {
		t.Fatalf("cache merge = %v", cache)
	}
	adm := m["admission"].(map[string]interface{})
	if adm["admitted"].(float64) != 40 || adm["shed_quota"].(float64) != 1 {
		t.Fatalf("admission counters = %v", adm)
	}
	if adm["max_inflight"].(float64) != 16 || adm["callers"].(float64) != 3 {
		t.Fatalf("admission capacity: max_inflight=%v callers=%v", adm["max_inflight"], adm["callers"])
	}
}

func TestMergeStatsVersionMixed(t *testing.T) {
	m := mergeBodies(t, `{"version": "v1", "scored": 1}`, `{"version": "v2", "scored": 1}`)
	if m["version"] != "v1" || m["version_mixed"] != true {
		t.Fatalf("mixed fleet: version=%v mixed=%v", m["version"], m["version_mixed"])
	}
}

func TestMergeStatsShadowAndDrift(t *testing.T) {
	m := mergeBodies(t, `{
	  "scored": 1,
	  "shadow": {"challenger_version": "c1", "scored": 10, "agreed": 10, "flipped": 0,
	             "dropped": 0, "errors": 0, "agreement": 1.0, "mean_divergence": 0.1, "queue_depth": 1},
	  "drift": {"alert": false, "series": [
	    {"name": "score", "baseline": 100, "live": 10, "psi": 0.01, "ks": 0.02, "alert": false}
	  ]}
	}`, `{
	  "scored": 1,
	  "shadow": {"challenger_version": "c1", "scored": 30, "agreed": 15, "flipped": 15,
	             "dropped": 1, "errors": 0, "agreement": 0.5, "mean_divergence": 0.3, "queue_depth": 2},
	  "drift": {"alert": true, "series": [
	    {"name": "score", "baseline": 100, "live": 30, "psi": 0.4, "ks": 0.1, "alert": true}
	  ]}
	}`)

	sh := m["shadow"].(map[string]interface{})
	if sh["scored"].(float64) != 40 || sh["agreed"].(float64) != 25 {
		t.Fatalf("shadow counters = %v", sh)
	}
	if got := sh["agreement"].(float64); got != 25.0/40.0 {
		t.Fatalf("agreement = %v, want %v (recomputed, not averaged)", got, 25.0/40.0)
	}
	// Weighted by scored: (0.1*10 + 0.3*30) / 40 = 0.25.
	if got := sh["mean_divergence"].(float64); got != 0.25 {
		t.Fatalf("mean_divergence = %v, want 0.25", got)
	}

	dr := m["drift"].(map[string]interface{})
	if dr["alert"] != true {
		t.Fatal("drift alert not OR-ed")
	}
	series := dr["series"].([]interface{})
	s0 := series[0].(map[string]interface{})
	if s0["live"].(float64) != 40 || s0["psi"].(float64) != 0.4 || s0["alert"] != true {
		t.Fatalf("drift series merge = %v", s0)
	}
}

func TestMergeStatsEndpointsAndEventlog(t *testing.T) {
	m := mergeBodies(t, `{
	  "scored": 1,
	  "endpoints": {"ingest": {"count": 5, "p50_us": 10, "p99_us": 20, "max_us": 30,
	    "hist": {"bounds_ns": [1000], "counts": [5, 0], "max_ns": 800}}},
	  "eventlog": {"appended": 100, "fsyncs": 10, "bytes": 4096, "segments": 1,
	    "max_consumer_lag": 5, "last_fsync_age_seconds": 0.5, "replayed": 0, "append_errors": 0,
	    "first_offset": 0, "next_offset": 100, "unsynced_bytes": 10, "snapshot_end": 0}
	}`, `{
	  "scored": 1,
	  "endpoints": {"ingest": {"count": 15, "p50_us": 40, "p99_us": 50, "max_us": 60,
	    "hist": {"bounds_ns": [1000], "counts": [0, 15], "max_ns": 9000}}},
	  "eventlog": {"appended": 300, "fsyncs": 30, "bytes": 8192, "segments": 2,
	    "max_consumer_lag": 50, "last_fsync_age_seconds": 0.1, "replayed": 7, "append_errors": 1,
	    "first_offset": 40, "next_offset": 340, "unsynced_bytes": 0, "snapshot_end": 40}
	}`)

	ing := m["endpoints"].(map[string]interface{})["ingest"].(map[string]interface{})
	if ing["count"].(float64) != 20 {
		t.Fatalf("endpoint count = %v", ing["count"])
	}
	// 5 samples <=1µs + 15 in overflow: p50 rank 10 → overflow → max 9µs.
	if ing["p50_us"].(float64) != 9 {
		t.Fatalf("endpoint p50_us = %v, want 9", ing["p50_us"])
	}

	el := m["eventlog"].(map[string]interface{})
	if el["appended"].(float64) != 400 || el["replayed"].(float64) != 7 || el["append_errors"].(float64) != 1 {
		t.Fatalf("eventlog sums = %v", el)
	}
	if el["max_consumer_lag"].(float64) != 50 || el["last_fsync_age_seconds"].(float64) != 0.5 {
		t.Fatalf("eventlog maxima = %v", el)
	}
	if _, ok := el["next_offset"]; ok {
		t.Fatal("per-log offsets leaked into the merged view")
	}
}

func TestMergeStatsIncompatibleHistogramsFallBack(t *testing.T) {
	m := mergeBodies(t,
		`{"scored": 1, "p50_us": 3, "p99_us": 7, "max_us": 9,
		  "latency_hist": {"bounds_ns": [1000], "counts": [1, 0], "max_ns": 100}}`,
		`{"scored": 1, "p50_us": 5, "p99_us": 6, "max_us": 8,
		  "latency_hist": {"bounds_ns": [2000], "counts": [1, 0], "max_ns": 100}}`)
	if _, ok := m["latency_hist"]; ok {
		t.Fatal("incompatible histograms merged anyway")
	}
	// Worst-shard fallback.
	if m["p50_us"].(float64) != 5 || m["p99_us"].(float64) != 7 || m["max_us"].(float64) != 9 {
		t.Fatalf("fallback percentiles = p50 %v p99 %v max %v", m["p50_us"], m["p99_us"], m["max_us"])
	}
}

func TestMergeStatsEmpty(t *testing.T) {
	if m := ms.Merge(nil); !reflect.DeepEqual(m, ms.Stats{}) {
		t.Fatalf("merge of nothing = %+v", m)
	}
}
