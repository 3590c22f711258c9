package ms

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"titant/internal/rng"
	"titant/internal/telemetry"
)

// fillRandom sets every field under v to a seeded random value: small
// integers and eighths, so sums and weighted means are exact in float64
// and merge order cannot show up as rounding; optional sections present
// four times out of five; histograms over fixed bounds; keyed slices
// with the same element names on every shard. Version strings are
// uniform (a mixed fleet is pinned by TestMergeStatsVersionMixed) and
// fields that never travel (`json:"-"`) stay zero.
func fillRandom(r *rng.RNG, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if strings.HasPrefix(f.Tag.Get("json"), "-") {
			continue
		}
		if fv.Kind() == reflect.Pointer {
			if !r.Bool(0.8) {
				continue
			}
			fv.Set(reflect.New(f.Type.Elem()))
			if h, ok := fv.Interface().(*telemetry.HistSnapshot); ok {
				h.Bounds = []time.Duration{time.Microsecond, time.Millisecond, time.Second}
				h.Counts = []int64{int64(r.Intn(50)), int64(r.Intn(50)), int64(r.Intn(50)), int64(r.Intn(5))}
				h.Max = time.Duration(r.Intn(5e9))
				continue
			}
			fv = fv.Elem()
		}
		switch {
		case fv.Kind() == reflect.Struct:
			fillRandom(r, fv)
		case fv.Kind() == reflect.Slice:
			names := []string{"combined", "gbdt", "lr"}
			fv.Set(reflect.MakeSlice(fv.Type(), len(names), len(names)))
			for j, name := range names {
				fillRandom(r, fv.Index(j))
				fv.Index(j).FieldByName(strings.TrimPrefix(f.Tag.Get("merge"), "by=")).SetString(name)
			}
		case fv.Kind() == reflect.String:
			fv.SetString("v1")
		case fv.Kind() == reflect.Bool:
			fv.SetBool(r.Bool(0.3))
		case fv.CanInt():
			fv.SetInt(int64(r.Intn(1000)))
		case fv.CanUint():
			fv.SetUint(uint64(r.Intn(1000)))
		case fv.CanFloat():
			fv.SetFloat(float64(r.Intn(64)) / 8)
		}
	}
}

func randomStats(r *rng.RNG) Stats {
	var st Stats
	fillRandom(r, reflect.ValueOf(&st).Elem())
	return st
}

func mustMarshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMergeDifferential: for random per-shard snapshots, the fleet view
// does not depend on shard order, and merging the typed snapshots equals
// merging their bodies after a trip over the wire (what the router does).
func TestMergeDifferential(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		snaps := make([]Stats, 1+r.Intn(5))
		for i := range snaps {
			snaps[i] = randomStats(r)
		}
		want := mustMarshal(t, Merge(snaps))

		shuffled := append([]Stats(nil), snaps...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		if got := mustMarshal(t, Merge(shuffled)); string(got) != string(want) {
			t.Fatalf("trial %d: merge depends on shard order\n  in order: %s\n  shuffled: %s", trial, want, got)
		}

		wired := make([]Stats, len(snaps))
		for i := range snaps {
			if err := json.Unmarshal(mustMarshal(t, snaps[i]), &wired[i]); err != nil {
				t.Fatalf("trial %d: a shard body does not decode: %v", trial, err)
			}
			if !reflect.DeepEqual(wired[i], snaps[i]) {
				t.Fatalf("trial %d: a shard body does not round-trip\n sent: %+v\n  got: %+v", trial, snaps[i], wired[i])
			}
		}
		if got := mustMarshal(t, Merge(wired)); string(got) != string(want) {
			t.Fatalf("trial %d: in-process and wire merges differ\n in-process: %s\n       wire: %s", trial, want, got)
		}
	}
}

// Numeric /v1/stats members that deliberately have no series of their
// own, and what covers them instead.
var seriesExempt = map[string]string{
	"p50_us":                  "derived from titant_scoring_latency_seconds",
	"p99_us":                  "derived from titant_scoring_latency_seconds",
	"max_us":                  "derived from titant_scoring_latency_seconds",
	"endpoints.ingest.count":  "titant_endpoint_latency_seconds_count",
	"endpoints.ingest.p50_us": "derived from titant_endpoint_latency_seconds",
	"endpoints.ingest.p99_us": "derived from titant_endpoint_latency_seconds",
	"endpoints.ingest.max_us": "derived from titant_endpoint_latency_seconds",
	"endpoints.decide.count":  "titant_endpoint_latency_seconds_count",
	"endpoints.decide.p50_us": "derived from titant_endpoint_latency_seconds",
	"endpoints.decide.p99_us": "derived from titant_endpoint_latency_seconds",
	"endpoints.decide.max_us": "derived from titant_endpoint_latency_seconds",
	"admission.admitted":      "titant_admission_admitted_total, by caller",
	"admission.shed_quota":    "titant_admission_shed_quota_total, by caller",
	"admission.shed_inflight": "titant_admission_shed_inflight_total, by caller",
	"policy.decided":          "the sum of titant_decisions_total over actions",
	"shards":                  "titant_engine_shards, emitted once per page by MetricsBody",
}

// TestEveryStatHasASeries walks Stats and fails on any numeric (or
// histogram) member of /v1/stats that has neither a /metrics series nor
// an entry in seriesExempt — and on any member without a merge rule, so
// a new counter cannot reach one surface and miss the others.
func TestEveryStatHasASeries(t *testing.T) {
	rules := map[string]bool{"sum": true, "max": true, "first": true, "or": true, "mean": true, "width": true, "by": true, "hist": true, "-": true}
	exempt := map[string]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if key == "-" {
				continue
			}
			at := strings.TrimPrefix(path+"."+key, ".")
			if f.Anonymous {
				at = path
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer && ft != reflect.TypeOf((*telemetry.HistSnapshot)(nil)) {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct {
				walk(ft.Elem(), at+"[]")
			}
			if ft.Kind() == reflect.Struct {
				walk(ft, at)
				continue
			}
			if rule, _, _ := strings.Cut(f.Tag.Get("merge"), "="); !rules[rule] {
				t.Errorf("%s: merge rule %q is not one Merge knows", at, rule)
			}
			family, _, _ := strings.Cut(f.Tag.Get("prom"), ",")
			numeric := ft.Kind() == reflect.Pointer || reflect.Zero(ft).CanInt() || reflect.Zero(ft).CanUint() || reflect.Zero(ft).CanFloat()
			switch _, listed := seriesExempt[at]; {
			case !numeric:
			case family == "" && !listed:
				t.Errorf("%s is on /v1/stats but has no /metrics series: give it a prom tag or list it in seriesExempt", at)
			case family != "" && listed:
				t.Errorf("%s has the series %s and is also listed in seriesExempt", at, family)
			case listed:
				exempt[at] = true
			}
		}
	}
	walk(reflect.TypeOf(Stats{}), "")
	for at := range seriesExempt {
		if !exempt[at] {
			t.Errorf("seriesExempt lists %s, which is not a numeric member of Stats", at)
		}
	}
}
