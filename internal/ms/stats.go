package ms

import (
	"encoding/json"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"titant/internal/decision"
	"titant/internal/telemetry"
)

// Stats is the engine's operator snapshot and the single definition of
// both operator surfaces: it marshals to the GET /v1/stats body,
// unmarshals from it (so the wire router merges typed shard bodies),
// and emits the GET /metrics series. Each field's tags say everything
// the three need:
//
//   - json: the /v1/stats member. Bodies list their members in key order
//     (MarshalStats); fields are declared in /metrics order. A nil section
//     or pointer is absent from both surfaces.
//   - merge: how Merge folds the field across shards — "sum"; "max" (the
//     worst shard, for readings that do not add); "first" (shard 0 speaks
//     for a fleet swapped in lockstep); "or"; "mean=F" (mean weighted by
//     sibling field F); "width" (sum, an absent count reading as 1);
//     "by=F" (a slice of structs grouped by their field F, each group
//     merged by its own tags); "-" (meaningless fleet-wide, or recomputed
//     from the merged counters afterwards).
//   - prom, help: the /metrics series (see telemetry.Expo.Emit).
//
// Adding a counter is two edits: the field with its tags here, and its
// reading in Server.Stats.
type Stats struct {
	Scored  int64 `json:"scored" merge:"sum" prom:"titant_scoring_scored_total" help:"transactions scored"`
	Alerted int64 `json:"alerted" merge:"sum" prom:"titant_scoring_alerted_total" help:"transactions scored at or above the alert threshold"`
	Percentiles
	LatencyHist   *telemetry.HistSnapshot   `json:"latency_hist,omitempty" merge:"hist" prom:"titant_scoring_latency_seconds" help:"per-transaction scoring latency"`
	Version       string                    `json:"version" merge:"first" prom:"titant_bundle_info,version" help:"active bundle metadata (value is always 1)"`
	VersionMixed  bool                      `json:"version_mixed,omitempty" merge:"or"` // shards disagree on Version: a rollout is in flight or stuck
	Stages        []telemetry.StageSnapshot `json:"-" merge:"-"`
	Ingested      *int64                    `json:"ingested,omitempty" merge:"sum" prom:"titant_ingest_ingested_total" help:"transactions accepted into the live window"`
	IngestDeduped *int64                    `json:"ingest_deduped,omitempty" merge:"sum" prom:"titant_ingest_deduped_total" help:"keyed ingest replays answered from the idempotency table instead of applied"`
	Endpoints     *Endpoints                `json:"endpoints,omitempty"`
	Admission     *AdmissionStats           `json:"admission,omitempty"`
	UserCache     *CacheStats               `json:"user_cache,omitempty"`
	Policy        *PolicyStats              `json:"policy,omitempty"`
	Shadow        *ShadowStats              `json:"shadow,omitempty"`
	EventLog      *EventLogStats            `json:"eventlog,omitempty"`
	Drift         *DriftStats               `json:"drift,omitempty"`
	// Shards is the width of the engine's feature store — the number of
	// tables user rows partition across — and, behind a router, the sum
	// over the shard servers. /metrics reports it once per process
	// (titant_engine_shards), never per shard.
	Shards int `json:"shards" merge:"width"`
	// LinkConns is the number of live router links (GET /v1/link).
	LinkConns int `json:"link_conns" merge:"max" prom:"titant_link_conns" help:"live router links (multiplexed shard connections)"`
}

// Percentiles are the human-readable microsecond readings of a latency
// section. Stats.derive computes them from the section's own histogram
// snapshot; merging keeps the worst shard's only when the raw buckets
// cannot be merged.
type Percentiles struct {
	P50 int64 `json:"p50_us" merge:"max"`
	P99 int64 `json:"p99_us" merge:"max"`
	Max int64 `json:"max_us" merge:"max"`
}

func percentilesOf(h *telemetry.HistSnapshot) Percentiles {
	return Percentiles{P50: h.Quantile(0.50).Microseconds(), P99: h.Quantile(0.99).Microseconds(), Max: h.Max.Microseconds()}
}

// Endpoints are the per-route request histograms (errors included).
type Endpoints struct {
	Ingest *EndpointStats `json:"ingest,omitempty" prom:",endpoint=ingest"`
	Decide *EndpointStats `json:"decide,omitempty" prom:",endpoint=decide"`
}

// EndpointStats is one route's request latency.
type EndpointStats struct {
	Count int64 `json:"count" merge:"sum"`
	Percentiles
	Hist *telemetry.HistSnapshot `json:"hist,omitempty" merge:"hist" prom:"titant_endpoint_latency_seconds" help:"HTTP request latency by endpoint"`
}

func endpointStats(h *telemetry.Histogram) *EndpointStats {
	snap := h.Snapshot()
	return &EndpointStats{Count: snap.Total(), Percentiles: percentilesOf(snap), Hist: snap}
}

// CacheStats is the user_cache section (field-for-field usercache.Stats).
type CacheStats struct {
	Hits          int64 `json:"hits" merge:"sum" prom:"titant_user_cache_hits_total" help:"user cache hits"`
	Misses        int64 `json:"misses" merge:"sum" prom:"titant_user_cache_misses_total" help:"user cache misses"`
	Collapsed     int64 `json:"collapsed" merge:"sum" prom:"titant_user_cache_collapsed_total" help:"concurrent misses collapsed to one load"`
	Evictions     int64 `json:"evictions" merge:"sum" prom:"titant_user_cache_evictions_total" help:"user cache evictions"`
	Invalidations int64 `json:"invalidations" merge:"sum" prom:"titant_user_cache_invalidations_total" help:"user cache invalidations"`
	Negatives     int64 `json:"negatives" merge:"sum" prom:"titant_user_cache_negatives" help:"negative (user-not-found) entries held"`
	Size          int   `json:"size" merge:"sum" prom:"titant_user_cache_size" help:"user cache entries held"`
	Capacity      int   `json:"capacity" merge:"sum" prom:"titant_user_cache_capacity" help:"user cache entry capacity"`
}

// PolicyStats is the policy section.
type PolicyStats struct {
	Version string `json:"version" merge:"first" prom:"titant_policy_info,version" help:"active policy metadata (value is always 1)"`
	DecisionStats
}

// DecisionStats snapshots the decision counters. Decided is the sum of
// the per-action counters, so it has no series of its own.
type DecisionStats struct {
	Decided       int64 `json:"decided" merge:"sum"`
	Approved      int64 `json:"approved" merge:"sum" prom:"titant_decisions_total,action=approve" help:"policy decisions by action"`
	Challenged    int64 `json:"challenged" merge:"sum" prom:"titant_decisions_total,action=challenge"`
	Denied        int64 `json:"denied" merge:"sum" prom:"titant_decisions_total,action=deny"`
	RuleOverrides int64 `json:"rule_overrides" merge:"sum" prom:"titant_decision_rule_overrides_total" help:"decisions where a rule overrode the model bands"`
}

// AdmissionStats is the admission section. The shed and admitted totals
// surface on /metrics per caller. Behind a router the capacity fields
// (rate, burst, max_inflight) sum — the fleet admits N shards' worth —
// while callers takes the max: the same caller population hits every
// shard, so summing would overcount.
type AdmissionStats struct {
	PerCaller    []CallerStats `json:"-" merge:"-"`
	Admitted     int64         `json:"admitted" merge:"sum"`      // transactions admitted
	ShedQuota    int64         `json:"shed_quota" merge:"sum"`    // refused by caller quotas
	ShedInflight int64         `json:"shed_inflight" merge:"sum"` // refused by the inflight bound
	Inflight     int64         `json:"inflight" merge:"sum" prom:"titant_admission_inflight" help:"transactions currently inside the engine"`
	MaxInflight  int64         `json:"max_inflight" merge:"sum" prom:"titant_admission_max_inflight" help:"inflight bound (0: unbounded)"`
	Rate         float64       `json:"rate" merge:"sum" prom:"titant_admission_rate" help:"per-caller sustained quota in tx/s (0: no quota)"`
	Burst        float64       `json:"burst" merge:"sum" prom:"titant_admission_burst" help:"per-caller burst allowance"`
	Callers      int           `json:"callers" merge:"max" prom:"titant_admission_callers" help:"distinct callers holding exact quota buckets"`
}

// CallerStats is one caller's admission counters (sorted by name, the
// shared overflow row last as "_overflow").
type CallerStats struct {
	Caller       string `prom:",caller"`
	Admitted     int64  `prom:"titant_admission_admitted_total" help:"transactions admitted by caller"`
	ShedQuota    int64  `prom:"titant_admission_shed_quota_total" help:"transactions refused by caller quotas"`
	ShedInflight int64  `prom:"titant_admission_shed_inflight_total" help:"transactions refused by the inflight bound"`
}

// ShadowStats is the shadow section: the challenger's version, the
// comparison meter (see decision.ShadowStats) and the worker's backlog.
// Merged ratios recompute over the summed counters.
type ShadowStats struct {
	ChallengerVersion string  `json:"challenger_version" merge:"first" prom:"titant_shadow_info,version" help:"challenger bundle metadata (value is always 1)"`
	Scored            int64   `json:"scored" merge:"sum" prom:"titant_shadow_scored_total" help:"champion/challenger comparisons completed"`
	Dropped           int64   `json:"dropped" merge:"sum" prom:"titant_shadow_dropped_total" help:"shadow jobs shed on queue overflow"`
	Errors            int64   `json:"errors" merge:"sum" prom:"titant_shadow_errors_total" help:"challenger-side scoring failures"`
	Agreed            int64   `json:"agreed" merge:"sum" prom:"titant_shadow_agreed_total" help:"comparisons where champion and challenger agreed"`
	Flipped           int64   `json:"flipped" merge:"sum" prom:"titant_shadow_flipped_total" help:"comparisons where the challenger would flip the verdict"`
	Agreement         float64 `json:"agreement" merge:"-" prom:"titant_shadow_agreement" help:"champion/challenger verdict agreement ratio"`
	MeanDivergence    float64 `json:"mean_divergence" merge:"mean=Scored" prom:"titant_shadow_mean_divergence" help:"mean absolute champion-challenger score divergence"`
	QueueDepth        int     `json:"queue_depth" merge:"sum" prom:"titant_shadow_queue_depth" help:"transactions waiting for the shadow worker"`
}

// EventLogStats is the eventlog section. Offsets are per-log coordinates,
// meaningless fleet-wide, so a merged view drops them; lag and fsync age
// report the worst shard.
type EventLogStats struct {
	Appended      int64   `json:"appended" merge:"sum" prom:"titant_eventlog_appended_total" help:"events appended to the durable log"`
	Fsyncs        int64   `json:"fsyncs" merge:"sum" prom:"titant_eventlog_fsyncs_total" help:"event log fsync calls"`
	Bytes         int64   `json:"bytes" merge:"sum" prom:"titant_eventlog_bytes_total" help:"bytes appended to the event log"`
	Replayed      int64   `json:"replayed" merge:"sum" prom:"titant_eventlog_replayed_total" help:"events replayed at startup recovery"`
	AppendErrors  int64   `json:"append_errors" merge:"sum" prom:"titant_eventlog_append_errors_total" help:"event log append failures"`
	Segments      int     `json:"segments" merge:"sum" prom:"titant_eventlog_segments" help:"event log segment files on disk"`
	FirstOffset   *uint64 `json:"first_offset,omitempty" merge:"-" prom:"titant_eventlog_first_offset" help:"oldest retained event offset"`
	NextOffset    *uint64 `json:"next_offset,omitempty" merge:"-" prom:"titant_eventlog_next_offset" help:"next event offset to be assigned"`
	UnsyncedBytes int64   `json:"unsynced_bytes" merge:"sum" prom:"titant_eventlog_unsynced_bytes" help:"appended bytes not yet fsynced"`
	LastFsyncAge  float64 `json:"last_fsync_age_seconds" merge:"max" prom:"titant_eventlog_last_fsync_age_seconds" help:"seconds since the last fsync"`
	SnapshotEnd   *uint64 `json:"snapshot_end,omitempty" merge:"-" prom:"titant_eventlog_snapshot_end" help:"offset the newest snapshot covers through"`
	MaxLag        int64   `json:"max_consumer_lag" merge:"max" prom:"titant_eventlog_max_consumer_lag" help:"largest consumer offset lag"`
}

// DriftStats is the drift section. Each shard monitors the score
// distribution of its own user partition, so the merged view is "the
// most drifted shard" — the one an operator acts on.
type DriftStats struct {
	Alert  bool          `json:"alert" merge:"or" prom:"titant_drift_alert" help:"1 when any score series crosses its drift thresholds"`
	Series []DriftSeries `json:"series" merge:"by=Name"`
}

// DriftSeries is one monitored score series (field-for-field
// decision.DriftStats). Series merge by name: counts sum, PSI and KS —
// distribution distances, not additive counters — take the worst shard,
// and a series alerts if it alerts anywhere.
type DriftSeries struct {
	Name          string  `json:"name" merge:"first" prom:",member"`
	BaselineCount int64   `json:"baseline" merge:"sum" prom:"titant_drift_baseline_total" help:"scores frozen into the drift baseline"`
	LiveCount     int64   `json:"live" merge:"sum" prom:"titant_drift_live_total" help:"scores observed into the live drift window"`
	PSI           float64 `json:"psi" merge:"max" prom:"titant_drift_psi" help:"population stability index vs the baseline"`
	KS            float64 `json:"ks" merge:"max" prom:"titant_drift_ks" help:"Kolmogorov-Smirnov distance vs the baseline"`
	Alert         bool    `json:"alert" merge:"or"`
}

// Stats snapshots everything GET /v1/stats and GET /metrics report about
// the engine. Every source is read once, so the figures of one body —
// a section's percentiles and its raw buckets, the drift alert and its
// series — describe the same instant.
func (s *Server) Stats() Stats {
	st := Stats{
		Scored: s.scored.Load(), Alerted: s.alerted.Load(), LatencyHist: s.hist.Snapshot(),
		Version: s.BundleVersion(), Stages: s.tel.StageSnapshots(),
		Admission: s.adm.stats(), Shards: len(s.tables), LinkConns: s.links.Conns(),
	}
	if s.stream != nil {
		n, dd := s.stream.Ingested(), s.idem.deduped.Load()
		st.Ingested, st.IngestDeduped = &n, &dd
		st.Endpoints = &Endpoints{Ingest: endpointStats(s.ingestHist)}
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.UserCache = (*CacheStats)(&cs)
	}
	if pol := s.currentPolicy(); pol != nil {
		if st.Endpoints == nil {
			st.Endpoints = &Endpoints{}
		}
		st.Endpoints.Decide = endpointStats(s.decideHist)
		ds := DecisionStats{
			Approved:      s.actions[decision.ActionApprove].Load(),
			Challenged:    s.actions[decision.ActionChallenge].Load(),
			Denied:        s.actions[decision.ActionDeny].Load(),
			RuleOverrides: s.ruleHits.Load(),
		}
		ds.Decided = ds.Approved + ds.Challenged + ds.Denied
		st.Policy = &PolicyStats{Version: pol.Version, DecisionStats: ds}
	}
	if s.shadow != nil {
		sh := s.shadow.meter.Snapshot()
		st.Shadow = &ShadowStats{
			ChallengerVersion: s.shadow.bundle.Version,
			Scored:            sh.Scored, Dropped: sh.Dropped, Errors: sh.Errors,
			Agreed: sh.Agreed, Flipped: sh.Flipped, MeanDivergence: sh.MeanAbsDiff,
			QueueDepth: len(s.shadow.jobs),
		}
	}
	if s.elog != nil {
		es := s.elog.Stats()
		st.EventLog = &EventLogStats{
			Appended: es.Appended, Fsyncs: es.Fsyncs, Bytes: es.Bytes,
			Replayed: s.elogReplayed.Load(), AppendErrors: s.elogErrs.Load(),
			Segments: es.Segments, FirstOffset: &es.FirstOffset, NextOffset: &es.NextOffset,
			UnsyncedBytes: es.UnsyncedBytes, LastFsyncAge: es.LastFsyncAge,
			SnapshotEnd: &es.SnapshotEnd, MaxLag: es.MaxLag,
		}
	}
	if mon := s.drift.Load(); mon != nil {
		dr := &DriftStats{Series: []DriftSeries{}}
		for _, series := range mon.Snapshot() {
			dr.Series = append(dr.Series, DriftSeries(series))
			dr.Alert = dr.Alert || series.Alert
		}
		st.Drift = dr
	}
	st.derive()
	return st
}

// Merge folds per-shard snapshots into one fleet view, field by field as
// the merge tags say; a section present on any shard merges over the
// shards that carry it. The wire router folds its shard servers' bodies
// with it.
func Merge(snaps []Stats) Stats {
	var out Stats
	if len(snaps) == 0 {
		return out
	}
	srcs := make([]reflect.Value, len(snaps))
	for i := range snaps {
		srcs[i] = reflect.ValueOf(&snaps[i]).Elem()
	}
	mergeStruct(reflect.ValueOf(&out).Elem(), srcs)
	for i := range snaps {
		if v := snaps[i].Version; v != "" && v != out.Version {
			out.VersionMixed = true
		}
	}
	out.derive()
	return out
}

// derive computes the readings that follow from others of the same
// snapshot, read or merged: each latency section's percentiles from its
// own buckets (after a merge the worst shard's readings stand only where
// bucket shapes disagreed and no merged histogram exists), shadow
// agreement from its counters.
func (st *Stats) derive() {
	if st.LatencyHist != nil {
		st.Percentiles = percentilesOf(st.LatencyHist)
	}
	if eps := st.Endpoints; eps != nil {
		for _, ep := range []*EndpointStats{eps.Ingest, eps.Decide} {
			if ep != nil && ep.Hist != nil {
				ep.Percentiles = percentilesOf(ep.Hist)
			}
		}
	}
	if sh := st.Shadow; sh != nil {
		sh.Agreement = 1
		if sh.Scored > 0 {
			sh.Agreement = float64(sh.Agreed) / float64(sh.Scored)
		}
	}
}

var histSnapshotType = reflect.TypeOf((*telemetry.HistSnapshot)(nil))

// mergeStruct sets every field of dst from the same field of srcs.
func mergeStruct(dst reflect.Value, srcs []reflect.Value) {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		f, d := t.Field(i), dst.Field(i)
		rule, arg, _ := strings.Cut(f.Tag.Get("merge"), "=")
		if rule == "-" {
			continue
		}
		if f.Type == histSnapshotType {
			hs := make([]*telemetry.HistSnapshot, len(srcs))
			for k, s := range srcs {
				hs[k] = s.Field(i).Interface().(*telemetry.HistSnapshot)
			}
			d.Set(reflect.ValueOf(telemetry.MergeSnapshots(hs)))
			continue
		}
		// The shards that carry the field (all of them, but for a pointer)
		// and the field's value on each.
		from, vals := make([]reflect.Value, 0, len(srcs)), make([]reflect.Value, 0, len(srcs))
		for _, s := range srcs {
			v := s.Field(i)
			if v.Kind() == reflect.Pointer {
				if v.IsNil() {
					continue
				}
				v = v.Elem()
			}
			from, vals = append(from, s), append(vals, v)
		}
		if d.Kind() == reflect.Pointer {
			if len(vals) == 0 {
				continue
			}
			d.Set(reflect.New(f.Type.Elem()))
			d = d.Elem()
		}
		switch {
		case d.Kind() == reflect.Struct:
			mergeStruct(d, vals)
		case rule == "by":
			mergeKeyed(d, vals, arg)
		case d.Kind() == reflect.String:
			d.SetString(vals[0].String())
		case d.Kind() == reflect.Bool:
			for _, v := range vals {
				d.SetBool(d.Bool() || v.Bool())
			}
		case d.CanInt():
			var acc int64
			for _, v := range vals {
				switch x := v.Int(); rule {
				case "max":
					acc = max(acc, x)
				case "width":
					acc += max(1, x)
				default:
					acc += x
				}
			}
			d.SetInt(acc)
		case d.CanFloat():
			var acc, weight float64
			for k, v := range vals {
				switch x := v.Float(); rule {
				case "max":
					acc = max(acc, x)
				case "mean":
					w := float64(from[k].FieldByName(arg).Int())
					acc += x * w
					weight += w
				default:
					acc += x
				}
			}
			if rule == "mean" && weight > 0 {
				acc /= weight
			}
			d.SetFloat(acc)
		}
	}
}

// mergeKeyed merges slices of structs by the string field key: elements
// group across shards by its value, in first-seen order, and each group
// merges by its own tags.
func mergeKeyed(dst reflect.Value, srcs []reflect.Value, key string) {
	var order []string
	groups := map[string][]reflect.Value{}
	for _, s := range srcs {
		for j := 0; j < s.Len(); j++ {
			e := s.Index(j)
			k := e.FieldByName(key).String()
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], e)
		}
	}
	out := reflect.MakeSlice(dst.Type(), len(order), len(order))
	for i, k := range order {
		mergeStruct(out.Index(i), groups[k])
	}
	dst.Set(out)
}

// MarshalJSON renders the GET /v1/stats body.
func (st Stats) MarshalJSON() ([]byte, error) { return MarshalStats(&st) }

// MarshalStats encodes the struct v points to as a /v1/stats body: a JSON
// object whose members come in key order, embedded structs flattened and
// struct-valued members encoded the same way — byte for byte what the
// map-built bodies were. omitempty members are left out when zero. Any
// other member goes through encoding/json, so the objects of an array
// (drift.series) keep their declared order unless their type marshals
// itself.
func MarshalStats(v interface{}) ([]byte, error) {
	return appendSorted(nil, reflect.ValueOf(v).Elem())
}

func appendSorted(dst []byte, v reflect.Value) ([]byte, error) {
	type member struct {
		key string
		val reflect.Value
	}
	var members []member
	var collect func(v reflect.Value)
	collect = func(v reflect.Value) {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			key, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous:
				collect(fv)
			case key == "-" || opt == "omitempty" && fv.IsZero():
			default:
				members = append(members, member{key, fv})
			}
		}
	}
	collect(v)
	sort.Slice(members, func(i, j int) bool { return members[i].key < members[j].key })
	dst = append(dst, '{')
	for i, m := range members {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(strconv.AppendQuote(dst, m.key), ':')
		fv := m.val
		if fv.Kind() == reflect.Pointer && !fv.IsNil() {
			fv = fv.Elem()
		}
		var err error
		if fv.Kind() == reflect.Struct {
			dst, err = appendSorted(dst, fv)
		} else {
			var enc []byte
			enc, err = json.Marshal(fv.Interface())
			dst = append(dst, enc...)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}
