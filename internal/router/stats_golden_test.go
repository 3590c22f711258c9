package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/model/lr"
	"titant/internal/ms"
	"titant/internal/rng"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// The operator-surface goldens under testdata/golden (stats_*, metrics_*,
// healthz_*) hold GET /v1/stats, /metrics and /healthz of the serving
// tiers — one engine, 3 shard servers behind a router — after fixed
// traffic with every subsystem on. They were written by this test,
// -update, on a checkout of 6892404, the commit before the five stats /
// merge / metrics renderings became one typed snapshot. stats_router.json
// was then re-written once on the change itself: the members of its
// drift.series[] objects moved from key order to the order the shards
// send them in (name, baseline, live, psi, ks, alert), and nothing else.
//
// An engine over a partitioned store has no goldens of its own: its pages
// must be the one-engine goldens, byte for byte, once the shard count —
// the only thing that tells the two apart — is put back to one.

const goldenUsers = 48

func goldenBundle(t testing.TB, version string, threshold float64, seed uint64) *ms.Bundle {
	t.Helper()
	r := rng.New(seed)
	n := 2000
	m := feature.NewMatrix(n, feature.NumBasic)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		amt := r.Float64() * 2000
		m.Set(i, 0, amt)
		m.Set(i, 1, math.Log1p(amt))
		labels[i] = amt > 1200 && r.Bool(0.9)
	}
	clf := lr.Train(m, labels, lr.Config{Bins: 32, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 10, Seed: seed})
	city := feature.CityTable{Fraud: []float64{0.01, 0.2}, Share: []float64{0.9, 0.1}}
	b, err := ms.NewBundle(version, clf, threshold, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type goldenSink interface {
	PutUser(u *txn.User, emb []float32) error
}

func goldenSeed(t testing.TB, sink goldenSink) {
	t.Helper()
	for i := txn.UserID(0); i < goldenUsers; i++ {
		u := txn.User{ID: i, Age: uint8(20 + int(i)%40), HomeCity: uint16(i % 4), AvgAmount: float32(10 + i)}
		if err := sink.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func goldenTable(t testing.TB) *hbase.Table {
	t.Helper()
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab
}

// goldenOpts turns every subsystem on: stream window, user cache, policy,
// admission (quotas far above the traffic, so nothing is shed on a slow
// machine), shadow challenger, drift monitor, event log.
func goldenOpts(t testing.TB) []ms.Option {
	t.Helper()
	pol, err := decision.Parse([]byte(`{
	  "version": "pol-1",
	  "scenarios": {
	    "default": {
	      "bands": [
	        {"min": 0, "max": 0.3, "action": "approve"},
	        {"min": 0.3, "max": 0.8, "action": "challenge"},
	        {"min": 0.8, "max": 1, "action": "deny"}
	      ],
	      "rules": [
	        {"name": "amount-ceiling", "when": [{"field": "amount", "op": ">", "value": 1900}], "action": "deny"}
	      ]
	    },
	    "withdrawal": {
	      "bands": [
	        {"min": 0, "max": 0.5, "action": "approve"},
	        {"min": 0.5, "max": 1, "action": "deny"}
	      ]
	    }
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return []ms.Option{
		ms.WithWorkers(1),
		ms.WithStreamAggregates(stream.New(stream.WithCities(4), stream.WithWindow(8, 86400))),
		ms.WithUserCache(3 * 64),
		ms.WithPolicy(pol),
		ms.WithCallerQuota(1e6, 1e6),
		ms.WithMaxInflight(4096),
		ms.WithShadow(goldenBundle(t, "2017-04-17", 0.8, 2)),
		ms.WithShadowQueue(4096),
		ms.WithDriftMonitor(decision.DriftConfig{BaselineSamples: 60, MinLiveSamples: 20}),
		ms.WithEventLog(t.TempDir()),
	}
}

func goldenDo(t testing.TB, h http.Handler, method, path, caller string, body []byte, want int) []byte {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if caller != "" {
		req.Header.Set("X-Caller", caller)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != want {
		t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

func goldenPost(t testing.TB, h http.Handler, path, caller string, body []byte) {
	t.Helper()
	goldenDo(t, h, http.MethodPost, path, caller, body, http.StatusOK)
}

func goldenGet(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	return goldenDo(t, h, http.MethodGet, path, "", nil, http.StatusOK)
}

// goldenTraffic drives every verb, single and batch, in a fixed order.
// The singles come first and touch every user, so by the time the router
// scatters a batch across shards the user caches only ever hit —
// concurrent sub-batches then cannot reorder a miss against a load.
func goldenTraffic(t testing.TB, h http.Handler) {
	t.Helper()
	r := rng.New(11)
	row := func(i int, extra string) string {
		return fmt.Sprintf(`{"id":%d,"day":1,"sec":%d,"from":%d,"to":%d,"amount":%.2f,"trans_city":%d%s}`,
			i+1, i, i%goldenUsers, (i*7+3)%goldenUsers, r.Float64()*2000, r.Intn(4), extra)
	}
	batch := func(lo, hi int, extra func(i int) string) []byte {
		rows := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, row(i, extra(i)))
		}
		return []byte(`{"transactions":[` + strings.Join(rows, ",") + `]}`)
	}
	none := func(int) string { return "" }
	fraud := func(i int) string { return fmt.Sprintf(`,"fraud":%t`, i%9 == 0) }
	scenario := func(i int) string {
		return fmt.Sprintf(`,"scenario":%q`, []string{"", "payment", "withdrawal"}[i%3])
	}
	callers := []string{"alice", "bob", ""}
	for i := 0; i < goldenUsers; i++ {
		goldenPost(t, h, "/v1/ingest", callers[i%3], []byte(row(i, fraud(i))))
	}
	goldenPost(t, h, "/v1/ingest/batch", "alice", batch(100, 130, fraud))
	for i := 0; i < goldenUsers; i++ {
		goldenPost(t, h, "/v1/score", callers[i%3], []byte(row(200+i, "")))
	}
	for i := 0; i < goldenUsers; i++ {
		goldenPost(t, h, "/v1/decide", callers[i%3], []byte(row(300+i, scenario(i))))
	}
	for k := 0; k < 2; k++ {
		goldenPost(t, h, "/v1/score/batch", "bob", batch(400+40*k, 440+40*k, none))
		goldenPost(t, h, "/v1/decide/batch", "", batch(500+40*k, 540+40*k, scenario))
	}
	// A refused request still lands in its endpoint histogram.
	goldenDo(t, h, http.MethodPost, "/v1/decide", "alice", []byte(`{bad`), http.StatusBadRequest)
	goldenDo(t, h, http.MethodPost, "/v1/ingest", "alice", []byte(`{bad`), http.StatusBadRequest)
}

// goldenSettle waits until every scored transaction has been through the
// asynchronous shadow worker of the engine behind h, so the shadow
// counters (and the event log, which records each comparison before it
// is counted) have reached their final values.
func goldenSettle(t testing.TB, h http.Handler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st struct {
			Scored int64 `json:"scored"`
			Shadow struct {
				Scored  int64 `json:"scored"`
				Dropped int64 `json:"dropped"`
				Errors  int64 `json:"errors"`
			} `json:"shadow"`
		}
		if err := json.Unmarshal(goldenGet(t, h, "/v1/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if st.Shadow.Scored+st.Shadow.Dropped+st.Shadow.Errors >= st.Scored {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow worker never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

var (
	maskJSONNumber = regexp.MustCompile(`"(p50_us|p99_us|max_us|max_ns|fsyncs|unsynced_bytes|last_fsync_age_seconds)":[-+.eE0-9]+`)
	maskJSONCounts = regexp.MustCompile(`"counts":\[[^\]]*\]`)
	numberArray    = regexp.MustCompile(`\[\s+[-+.eE0-9,\s]+\]`)
	space          = regexp.MustCompile(`\s+`)
	bucketLE       = regexp.MustCompile(`le="[^"]*"`)
	shardCount     = regexp.MustCompile(`(?m)("shards": |^titant_engine_shards )\d+`)
	healthShards   = regexp.MustCompile(`,\s*"shards": \d+(\s*\}\s*)$`)
	maskSample     = regexp.MustCompile(`(?m)^(titant_stage_latency_seconds\w*|\w+_seconds(?:_bucket|_sum)?|titant_eventlog_fsyncs_total|titant_eventlog_unsynced_bytes)((?:\{[^}]*\})?) \S+$`)
)

// maskTiming is the one normaliser of the operator goldens: it replaces
// the numbers that depend on how fast the machine ran — histogram bucket
// counts and sums, the *_us and *_seconds readings, fsync and
// unsynced-byte counters — with "~", in a JSON body and in a Prometheus
// page alike, and keeps everything else: key and family order, every
// counter, every gauge, the bucket bounds of the JSON histograms. (Stage
// histograms lose their sample count too: a stage that rounds to zero
// nanoseconds is not recorded.) A JSON body is also indented, one numeric
// array per line; a page's bucket lines fold to one per series.
func maskTiming(page []byte) []byte {
	if !bytes.HasPrefix(page, []byte("{")) {
		// One histogram series' run of masked bucket lines folds into one
		// line carrying the bucket count.
		var out []string
		run := 0
		for _, line := range strings.Split(string(maskSample.ReplaceAll(page, []byte("$1$2 ~"))), "\n") {
			if strings.Contains(line, "_bucket{") {
				line = bucketLE.ReplaceAllString(line, `le="*"`)
				if n := len(out); n > 0 && strings.HasPrefix(out[n-1], line) {
					run++
					out[n-1] = fmt.Sprintf("%s x%d", line, run)
					continue
				}
				run = 1
			}
			out = append(out, line)
		}
		return []byte(strings.Join(out, "\n"))
	}
	page = maskJSONNumber.ReplaceAll(page, []byte(`"$1":"~"`))
	page = maskJSONCounts.ReplaceAll(page, []byte(`"counts":"~"`))
	var out bytes.Buffer
	if err := json.Indent(&out, page, "", "  "); err != nil {
		return page
	}
	return numberArray.ReplaceAllFunc(out.Bytes(), func(a []byte) []byte { return space.ReplaceAll(a, nil) })
}

// goldenPage is one operator route and the golden file stem it pins.
type goldenPage struct{ name, path, ext string }

// oneShard rewrites the shard-count members of a partitioned engine's
// page to what one table reports: 1 on /v1/stats and /metrics, and no
// member at all on /healthz, which names a width only when partitioned.
func oneShard(page []byte) []byte {
	page = healthShards.ReplaceAll(page, []byte("$1"))
	return shardCount.ReplaceAll(page, []byte("${1}1"))
}

// goldenCompare checks (or, with -update, writes) one tier's pages. A
// ring-N tier is checked against the server goldens through oneShard.
func goldenCompare(t *testing.T, tier string, h http.Handler, pages []goldenPage) {
	t.Helper()
	ring := strings.HasPrefix(tier, "ring-")
	for _, page := range pages {
		got := maskTiming(goldenGet(t, h, page.path))
		file := filepath.Join("testdata", "golden", page.name+"_"+tier+page.ext)
		if ring {
			got, file = oneShard(got), filepath.Join("testdata", "golden", page.name+"_server"+page.ext)
		}
		if *updateGolden && !ring {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s of the %s tier differs from %s\n got: %s\nwant: %s", page.path, tier, file, got, want)
		}
	}
}

// eachTier builds each serving tier with the same configuration and hands
// run its handler, plus the handlers of the engines behind it (the tier
// itself, or the router's shards) for reads that must not pass through
// the router.
func eachTier(t *testing.T, run func(t *testing.T, tier string, h http.Handler, engines []http.Handler)) {
	t.Run("server", func(t *testing.T) {
		tab := goldenTable(t)
		goldenSeed(t, &ms.Uploader{Table: tab})
		srv, err := ms.New(tab, goldenBundle(t, "2017-04-10", 0.5, 1), goldenOpts(t)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		h := srv.Handler()
		run(t, "server", h, []http.Handler{h})
	})
	for _, width := range []int{3, 8} {
		tier := fmt.Sprintf("ring-%d", width)
		t.Run(tier, func(t *testing.T) {
			tabs := make([]*hbase.Table, width)
			for i := range tabs {
				tabs[i] = goldenTable(t)
			}
			goldenSeed(t, ms.NewShardedUploader(tabs, 0))
			se, err := ms.NewSharded(tabs, goldenBundle(t, "2017-04-10", 0.5, 1), goldenOpts(t)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(se.Close)
			h := se.Handler()
			run(t, tier, h, []http.Handler{h})
		})
	}
	t.Run("router", func(t *testing.T) {
		fleet := goldenTransport{}
		urls := make([]string, 3)
		shards := make([]http.Handler, len(urls))
		bundle := goldenBundle(t, "2017-04-10", 0.5, 1)
		for i := range urls {
			tab := goldenTable(t)
			goldenSeed(t, &ms.Uploader{Table: tab})
			srv, err := ms.New(tab, bundle, goldenOpts(t)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			host := fmt.Sprintf("shard%d", i)
			shards[i] = srv.Handler()
			fleet[host], urls[i] = shards[i].ServeHTTP, "http://"+host
		}
		rt, err := New(urls, WithTransport(fleet), WithRetries(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		run(t, "router", rt.Handler(), shards)
	})
}

// goldenTiers drives the fixed traffic through each tier and compares its
// pages.
func goldenTiers(t *testing.T, pages ...goldenPage) {
	eachTier(t, func(t *testing.T, tier string, h http.Handler, engines []http.Handler) {
		goldenTraffic(t, h)
		// Settled engine by engine: a GET through the router would move its
		// own breaker and latency counters.
		for _, e := range engines {
			goldenSettle(t, e)
		}
		goldenCompare(t, tier, h, pages)
	})
}

// TestStatsGolden pins GET /v1/stats (and /healthz) of every tier to the
// bytes the map-built bodies produced.
func TestStatsGolden(t *testing.T) {
	goldenTiers(t, goldenPage{"stats", "/v1/stats", ".json"}, goldenPage{"healthz", "/healthz", ".json"})
}

// TestMetricsGolden pins GET /metrics of every tier to the bytes the
// hand-listed exposition produced.
func TestMetricsGolden(t *testing.T) {
	goldenTiers(t, goldenPage{"metrics", "/metrics", ".txt"})
}

// TestStatsOneInstant: every latency section of one /v1/stats body comes
// from one reading of its histogram, so the percentiles a body reports
// are exactly the quantiles of the raw buckets it carries — on every
// tier, while the engine is scoring. (The map-built bodies read each
// histogram twice; a router merging the buckets then disagreed with the
// shard that sent them.)
func TestStatsOneInstant(t *testing.T) {
	type section struct {
		P50  int64 `json:"p50_us"`
		P99  int64 `json:"p99_us"`
		Max  int64 `json:"max_us"`
		Hist *struct {
			Bounds []time.Duration `json:"bounds_ns"`
			Counts []int64         `json:"counts"`
			Max    time.Duration   `json:"max_ns"`
		} `json:"hist"`
	}
	eachTier(t, func(t *testing.T, tier string, h http.Handler, _ []http.Handler) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; ; i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					row := fmt.Sprintf(`{"id":%d,"day":1,"sec":%d,"from":%d,"to":%d,"amount":%d}`, i+1, i%86400, i%goldenUsers, (i+5)%goldenUsers, i%2000)
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(row)))
				}
			}()
		}
		defer func() { close(stop); wg.Wait() }()
		for round := 0; round < 300; round++ {
			var body struct {
				section
				Hist      json.RawMessage    `json:"latency_hist"`
				Endpoints map[string]section `json:"endpoints"`
			}
			if err := json.Unmarshal(goldenGet(t, h, "/v1/stats"), &body); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(body.Hist, &body.section.Hist); err != nil {
				t.Fatal(err)
			}
			sections := map[string]section{"scoring": body.section}
			for name, ep := range body.Endpoints {
				sections["endpoints."+name] = ep
			}
			for name, sec := range sections {
				var total int64
				for _, c := range sec.Hist.Counts {
					total += c
				}
				q := func(p float64) int64 {
					return telemetry.Quantile(sec.Hist.Bounds, sec.Hist.Counts, total, sec.Hist.Max, p).Microseconds()
				}
				if sec.P50 != q(0.50) || sec.P99 != q(0.99) || sec.Max != sec.Hist.Max.Microseconds() {
					t.Fatalf("round %d, %s: the body says p50/p99/max = %d/%d/%dµs, its own %d buckets say %d/%d/%dµs",
						round, name, sec.P50, sec.P99, sec.Max, total, q(0.50), q(0.99), sec.Hist.Max.Microseconds())
				}
			}
		}
	})
}
