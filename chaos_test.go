package titant_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"titant"
	"titant/internal/faultinject"
	"titant/internal/link"
	"titant/internal/loadgen"
	"titant/internal/ms"
	"titant/internal/router"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// TestChaosWireTierShardOutage is the chaos gate: a 4-shard wire fleet
// under a seeded fault script loses one shard to a scripted blackhole
// mid-run and must prove, phase by phase, that the resilience plane
// holds:
//
//  1. healthy baseline — the full labeled replay through the router
//     clears the ci/slo.json latency ceilings and recall floors;
//  2. outage — the victim's items come back as typed shard_unavailable
//     degraded envelopes (decide items carrying the fail-closed
//     fallback action, never a silent wrong verdict), the victim's
//     breaker trips, and traffic owned by the three surviving shards
//     still clears the pinned latency ceilings;
//  3. revival — when the scripted window closes the breaker half-opens,
//     a probe closes it, and a full replay returns recall to the pinned
//     floors.
//
// The workload, the fault schedule and the backoff jitter are all
// seeded, so a failure here is a resilience regression, not noise.
func TestChaosWireTierShardOutage(t *testing.T) {
	const (
		shardsN = 4
		victim  = 1
		// replayRate paces the full-replay phases. The whole fleet —
		// four shard engines, the router and the driver — shares this
		// process's CPU budget, so the rate is modest: the gate proves
		// resilience semantics, not peak throughput.
		replayRate = 900.0
	)
	sloDoc, err := os.ReadFile("ci/slo.json")
	if err != nil {
		t.Fatal(err)
	}
	slo, err := loadgen.ParseSLO(sloDoc)
	if err != nil {
		t.Fatal(err)
	}

	// Build and serve the composed world, as the detection gate does.
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 1200
	world, man := titant.ComposeWorld(cfg, titant.DefaultScenarioMix())
	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 40
	opts.LR.Iterations = 5
	opts.DW.WalksPerNode = 3
	opts.S2V.Epochs = 2
	art, err := titant.Train(world.Users, ds, servedSpec, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := art.Deploy(titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0), "chaos")
	if err != nil {
		t.Fatal(err)
	}

	// Four shard servers over the replicated table, each with its own
	// warmed stream window, behind real HTTP listeners.
	urls := make([]string, shardsN)
	for i := 0; i < shardsN; i++ {
		st := titant.NewStreamStore(titant.WithStreamCities(opts.Cities))
		st.IngestBatch(ds.Network)
		eng, err := titant.NewEngine(tab, bundle, titant.WithStreamAggregates(st))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		hs := httptest.NewServer(eng.Handler())
		defer hs.Close()
		urls[i] = hs.URL
	}

	// Both wire hops reuse connections aggressively: the default
	// transports keep only two idle conns per host, and the redial storm
	// at load-test rates costs more CPU and ports than the requests.
	wire := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}
	defer wire.CloseIdleConnections()
	clientSide := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 256}
	defer clientSide.CloseIdleConnections()
	cut := txn.Day(txn.NetworkDays + txn.TrainDays)
	var replay []txn.Transaction
	for i := range world.Log {
		if world.Log[i].Day >= cut {
			replay = append(replay, world.Log[i])
		}
	}

	// Phase windows, derived from how long a full replay takes at the
	// pinned rate (plus slack for slow machines and -race): the scripted
	// blackhole opens after the healthy phase and closes after the
	// degraded phase plus the direct breaker assertions. Each window
	// leaves room for one retry of its phase — see fullReplay below.
	fullDur := time.Duration(float64(len(replay))/replayRate*float64(time.Second)) + 500*time.Millisecond
	outageAt := 2*fullDur + 3*time.Second
	revureAt := outageAt + 11*time.Second // outage window closes here

	// The seeded fault script: blackhole the victim shard for the
	// scripted window, then give it back.
	scenario := &faultinject.Scenario{Seed: 99, Rules: []faultinject.Rule{{
		Shard:   victim,
		Kind:    faultinject.KindBlackhole,
		StartMs: outageAt.Milliseconds(),
		EndMs:   revureAt.Milliseconds(),
	}}}
	rt, err := router.New(urls,
		router.WithTransport(wire),
		router.WithTimeout(80*time.Millisecond),
		router.WithRetries(1, 5*time.Millisecond, 10*time.Millisecond),
		router.WithBreaker(router.BreakerConfig{ConsecutiveFails: 3, Cooldown: 200 * time.Millisecond}),
		router.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// The faults are injected above the shard link: the outage is played
	// over the production path.
	var chaos *faultinject.Transport
	rt.Wrap(func(lk link.Caller) link.Caller {
		chaos = faultinject.NewTransport(lk, scenario)
		return chaos
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	target := &loadgen.HTTPTarget{BaseURL: front.URL, Client: &http.Client{Transport: clientSide}}
	runPhase := func(name string, dur time.Duration, rate float64, rep []txn.Transaction) *loadgen.Report {
		t.Helper()
		r, err := loadgen.Run(context.Background(), loadgen.Config{
			Schedule: loadgen.Constant{Rate: rate},
			Duration: dur,
			Seed:     7,
			Mix:      loadgen.OpMix{Score: 1},
			Users:    10000,
			Shards:   shardsN,
			Replay:   rep,
			Manifest: man,
		}, target)
		if err != nil {
			t.Fatalf("%s phase: %v", name, err)
		}
		return r
	}
	routerSection := func() map[string]interface{} {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats["router"].(map[string]interface{})
	}
	victimBreaker := func() map[string]interface{} {
		return routerSection()["breakers"].([]interface{})[victim].(map[string]interface{})
	}

	// Warm the wire path before the fault clock starts: connections, the
	// engines' first-request paths and the post-training heap all settle
	// outside the measured phases.
	runPhase("warmup", time.Second, 300, nil)
	runtime.GC()

	latencyOnly := func(v []string) bool {
		for _, s := range v {
			if !strings.Contains(s, "latency") {
				return false
			}
		}
		return len(v) > 0
	}

	start := time.Now()
	chaos.Start(start)

	// fullReplay drives the whole labeled replay through the router and
	// holds it to the pinned SLO. A latency-only breach gets one retry if
	// the fault schedule leaves room: on a shared single-core runner one
	// stray scheduler or GC stall queues hundreds of arrivals and blows
	// the tail ceilings without any shard misbehaving, and a genuine
	// regression fails twice. Errors, degraded answers, replay coverage
	// and recall are never retried.
	fullReplay := func(name string, notAfter time.Time) *loadgen.Report {
		t.Helper()
		for attempt := 0; ; attempt++ {
			rep := runPhase(name, fullDur, replayRate, replay)
			if rep.Errors != 0 || rep.Degraded != 0 {
				t.Fatalf("%s phase not clean: %d errors, %d degraded", name, rep.Errors, rep.Degraded)
			}
			if rep.Replayed != int64(len(replay)) {
				t.Fatalf("%s phase replayed %d of %d", name, rep.Replayed, len(replay))
			}
			v := rep.CheckSLO(slo)
			if len(v) == 0 {
				return rep
			}
			if attempt == 0 && latencyOnly(v) && time.Now().Add(fullDur+time.Second).Before(notAfter) {
				t.Logf("%s phase hit a latency blip, retrying once: %v", name, v)
				continue
			}
			t.Fatalf("%s phase SLO violations: %v", name, v)
		}
	}

	// Phase 1: healthy fleet, full replay, the pinned SLO holds end to
	// end through the wire tier.
	healthy := fullReplay("healthy", start.Add(outageAt))

	// The scripted outage begins.
	time.Sleep(time.Until(start.Add(outageAt)))

	// The victim's items degrade with typed errors; decide carries the
	// fail-closed fallback. Hammering the dead shard trips its breaker.
	victimUser := int32(-1)
	for u := 0; u < 10000; u++ {
		if ms.ShardOf(txn.UserID(u), shardsN) == victim {
			victimUser = int32(u)
			break
		}
	}
	single := []byte(fmt.Sprintf(`{"id":900001,"from":%d,"amount":25}`, victimUser))
	tripped := false
	for i := 0; i < 20 && !tripped; i++ {
		resp, err := http.Post(front.URL+"/v1/score", "application/json", bytes.NewReader(single))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("score to blackholed shard: %d, want 503", resp.StatusCode)
		}
		st := victimBreaker()["state"].(string)
		tripped = st == "open" || st == "half_open"
	}
	if !tripped {
		t.Fatal("victim breaker never tripped under the blackhole")
	}

	// The degraded decide path must not lose the caller's trace identity:
	// the adopted X-Trace-Id rides through the breaker-open fallback onto
	// both the response header and the fallback envelope itself.
	const chaosTrace = "c4a05c4a05c4a05c4a05c4a05c4a05aa"
	dreq, err := http.NewRequest(http.MethodPost, front.URL+"/v1/decide", bytes.NewReader(single))
	if err != nil {
		t.Fatal(err)
	}
	dreq.Header.Set("Content-Type", "application/json")
	dreq.Header.Set(telemetry.TraceHeader, chaosTrace)
	resp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	var dd ms.DegradedDecision
	err = json.NewDecoder(resp.Body).Decode(&dd)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded decide: status %d, err %v", resp.StatusCode, err)
	}
	if !dd.Degraded || dd.Action != ms.FallbackActionReview ||
		dd.Error == nil || dd.Error.Code != ms.CodeShardUnavailable || dd.Error.Shard != victim {
		t.Fatalf("degraded decide envelope = %+v", dd)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != chaosTrace {
		t.Fatalf("degraded decide response trace = %q, want adopted %q", got, chaosTrace)
	}
	if dd.TraceID != chaosTrace {
		t.Fatalf("degraded decide envelope trace_id = %q, want %q", dd.TraceID, chaosTrace)
	}

	// Phase 2: traffic through the degraded fleet. The victim's items
	// fast-fail into typed degraded envelopes (counted apart from
	// errors), so the surviving shards' answers still clear the pinned
	// latency ceilings — the recall floors are deliberately absent here,
	// since a quarter of the fraud is dark by design.
	sloDegraded := &loadgen.SLO{MaxP99Ms: slo.MaxP99Ms, MaxP999Ms: slo.MaxP999Ms, MaxErrorRate: slo.MaxErrorRate}
	outage := runPhase("outage", 1500*time.Millisecond, 600, replay)
	if v := outage.CheckSLO(sloDegraded); latencyOnly(v) && time.Now().Add(2*time.Second).Before(start.Add(revureAt)) {
		t.Logf("outage phase hit a latency blip, retrying once: %v", v)
		outage = runPhase("outage", 1500*time.Millisecond, 600, replay)
	}
	if v := outage.CheckSLO(sloDegraded); len(v) != 0 {
		t.Fatalf("outage phase SLO violations on surviving shards: %v", v)
	}
	if outage.Degraded == 0 {
		t.Fatal("outage phase produced no degraded envelopes — was the shard really dark?")
	}

	// Phase 3: the scripted window closes; the breaker half-opens, a
	// probe succeeds and the circuit closes.
	time.Sleep(time.Until(start.Add(revureAt + 100*time.Millisecond)))
	revived := false
	for i := 0; i < 40 && !revived; i++ {
		resp, err := http.Post(front.URL+"/v1/score", "application/json", bytes.NewReader(single))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		revived = resp.StatusCode == http.StatusOK
		if !revived {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !revived {
		t.Fatal("victim shard never served again after the fault window closed")
	}
	brk := victimBreaker()
	if brk["state"] != "closed" {
		t.Fatalf("victim breaker %v after revival, want closed", brk["state"])
	}
	if brk["opens"].(float64) < 1 || brk["half_opens"].(float64) < 1 || brk["probes"].(float64) < 1 {
		t.Fatalf("breaker lifecycle counters = %v, want opens/half_opens/probes >= 1", brk)
	}

	// Full replay again: recall is back at the pinned floors. No fault
	// window constrains this phase, so the retry bound is generous.
	recovered := fullReplay("recovered", time.Now().Add(time.Hour))
	if recovered.Recall < healthy.Recall-0.05 {
		t.Fatalf("recall %.3f after revival, was %.3f before the outage", recovered.Recall, healthy.Recall)
	}

	// The /healthz satellite view agrees throughout: with one of four
	// shards dark the fleet reported degraded-but-200 (quorum 3 of 4
	// held); healthy again now.
	var health map[string]interface{}
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil || hresp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("post-revival health: status %d, body %v (err %v)", hresp.StatusCode, health, err)
	}
}
