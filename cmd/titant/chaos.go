package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"titant"
	"titant/internal/faultinject"
	"titant/internal/link"
	"titant/internal/loadgen"
	"titant/internal/router"
	"titant/internal/txn"
)

// servingFleet is the trained, deployed state every in-process loadgen
// mode serves from: the composed world and its ground-truth manifest,
// the model bundle, and one feature table per shard.
type servingFleet struct {
	world     *titant.World
	man       *titant.WorldManifest
	network   []txn.Transaction
	bundle    *titant.Bundle
	tabs      []*titant.FeatureTable
	opts      titant.Options
	threshold float64
	version   string
	cleanup   func()
}

// composeAndDeploy builds the scenario world, trains the requested
// ensemble and uploads it across shards feature tables in a temp dir:
// partitions of one engine's store (ms.NewSharded). A wire fleet asks for
// one table and gives every shard server all of it.
func composeAndDeploy(users int, seed uint64, shards int, detectors, combineName string, fast bool) (*servingFleet, error) {
	wcfg := titant.DefaultWorldConfig()
	if users > 0 {
		wcfg.Users = users
	}
	if seed > 0 {
		wcfg.Seed = seed
	}
	w, man := titant.ComposeWorld(wcfg, titant.DefaultScenarioMix())
	ds, err := w.Dataset(1)
	if err != nil {
		return nil, err
	}
	dets, err := parseDetectors(detectors)
	if err != nil {
		return nil, err
	}
	combine, err := titant.ParseCombiner(combineName)
	if err != nil {
		return nil, err
	}
	opts := titant.DefaultOptions()
	if fast {
		opts.GBDT.Trees = 40
		opts.LR.Iterations = 5
		opts.DW.WalksPerNode = 3
		opts.S2V.Epochs = 2
	}
	log.Printf("composing scenario world (%d users, seed %d): %d labeled scenarios", wcfg.Users, wcfg.Seed, len(man.Scenarios))
	log.Printf("training %d-member ensemble (%s, combiner %s)...", len(dets), detectors, combine)
	members, emb, threshold, err := titant.TrainEnsembleForServing(w.Users, ds, dets, combine, opts)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	dir, err := os.MkdirTemp("", "titant-loadgen-*")
	if err != nil {
		return nil, err
	}
	rmdir := func() { os.RemoveAll(dir) }
	tabs := make([]*titant.FeatureTable, shards)
	closeTabs := func() {
		for _, tb := range tabs {
			if tb != nil {
				tb.Close()
			}
		}
	}
	for i := range tabs {
		sd := dir
		if shards > 1 {
			sd = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		}
		if tabs[i], err = titant.OpenFeatureTable(sd); err != nil {
			closeTabs()
			rmdir()
			return nil, err
		}
	}
	version := "loadgen-" + time.Now().Format("2006-01-02T15:04:05")
	log.Printf("uploading %d users to the feature store (%d shard(s))...", len(w.Users), shards)
	bundle, err := titant.DeployEnsembleTo(w.Users, ds, emb, members, combine, threshold, opts,
		titant.NewShardedUploader(tabs, 0), version)
	if err != nil {
		closeTabs()
		rmdir()
		return nil, err
	}
	return &servingFleet{
		world: w, man: man, network: ds.Network,
		bundle: bundle, tabs: tabs, opts: opts,
		threshold: threshold, version: version,
		cleanup: func() { closeTabs(); rmdir() },
	}, nil
}

// engineOpts assembles one engine's options: policy enabled, a fresh
// stream window warmed from the reference network, admission from the
// CLI flags. Each call builds its own stream store, so every chaos
// shard carries the full aggregate state — replicated warmup keeps a
// shard's verdicts identical to a single engine's.
func (f *servingFleet) engineOpts(quota float64, burst, maxInflight int) []titant.EngineOption {
	st := titant.NewStreamStore(titant.WithStreamCities(f.opts.Cities))
	st.IngestBatch(f.network)
	engOpts := []titant.EngineOption{
		titant.WithPolicy(titant.DefaultPolicy(f.version, f.threshold)),
		titant.WithStreamAggregates(st),
	}
	if quota > 0 {
		if burst <= 0 {
			burst = int(2 * quota)
		}
		engOpts = append(engOpts, titant.WithCallerQuota(quota, burst))
	}
	if maxInflight > 0 {
		engOpts = append(engOpts, titant.WithMaxInflight(maxInflight))
	}
	return engOpts
}

// chaosFleet is the -chaos harness: shard servers on loopback
// listeners, a resilient router in front, and the scripted fault
// transport wedged between them.
type chaosFleet struct {
	routerURL string
	scenario  *faultinject.Scenario
	tr        *faultinject.Transport
	client    *http.Client
	closeOnce sync.Once
	closers   []func()
}

func (c *chaosFleet) cleanup() {
	c.closeOnce.Do(func() {
		for i := len(c.closers) - 1; i >= 0; i-- {
			c.closers[i]()
		}
	})
}

// serveLoopback serves h on an ephemeral loopback port and returns its
// base URL plus a closer.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// buildChaosFleet stands up the in-process wire fleet for a chaos run:
// shards shard servers (each a full engine over the whole feature
// store), a router carrying the resilience plane, and the
// seeded fault scenario injected into the router's transport. The
// labeled replay and manifest land in cfg for detection grading.
func buildChaosFleet(cfg *loadgen.Config, scenarioPath string, shards, users int, seed uint64,
	detectors, combineName string, fast bool, quota float64, burst, maxInflight int,
	runDur time.Duration, routerSeed uint64) (*chaosFleet, error) {
	raw, err := os.ReadFile(scenarioPath)
	if err != nil {
		return nil, err
	}
	sc, err := faultinject.ParseScenario(raw)
	if err != nil {
		return nil, err
	}
	if shards < 2 {
		return nil, fmt.Errorf("-chaos needs -shards >= 2 (a fleet with nothing to lose proves nothing)")
	}
	for i, r := range sc.Rules {
		if r.Shard >= shards {
			return nil, fmt.Errorf("scenario rule %d targets shard %d of a %d-shard fleet", i, r.Shard, shards)
		}
		if r.EndMs > 0 && time.Duration(r.EndMs)*time.Millisecond > runDur {
			log.Printf("warning: rule %d window closes at %dms, after the %s run — its recovery will not be observed", i, r.EndMs, runDur)
		}
	}

	// One full table that every shard server reads, as a wire fleet's
	// shards each hold the whole store: a receiver another shard owns
	// scores from its row, not as a cold start.
	f, err := composeAndDeploy(users, seed, 1, detectors, combineName, fast)
	if err != nil {
		return nil, err
	}
	c := &chaosFleet{scenario: sc}
	c.closers = append(c.closers, f.cleanup)
	ok := false
	defer func() {
		if !ok {
			c.cleanup()
		}
	}()

	urls := make([]string, shards)
	for i := range urls {
		eng, err := titant.NewEngine(f.tabs[0], f.bundle, f.engineOpts(quota, burst, maxInflight)...)
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, eng.Close)
		url, closeSrv, err := serveLoopback(eng.Handler())
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, closeSrv)
		urls[i] = url
	}

	// Generous keep-alive pools on both hops: at load-test rates the
	// default transports redial constantly, and the churn costs more
	// than the requests.
	wire := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}
	c.closers = append(c.closers, wire.CloseIdleConnections)
	rt, err := router.New(urls,
		router.WithTransport(wire),
		router.WithTimeout(250*time.Millisecond),
		router.WithBreaker(router.BreakerConfig{Cooldown: 500 * time.Millisecond}),
		router.WithSeed(routerSeed),
	)
	if err != nil {
		return nil, err
	}
	c.closers = append(c.closers, rt.Close)
	// The faults sit above the shard link: the production path is what
	// they break.
	rt.Wrap(func(lk link.Caller) link.Caller {
		c.tr = faultinject.NewTransport(lk, sc)
		return c.tr
	})
	c.routerURL, err = func() (string, error) {
		url, closeSrv, err := serveLoopback(rt.Handler())
		if err != nil {
			return "", err
		}
		c.closers = append(c.closers, closeSrv)
		return url, nil
	}()
	if err != nil {
		return nil, err
	}
	clientSide := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 256}
	c.closers = append(c.closers, clientSide.CloseIdleConnections)
	c.client = &http.Client{Transport: clientSide}

	cfg.Replay = testWindow(f.world.Log)
	cfg.Manifest = f.man
	cfg.Shards = shards
	c.tr.Start(time.Now())
	ok = true
	return c, nil
}

// disruptive reports whether a rule's fault class should trip a
// breaker when it fires on every matched request.
func disruptive(r *faultinject.Rule) bool {
	switch r.Kind {
	case faultinject.KindBlackhole, faultinject.KindReset, faultinject.KindDropResponse:
		return true
	case faultinject.KindHTTPError:
		return r.Status == 0 || r.Status >= 500
	}
	return false
}

// check grades the chaos run's resilience lifecycle after the load
// report is in: every scripted rule must have fired, and for each
// deterministic disruptive rule the target shard's breaker must have
// opened — and, when the rule's window closed comfortably inside the
// run, half-opened and closed again. A violation fails the run.
func (c *chaosFleet) check(runDur time.Duration) []string {
	var violations []string
	for i, st := range c.tr.Stats() {
		log.Printf("chaos rule %d: %s on shard %d fired %d times (%d delivered upstream)",
			i, st.Kind, st.Shard, st.Hits, st.Applied)
		if st.Hits == 0 {
			violations = append(violations, fmt.Sprintf("rule %d (%s, shard %d) never fired — the scenario did not exercise the fleet", i, st.Kind, st.Shard))
		}
	}

	resp, err := c.client.Get(c.routerURL + "/v1/stats")
	if err != nil {
		return append(violations, fmt.Sprintf("router stats unreachable: %v", err))
	}
	defer resp.Body.Close()
	var stats router.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return append(violations, fmt.Sprintf("router stats undecodable: %v", err))
	}
	byShard := map[int]int{}
	for i, b := range stats.Router.Breakers {
		byShard[b.Shard] = i
		log.Printf("breaker shard %d: state %s, opens %d, half-opens %d, probes %d",
			b.Shard, b.State, b.Opens, b.HalfOpens, b.Probes)
	}
	for i := range c.scenario.Rules {
		r := &c.scenario.Rules[i]
		if !disruptive(r) || (r.Prob > 0 && r.Prob < 1) || r.Shard < 0 {
			continue
		}
		bi, okSh := byShard[r.Shard]
		if !okSh {
			violations = append(violations, fmt.Sprintf("no breaker reported for shard %d", r.Shard))
			continue
		}
		b := stats.Router.Breakers[bi]
		if b.Opens == 0 {
			violations = append(violations, fmt.Sprintf("rule %d (%s) hit shard %d but its breaker never opened", i, r.Kind, r.Shard))
			continue
		}
		// The window closed at least a second before the run ended, so
		// the breaker had room to probe its way shut again.
		if r.EndMs > 0 && time.Duration(r.EndMs)*time.Millisecond <= runDur-time.Second {
			if b.HalfOpens == 0 || b.State != "closed" {
				violations = append(violations,
					fmt.Sprintf("shard %d revived at %dms but its breaker is %q (half-opens %d) — no recovery observed",
						r.Shard, r.EndMs, b.State, b.HalfOpens))
			}
		}
	}
	return violations
}

// chaosSummary is the stable one-line digest the CI smoke job compares
// across repeated runs.
func (c *chaosFleet) summary(rep *loadgen.Report) string {
	var fired []string
	for _, st := range c.tr.Stats() {
		fired = append(fired, fmt.Sprintf("%s@%d:%d", st.Kind, st.Shard, st.Hits))
	}
	return fmt.Sprintf("chaos: rules[%s] degraded=%d errors=%d", strings.Join(fired, " "), rep.Degraded, rep.Errors)
}
