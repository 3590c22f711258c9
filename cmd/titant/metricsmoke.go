package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"titant"
	"titant/internal/ms"
	"titant/internal/router"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// cmdMetricsSmoke is the CI gate over the Prometheus surface: it boots
// an in-process sharded fleet (shard servers on loopback behind a
// router, same fixture as -chaos minus the faults), drives mixed
// traffic through the router so every hot-path series has samples, then
// scrapes /metrics from the router and every shard and holds the pages
// to three invariants:
//
//  1. every page passes the in-repo exposition linter (telemetry.Lint);
//  2. the router page carries every required serving family — the
//     /v1/stats counters and the stage histograms must all have a
//     Prometheus series, so a dashboard never needs the JSON endpoint;
//  3. the router's self-scrape is faithful: every series a shard emits
//     appears on the router page re-labeled with shard="<i>", and the
//     router invents no shard-labeled series outside its own
//     titant_router_* namespace.
//
// The scraped pages land in -out as the CI artifact; any violation
// exits non-zero.
func cmdMetricsSmoke(args []string) {
	fs := flag.NewFlagSet("metrics-smoke", flag.ExitOnError)
	users, seed := worldFlags(fs)
	shards := fs.Int("shards", 2, "shard servers behind the router")
	detectors := fs.String("detectors", "lr", "detectors for the fleet's ensemble")
	combineName := fs.String("combine", "mean", "ensemble combiner")
	fast := fs.Bool("fast", true, "reduced training budget")
	requests := fs.Int("requests", 200, "warm-up requests driven through the router before scraping")
	outDir := fs.String("out", "METRICS_scrape", "directory the scraped pages are written into (the CI artifact)")
	_ = fs.Parse(args)
	if *shards < 2 {
		log.Fatal("metrics-smoke: -shards must be >= 2 (the re-label diff needs a fleet)")
	}

	// Every shard server reads one full table, as in the chaos fleet.
	f, err := composeAndDeploy(*users, *seed, 1, *detectors, *combineName, *fast)
	if err != nil {
		log.Fatalf("metrics-smoke: %v", err)
	}
	var closers []func()
	closers = append(closers, f.cleanup)
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	shardURLs := make([]string, *shards)
	for i := range shardURLs {
		eng, err := titant.NewEngine(f.tabs[0], f.bundle, f.engineOpts(0, 0, 0)...)
		if err != nil {
			log.Fatalf("metrics-smoke: shard %d: %v", i, err)
		}
		closers = append(closers, eng.Close)
		url, closeSrv, err := serveLoopback(eng.Handler())
		if err != nil {
			log.Fatalf("metrics-smoke: shard %d: %v", i, err)
		}
		closers = append(closers, closeSrv)
		shardURLs[i] = url
	}
	rt, err := router.New(shardURLs, router.WithSeed(1))
	if err != nil {
		log.Fatalf("metrics-smoke: %v", err)
	}
	closers = append(closers, rt.Close)
	routerURL, closeRt, err := serveLoopback(rt.Handler())
	if err != nil {
		log.Fatalf("metrics-smoke: %v", err)
	}
	closers = append(closers, closeRt)

	client := &http.Client{Timeout: 10 * time.Second}
	log.Printf("driving %d requests through the router at %s (%d shards)...", *requests, routerURL, *shards)
	if err := driveSmokeTraffic(client, routerURL, f.world.Log, *requests); err != nil {
		log.Fatalf("metrics-smoke: drive traffic: %v", err)
	}

	routerPage, err := scrapePage(client, routerURL)
	if err != nil {
		log.Fatalf("metrics-smoke: scrape router: %v", err)
	}
	shardPages := make([][]byte, *shards)
	for i, u := range shardURLs {
		if shardPages[i], err = scrapePage(client, u); err != nil {
			log.Fatalf("metrics-smoke: scrape shard %d: %v", i, err)
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatalf("metrics-smoke: %v", err)
	}
	writeArtifact := func(name string, body []byte) {
		if err := os.WriteFile(filepath.Join(*outDir, name), body, 0o644); err != nil {
			log.Fatalf("metrics-smoke: %v", err)
		}
	}
	writeArtifact("router.prom", routerPage)
	for i, p := range shardPages {
		writeArtifact(fmt.Sprintf("shard-%d.prom", i), p)
	}
	log.Printf("scraped pages written to %s/", *outDir)

	violations := checkScrapes(routerPage, shardPages)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "METRICS VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	sc, _ := telemetry.ParseExpo(routerPage)
	fmt.Printf("metrics-smoke: pass (%d families, %d series on the router page; %d shards scraped)\n",
		len(sc.FamilyNames()), len(sc.SeriesSet()), *shards)
}

// wireSmoke converts a transaction to the v1 request shape.
func wireSmoke(t *txn.Transaction) ms.TxnRequest {
	return ms.TxnRequest{
		ID: int64(t.ID), Day: int(t.Day), Sec: t.Sec,
		From: int32(t.From), To: int32(t.To),
		Amount: t.Amount, TransCity: t.TransCity,
		DeviceRisk: t.DeviceRisk, IPRisk: t.IPRisk,
		Channel: uint8(t.Channel),
	}
}

// driveSmokeTraffic rotates score/decide/ingest/score-batch over the
// test window so the singles, scatter/gather and ingest paths all leave
// samples behind, and asserts every response carries a trace ID — the
// smoke run doubles as an end-to-end check that tracing survives the
// wire tier.
func driveSmokeTraffic(client *http.Client, base string, worldLog []txn.Transaction, n int) error {
	w := testWindow(worldLog)
	if len(w) == 0 {
		return fmt.Errorf("empty test window")
	}
	post := func(path string, body interface{}) error {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Caller", "metrics-smoke")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get(telemetry.TraceHeader) == "" {
			return fmt.Errorf("%s: response carries no %s header", path, telemetry.TraceHeader)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		t := &w[i%len(w)]
		var err error
		switch i % 4 {
		case 0:
			err = post("/v1/score", wireSmoke(t))
		case 1:
			err = post("/v1/decide", wireSmoke(t))
		case 2:
			err = post("/v1/ingest", ms.IngestRequest{TxnRequest: wireSmoke(t), Fraud: t.Fraud})
		default:
			var batch ms.BatchRequest
			for j := 0; j < 8; j++ {
				batch.Transactions = append(batch.Transactions, wireSmoke(&w[(i+j)%len(w)]))
			}
			err = post("/v1/score/batch", batch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scrapePage fetches one /metrics page.
func scrapePage(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// requiredRouterFamilies is the coverage floor for the router page after
// the warm-up traffic: every /v1/stats counter the smoke fleet enables
// (scoring, ingest, decisions, endpoint and stage latency on the shard
// side; the scatter/gather and breaker counters on the router side)
// must have a Prometheus series. Families gated on subsystems the
// fixture leaves off (shadow, event log, quotas) are deliberately
// absent — their coverage is pinned by unit tests instead.
var requiredRouterFamilies = []string{
	"titant_scoring_scored_total",
	"titant_scoring_alerted_total",
	"titant_scoring_latency_seconds",
	"titant_stage_latency_seconds",
	"titant_bundle_info",
	"titant_ingest_ingested_total",
	"titant_endpoint_latency_seconds",
	"titant_policy_info",
	"titant_decisions_total",
	"titant_decision_rule_overrides_total",
	"titant_engine_shards",
	"titant_link_conns",
	"titant_router_singles_total",
	"titant_router_batches_total",
	"titant_router_fanouts_total",
	"titant_router_controls_total",
	"titant_router_errors_total",
	"titant_router_retries_total",
	"titant_router_hedges_total",
	"titant_router_hedge_wins_total",
	"titant_router_degraded_items_total",
	"titant_router_deadline_exhausted_total",
	"titant_router_shards",
	"titant_router_quorum",
	"titant_router_breaker_state",
	"titant_router_breaker_opens_total",
	"titant_router_shard_latency_seconds",
	"titant_router_link_calls_total",
	"titant_router_link_redials_total",
	"titant_router_shard_transport",
	"titant_router_scrape_unreachable",
}

// checkScrapes holds the scraped pages to the smoke invariants and
// returns the violations.
func checkScrapes(routerPage []byte, shardPages [][]byte) []string {
	var violations []string
	if err := telemetry.Lint(routerPage); err != nil {
		violations = append(violations, fmt.Sprintf("router page fails lint: %v", err))
	}
	for i, p := range shardPages {
		if err := telemetry.Lint(p); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d page fails lint: %v", i, err))
		}
	}

	routerScrape, err := telemetry.ParseExpo(routerPage)
	if err != nil {
		return append(violations, fmt.Sprintf("router page unparseable: %v", err))
	}
	families := map[string]bool{}
	for _, name := range routerScrape.FamilyNames() {
		families[name] = true
	}
	for _, name := range requiredRouterFamilies {
		if !families[name] {
			violations = append(violations, fmt.Sprintf("router page is missing required family %s", name))
		}
	}

	// The re-label diff: re-run the router's own transform on the raw
	// shard pages and require the router page to contain exactly that
	// union (plus its own titant_router_* series and its shard-less
	// wire-tier stage series).
	union := map[string]bool{}
	for i, p := range shardPages {
		sc, err := telemetry.ParseExpo(p)
		if err != nil {
			violations = append(violations, fmt.Sprintf("shard %d page unparseable: %v", i, err))
			continue
		}
		sc.AddLabel("shard", strconv.Itoa(i))
		for s := range sc.SeriesSet() {
			union[s] = true
		}
	}
	routerSet := routerScrape.SeriesSet()
	var missing, invented []string
	for s := range union {
		if !routerSet[s] {
			missing = append(missing, s)
		}
	}
	for s := range routerSet {
		if !union[s] && !strings.HasPrefix(s, "titant_router_") && strings.Contains(s, "{shard=") {
			invented = append(invented, s)
		}
	}
	sort.Strings(missing)
	sort.Strings(invented)
	for _, s := range missing {
		violations = append(violations, fmt.Sprintf("shard series absent from the router page: %s", s))
	}
	for _, s := range invented {
		violations = append(violations, fmt.Sprintf("router page carries a shard-labeled series no shard emitted: %s", s))
	}
	return violations
}
