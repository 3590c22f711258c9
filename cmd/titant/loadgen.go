package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"titant"
	"titant/internal/loadgen"
	"titant/internal/ms"
	"titant/internal/txn"
)

// cmdLoadgen runs the open-loop load harness: scenario replay plus
// Zipf-distributed background traffic on a production-shaped arrival
// schedule, graded against the composed world's ground-truth manifest.
//
// Without -addr it builds the whole stack in process: compose the
// scenario world, train a bundle, deploy it to a temp feature store and
// drive the engine directly (admission control configured by -quota /
// -max-inflight). With -addr it drives a live server over the v1 JSON
// API; -replay and -manifest supply labeled traffic for detection
// grading (write them with `titant gen -scenarios`).
func cmdLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "drive a live server at this base URL (empty = in-process engine)")
	caller := fs.String("caller", "loadgen", "caller identity for per-caller quotas (X-Caller over HTTP)")
	scheduleName := fs.String("schedule", "constant", "arrival schedule: constant, diurnal or spike")
	rate := fs.Float64("rate", 300, "headline arrival rate, requests/second")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	loadSeed := fs.Uint64("load-seed", 7, "workload seed: same seed, same arrivals, ops and background traffic")
	loadUsers := fs.Int("load-users", 10000, "background user population (Zipf-distributed)")
	zipfS := fs.Float64("zipf", 1.07, "Zipf exponent of the background user mix")
	mixSpec := fs.String("opmix", "", `op weights "score:decide:ingest" (empty = 0.25:0.65:0.10)`)
	maxOut := fs.Int("max-outstanding", 0, "client-side concurrency cap (0 = 4096)")
	out := fs.String("out", "LOADGEN_report.json", "JSON report path")
	slo := fs.String("slo", "", "SLO gate JSON (max_p99_ms, max_error_rate, min_recall); violations fail the run")
	// In-process engine mode.
	users, seed := worldFlags(fs)
	shards := fs.Int("shards", 1, "feature store partitions under the in-process engine (user rows spread by consistent hash; ignored with -addr)")
	detectors := fs.String("detectors", "lr", "detectors for the in-process engine (several = ensemble)")
	combineName := fs.String("combine", "mean", "ensemble combiner when several detectors are named")
	fast := fs.Bool("fast", true, "reduced training budget for the in-process engine")
	quota := fs.Float64("quota", 0, "per-caller admission quota, requests/second (0 = unlimited)")
	burst := fs.Int("burst", 0, "quota burst size (0 = 2x quota, min 1)")
	maxInflight := fs.Int("max-inflight", 0, "shed load beyond this many admitted requests (0 = unlimited)")
	// HTTP-mode grading inputs.
	replayPath := fs.String("replay", "", "transaction log to replay labeled traffic from (HTTP mode)")
	manifestPath := fs.String("manifest", "", "scenario manifest JSON grading the replay (HTTP mode)")
	// Chaos mode.
	chaosPath := fs.String("chaos", "", "fault scenario JSON: build an in-process wire fleet (-shards servers behind a resilient router) and inject the scripted faults; breaker lifecycle violations fail the run")
	chaosSeed := fs.Uint64("chaos-seed", 1, "router backoff-jitter seed for chaos runs")
	traceSample := fs.Int("trace-sample", 0, "keep the N slowest requests' trace IDs (X-Trace-Id) in the report; HTTP and chaos targets only")
	_ = fs.Parse(args)

	sched, err := loadgen.ParseSchedule(*scheduleName, *rate, *duration)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	mix, err := parseOpMix(*mixSpec)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	cfg := loadgen.Config{
		Schedule:       sched,
		Duration:       *duration,
		Seed:           *loadSeed,
		Mix:            mix,
		Users:          *loadUsers,
		ZipfS:          *zipfS,
		MaxOutstanding: *maxOut,
		TraceSample:    *traceSample,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tgt loadgen.Target
	var chaos *chaosFleet
	if *chaosPath != "" {
		if *addr != "" {
			log.Fatal("loadgen: -chaos builds its own in-process fleet; drop -addr")
		}
		chaos, err = buildChaosFleet(&cfg, *chaosPath, *shards, *users, *seed, *detectors, *combineName,
			*fast, *quota, *burst, *maxInflight, *duration, *chaosSeed)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer chaos.cleanup()
		tgt = &loadgen.HTTPTarget{BaseURL: chaos.routerURL, Caller: *caller, Client: chaos.client}
		log.Printf("driving chaos fleet at %s: %d shards, %d scripted rules, schedule %s, rate %.0f/s for %s (%d replay txns)",
			chaos.routerURL, cfg.Shards, len(chaos.scenario.Rules), sched.Name(), *rate, *duration, len(cfg.Replay))
	} else if *addr != "" {
		if err := loadHTTPReplay(&cfg, *replayPath, *manifestPath); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		base := strings.TrimRight(*addr, "/")
		tgt = &loadgen.HTTPTarget{BaseURL: base, Caller: *caller}
		// Record the serving width behind the URL: a router or sharded
		// server reports it on /v1/stats; anything else counts as 1.
		cfg.Shards = probeShards(base)
		log.Printf("driving %s: schedule %s, rate %.0f/s for %s (%d replay txns, %d shard(s))",
			*addr, sched.Name(), *rate, *duration, len(cfg.Replay), cfg.Shards)
	} else {
		eng, cleanup, err := buildLoadgenEngine(&cfg, *users, *seed, *shards, *detectors, *combineName,
			*fast, *quota, *burst, *maxInflight)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer cleanup()
		tgt = &loadgen.EngineTarget{Server: eng}
		ctx = titant.WithCallerContext(ctx, *caller)
		log.Printf("driving in-process engine: schedule %s, rate %.0f/s for %s (%d replay txns, %d shard(s), quota %.0f/s, max-inflight %d)",
			sched.Name(), *rate, *duration, len(cfg.Replay), cfg.Shards, *quota, *maxInflight)
	}

	rep, err := loadgen.Run(ctx, cfg, tgt)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	raw, err := rep.Encode()
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	printReport(rep, *out)
	if chaos != nil {
		violations := chaos.check(*duration)
		fmt.Println(chaos.summary(rep))
		if len(violations) > 0 {
			chaos.cleanup()
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "CHAOS VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("chaos gate %s: pass\n", *chaosPath)
	}
	if *slo != "" {
		gateRaw, err := os.ReadFile(*slo)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		gate, err := loadgen.ParseSLO(gateRaw)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		if violations := rep.CheckSLO(gate); len(violations) > 0 {
			if chaos != nil {
				chaos.cleanup()
			}
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "SLO VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("SLO gate %s: pass\n", *slo)
	}
}

// probeShards asks a live server how wide it is: GET /v1/stats carries
// a "shards" count on both the single server and the router's merged
// view. Unreachable or unparseable stats report as 1 — the probe is
// informational, not a gate.
func probeShards(base string) int {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return 1
	}
	defer resp.Body.Close()
	var body ms.Stats
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil || body.Shards < 1 {
		return 1
	}
	return body.Shards
}

// parseOpMix parses "score:decide:ingest" weights; empty keeps the
// default mix.
func parseOpMix(spec string) (loadgen.OpMix, error) {
	if spec == "" {
		return loadgen.DefaultOpMix(), nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return loadgen.OpMix{}, fmt.Errorf("opmix %q: want three weights score:decide:ingest", spec)
	}
	var w [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return loadgen.OpMix{}, fmt.Errorf("opmix %q: %v", spec, err)
		}
		w[i] = v
	}
	return loadgen.OpMix{Score: w[0], Decide: w[1], Ingest: w[2]}, nil
}

// testWindow returns the labeled replay set: every transaction in the
// composed world's test window (the days after the training cut), where
// the manifests place the scenario fraud the harness grades recall on.
func testWindow(log []txn.Transaction) []txn.Transaction {
	cut := txn.Day(txn.NetworkDays + txn.TrainDays)
	var out []txn.Transaction
	for i := range log {
		if log[i].Day >= cut {
			out = append(out, log[i])
		}
	}
	return out
}

// loadHTTPReplay wires file-based replay and manifest into the config
// for HTTP mode. Both or neither must be given: replay without ground
// truth cannot be graded, a manifest without traffic grades nothing.
func loadHTTPReplay(cfg *loadgen.Config, replayPath, manifestPath string) error {
	if replayPath == "" && manifestPath == "" {
		return nil
	}
	if replayPath == "" || manifestPath == "" {
		return fmt.Errorf("-replay and -manifest go together (write both with `titant gen -scenarios`)")
	}
	f, err := os.Open(replayPath)
	if err != nil {
		return err
	}
	defer f.Close()
	all, err := txn.ReadLog(f)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	man, err := titant.DecodeWorldManifest(raw)
	if err != nil {
		return err
	}
	cfg.Replay = testWindow(all)
	cfg.Manifest = man
	return nil
}

// buildLoadgenEngine composes the scenario world, trains and deploys a
// bundle to a temp feature store, and assembles the in-process engine
// the harness drives: policy enabled (so decide traffic works), stream
// aggregates warmed from the reference window, admission control from
// the CLI flags. shards > 1 partitions the feature store over that many
// tables under the same engine.
func buildLoadgenEngine(cfg *loadgen.Config, users int, seed uint64, shards int, detectors, combineName string,
	fast bool, quota float64, burst int, maxInflight int) (*titant.Engine, func(), error) {
	if shards < 1 {
		shards = 1
	}
	f, err := composeAndDeploy(users, seed, shards, detectors, combineName, fast)
	if err != nil {
		return nil, nil, err
	}
	eng, err := titant.NewShardedEngine(f.tabs, f.bundle, f.engineOpts(quota, burst, maxInflight)...)
	if err != nil {
		f.cleanup()
		return nil, nil, err
	}
	cfg.Replay = testWindow(f.world.Log)
	cfg.Manifest = f.man
	cfg.Shards = shards
	return eng, func() { eng.Close(); f.cleanup() }, nil
}

// printReport summarises the run on stdout; the full report is in the
// JSON file.
func printReport(rep *loadgen.Report, out string) {
	fmt.Printf("schedule %s over %.1fs: offered %d (%.0f/s), completed %d (%.0f/s), shed %d, errors %d\n",
		rep.Schedule, rep.DurationSec, rep.Offered, rep.OfferedRPS, rep.Completed, rep.Throughput, rep.Shed, rep.Errors)
	fmt.Printf("latency from scheduled arrival: p50 %s  p99 %s  p999 %s  max %s\n",
		time.Duration(rep.Latency.P50)*time.Microsecond,
		time.Duration(rep.Latency.P99)*time.Microsecond,
		time.Duration(rep.Latency.P999)*time.Microsecond,
		time.Duration(rep.Latency.Max)*time.Microsecond)
	if rep.Replayed > 0 {
		fmt.Printf("detection over %d replayed txns: recall %.3f  precision %.3f  fpr %.3f\n",
			rep.Replayed, rep.Recall, rep.Precision, rep.FalsePositiveRate)
		for _, s := range rep.Scenarios {
			fmt.Printf("  %-13s replayed %4d  flagged %4d  shed %3d  recall %.3f\n",
				s.Kind, s.Replayed, s.Flagged, s.Shed, s.Recall)
		}
	}
	fmt.Printf("report written to %s\n", out)
}
