// Command titant drives the pipeline end to end.
//
// Subcommands:
//
//	gen   -out log.bin [-users N] [-seed N] [-scenarios] [-manifest m.json]
//	                                          generate a synthetic world's log
//	eval  [-users N] [-seed N] [-dataset N]   train and evaluate one dataset
//	train -out bundle.bin [-detectors gbdt,lr,c50] [-combine mean|max|vote]
//	      [-data dir] [-users N] [-seed N] [-dataset N]
//	                                          train an ensemble bundle file
//	serve [-addr :8070] [-users N] [-seed N] [-workers N] [-model-token T]
//	      [-bundle bundle.bin -data DIR] [-strict]
//	      [-detectors gbdt,...] [-combine mean] [-usercache N] [-shards N]
//	      [-stream] [-stream-shards N] [-stream-buckets N] [-stream-bucket-secs N]
//	      [-policy default|file.json] [-shadow lr,...] [-shadow-bundle file.bin]
//	      [-shadow-queue N] [-drift]
//	      [-eventlog DIR] [-eventlog-fsync D] [-eventlog-segment-mb N]
//	      [-eventlog-snapshot-every N] [-scenarios]
//	      [-quota N] [-quota-burst N] [-max-inflight N] [-pprof ADDR]
//	                                          train, deploy and serve over HTTP — or,
//	                                          with -bundle, serve an existing bundle
//	                                          file and feature store as they are
//	route -shards URL,URL,... [-addr :9090] [-timeout D] [-budget D]
//	      [-retries N] [-retry-backoff D] [-hedge D] [-fallback ACTION]
//	      [-quorum N] [-breaker-fails N] [-breaker-cooldown D] [-pprof ADDR]
//	                                          stateless scatter/gather router over a
//	                                          ring of shard servers, carrying the
//	                                          resilience plane: deadline budgets,
//	                                          retries, per-shard circuit breakers,
//	                                          hedged reads, typed degraded answers
//	                                          (see route.go)
//	logctl <inspect|compact> -dir DIR [-retain N] [-json]
//	                                          inspect or compact an event log directory
//	loadgen [-addr URL] [-schedule constant|diurnal|spike] [-rate N] [-duration D]
//	        [-opmix S:D:I] [-load-users N] [-zipf S] [-load-seed N] [-shards N]
//	        [-quota N] [-burst N] [-max-inflight N] [-out report.json] [-slo slo.json]
//	        [-chaos scenario.json] [-chaos-seed N] [-trace-sample N]
//	                                          open-loop load run graded against the
//	                                          scenario manifests (see loadgen.go);
//	                                          -slo turns the run into a pass/fail gate;
//	                                          -chaos drives an in-process wire fleet
//	                                          through a scripted fault scenario and
//	                                          gates on the breaker lifecycle;
//	                                          -trace-sample keeps the N slowest
//	                                          requests' X-Trace-Id in the report
//	metrics-smoke [-shards N] [-requests N] [-out DIR] [-users N] [-seed N]
//	              [-detectors lr] [-combine mean] [-fast]
//	                                          boot an in-process sharded fleet, drive
//	                                          traffic through the router, scrape every
//	                                          /metrics page, lint the exposition and
//	                                          diff the router's re-labeled series
//	                                          against the shard union (CI gate, see
//	                                          metricsmoke.go)
//
// train runs the offline pipeline for several detectors at once (the
// paper deploys Isolation Forest, ID3/C5.0, LR and GBDT side by side) and
// writes a v2 ensemble bundle: every member carries its own validation
// threshold, the combiner folds their scores, and `serve -bundle` or POST
// /v1/models serves it as-is. With -data it also uploads every user's
// features and embeddings to that store directory, so `serve -bundle
// bundle.bin -data dir` can serve the pair immediately.
//
// serve starts the Model Server of the paper's Figure 5: it trains the
// production configuration (Basic+DW+GBDT by default, a one-member
// bundle — or an ensemble when -detectors names several), uploads
// features and embeddings to the column-family store, and exposes the v1
// API — POST /v1/score,
// POST /v1/score/batch, POST /v1/ingest[/batch], GET/POST /v1/models,
// GET /v1/stats and GET /healthz — shutting down gracefully on SIGINT or
// SIGTERM. By default it attaches a streaming aggregate store warmed from
// the training world's 90-day reference window, so scoring reads live
// per-city statistics and POST /v1/ingest keeps them current;
// -stream=false serves the paper's pure T+1 mode.
//
// serve -bundle FILE -data DIR is the standalone Model Server daemon:
// nothing is generated, trained or uploaded — the bundle file (a v1
// single classifier or a v2 ensemble built by `titant train`) is served
// against the store already in DIR, and models hot-swap over the wire
// (POST /v1/models). Its window starts cold: scoring serves the bundle's
// frozen city table until the window has absorbed a warm-up quota of
// ingested traffic (and, past that, for any city with no in-window
// activity), so a fresh daemon behaves exactly like the T+1 path until it
// has seen enough real traffic to trust. -strict answers 404 for users
// absent from the store; -shadow-bundle names a challenger bundle file.
//
// With -eventlog DIR every accepted ingest is appended to a durable
// segmented log before it mutates the window, and derived state (window,
// drift baselines, shadow meter, negative-cache keys) is snapshotted
// periodically. On startup the server loads the newest snapshot and
// replays the log tail, rebuilding the exact pre-crash state; inspect or
// compact a log directory offline with `titant logctl`.
//
// -shards N partitions the feature store, not the engine: user rows
// spread over N tables by consistent hash and one engine reads each from
// its owner. Horizontal scale-out is `titant route` over shard servers.
//
// The decision subsystem is on by default: -policy default derives
// approve/challenge/deny bands from the trained threshold (or names a
// policy JSON file) and enables POST /v1/decide[/batch] plus GET/POST
// /v1/policy hot-swap; -shadow lr trains a challenger ensemble served in
// shadow (champion/challenger agreement on /v1/stats); -drift monitors
// per-member score drift against a deploy-time baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"titant"
	"titant/internal/ms"
	"titant/internal/txn"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "train":
		cmdTrain(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "route":
		cmdRoute(os.Args[2:])
	case "logctl":
		cmdLogctl(os.Args[2:])
	case "loadgen":
		cmdLoadgen(os.Args[2:])
	case "metrics-smoke":
		cmdMetricsSmoke(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: titant <gen|eval|train|serve|route|logctl|loadgen|metrics-smoke> [flags]")
	os.Exit(2)
}

func worldFlags(fs *flag.FlagSet) (*int, *uint64) {
	users := fs.Int("users", 0, "population size (0 = default)")
	seed := fs.Uint64("seed", 0, "world seed (0 = default)")
	return users, seed
}

// buildWorld generates the default world resized by -users and -seed,
// composed with the attack scenario library when scenarios is set (the
// manifest is nil otherwise).
func buildWorld(users int, seed uint64, scenarios bool) (*titant.World, *titant.WorldManifest) {
	cfg := titant.DefaultWorldConfig()
	if users > 0 {
		cfg.Users = users
	}
	if seed > 0 {
		cfg.Seed = seed
	}
	if !scenarios {
		return titant.Generate(cfg), nil
	}
	w, man := titant.ComposeWorld(cfg, titant.DefaultScenarioMix())
	log.Printf("composed scenario world (%d users, seed %d): %d labeled scenarios", cfg.Users, cfg.Seed, len(man.Scenarios))
	return w, man
}

// trainedWorld is a world with the artifact trained on one of its
// datasets: what train, serve and the in-process fleets deploy.
type trainedWorld struct {
	w    *titant.World
	man  *titant.WorldManifest
	ds   *titant.Dataset
	opts titant.Options
	art  *titant.Artifact
}

// servedSpec parses a comma-separated detector list and a combiner name
// into the served configuration: those detectors on Basic+DW.
func servedSpec(detectors, combineName string) (titant.Spec, error) {
	spec := titant.Spec{Features: titant.FeatBasicDW}
	for _, name := range strings.Split(detectors, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		d, err := titant.ParseDetector(name)
		if err != nil {
			return spec, err
		}
		spec.Detectors = append(spec.Detectors, d)
	}
	if len(spec.Detectors) == 0 {
		return spec, fmt.Errorf("no detectors in %q", detectors)
	}
	var err error
	spec.Combine, err = titant.ParseCombiner(combineName)
	return spec, err
}

// trainWorld builds the world, slices the dataset and trains spec on it.
func trainWorld(users int, seed uint64, scenarios bool, dataset int, spec titant.Spec, opts titant.Options) (*trainedWorld, error) {
	w, man := buildWorld(users, seed, scenarios)
	ds, err := w.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	tw := &trainedWorld{w: w, man: man, ds: ds, opts: opts}
	tw.art, err = tw.train(spec)
	return tw, err
}

func (tw *trainedWorld) train(spec titant.Spec) (*titant.Artifact, error) {
	log.Printf("training %d-member ensemble (%v, combiner %s)...", len(spec.Detectors), spec.Detectors, spec.Combine)
	return titant.Train(tw.w.Users, tw.ds, spec, nil, tw.opts)
}

// deploy uploads every user across tabs, each to its owner by the hash
// the engine reads with, and returns the bundle under version. With no
// tables it uploads nothing.
func (tw *trainedWorld) deploy(tabs []*titant.FeatureTable, version string) (*titant.Bundle, error) {
	if len(tabs) == 0 {
		return tw.art.Bundle(version)
	}
	log.Printf("uploading %d users to the feature store (%d table(s))...", len(tw.w.Users), len(tabs))
	return tw.art.Deploy(titant.NewShardedUploader(tabs, 0), version)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	users, seed := worldFlags(fs)
	out := fs.String("out", "titant-log.bin", "output file")
	scenarios := fs.Bool("scenarios", false, "compose the attack scenario library onto the base world")
	manifest := fs.String("manifest", "", "write the scenario ground-truth manifest JSON here (implies -scenarios)")
	_ = fs.Parse(args)
	w, man := buildWorld(*users, *seed, *scenarios || *manifest != "")
	if *manifest != "" {
		raw, err := man.Encode()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*manifest, raw, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d scenario manifests to %s\n", len(man.Scenarios), *manifest)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := txn.WriteLog(f, w.Log); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d transactions to %s\n%s\n", len(w.Log), *out, txn.Summarize(w.Log))
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	users, seed := worldFlags(fs)
	dataset := fs.Int("dataset", 1, "dataset number 1-7")
	_ = fs.Parse(args)
	w, _ := buildWorld(*users, *seed, false)
	ds, err := w.Dataset(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	opts := titant.DefaultOptions()
	fmt.Printf("dataset %d: test day %s, %s\n", ds.Index, ds.TestDay, txn.Summarize(ds.Test))
	emb := titant.LearnEmbeddings(ds, opts)
	for _, cfg := range []struct {
		fs  titant.FeatureSet
		det titant.Detector
	}{
		{titant.FeatBasic, titant.DetIF},
		{titant.FeatBasic, titant.DetID3},
		{titant.FeatBasic, titant.DetC50},
		{titant.FeatBasic, titant.DetLR},
		{titant.FeatBasic, titant.DetGBDT},
		{titant.FeatBasicDW, titant.DetGBDT},
	} {
		art, err := titant.Train(w.Users, ds, titant.Spec{Features: cfg.fs, Detectors: []titant.Detector{cfg.det}}, emb, opts)
		if err != nil {
			log.Fatal(err)
		}
		r := art.Eval()
		fmt.Printf("%-14s + %-5s  F1=%6.2f%%  rec@1%%=%6.2f%%  AUC=%.4f\n",
			cfg.fs, cfg.det, 100*r.F1, 100*r.RecTop1, r.AUC)
	}
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	users, seed := worldFlags(fs)
	out := fs.String("out", "titant-bundle.bin", "output bundle file")
	dataDir := fs.String("data", "", "feature store directory to upload users into (empty = bundle only)")
	detectors := fs.String("detectors", "gbdt,lr,c50", "comma-separated detectors (if, id3, c50, lr, gbdt)")
	combineName := fs.String("combine", "mean", "ensemble combiner: mean, max or vote")
	dataset := fs.Int("dataset", 1, "dataset number 1-7")
	_ = fs.Parse(args)
	spec, err := servedSpec(*detectors, *combineName)
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	tw, err := trainWorld(*users, *seed, false, *dataset, spec, titant.DefaultOptions())
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	var tabs []*titant.FeatureTable
	if *dataDir != "" {
		tab, err := titant.OpenFeatureTable(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		defer tab.Close()
		tabs = append(tabs, tab)
	}
	version := time.Now().Format("2006-01-02T15:04:05")
	bundle, err := tw.deploy(tabs, version)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range bundle.Members {
		log.Printf("  member %-5s threshold %.4f", m.Name, m.Threshold)
	}
	raw, err := bundle.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: version %s, %d members, combiner %s, threshold %.4f (%d bytes)",
		*out, version, bundle.NumMembers(), bundle.Combine, bundle.Threshold, len(raw))
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	users, seed := worldFlags(fs)
	addr := fs.String("addr", ":8070", "listen address")
	bundlePath := fs.String("bundle", "", "serve this encoded bundle file against the existing store under -data instead of training one")
	dir := fs.String("data", "", "feature store directory (default: temp; required with -bundle)")
	workers := fs.Int("workers", 0, "batch fan-out width (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "feature store partitions: user rows spread by consistent hash over N tables (under -data/shard-NNN) behind the one engine")
	strict := fs.Bool("strict", false, "reject transactions naming users absent from the store (404)")
	detectors := fs.String("detectors", "gbdt", "comma-separated detectors to serve (several = ensemble bundle)")
	combineName := fs.String("combine", "mean", "ensemble combiner when several detectors are named")
	token := fs.String("model-token", "", "bearer token guarding POST /v1/models and /v1/policy (empty = open)")
	userCache := fs.Int("usercache", titant.DefaultUserCacheSize, "read-through user cache entries (0 = disabled)")
	policySpec := fs.String("policy", "default", `decision policy: "default" (derived from the bundle threshold), a policy JSON file path, or "" to disable /v1/decide`)
	shadowSpec := fs.String("shadow", "", "comma-separated detectors to train as a shadow challenger bundle (empty = no shadow)")
	shadowPath := fs.String("shadow-bundle", "", "challenger bundle file scored in shadow (empty = no shadow)")
	shadowQueue := fs.Int("shadow-queue", 0, "shadow queue capacity (0 = default)")
	drift := fs.Bool("drift", true, "monitor per-member score drift (PSI/KS) against a deploy-time baseline")
	streaming := fs.Bool("stream", true, "maintain a live aggregate window (POST /v1/ingest)")
	ingestToken := fs.String("ingest-token", "", "bearer token guarding POST /v1/ingest[/batch] (empty = open)")
	streamShards := fs.Int("stream-shards", 0, "stream store lock stripes (0 = default)")
	streamBuckets := fs.Int("stream-buckets", 0, "stream window ring buckets (0 = default, 90)")
	streamBucketSecs := fs.Int64("stream-bucket-secs", 0, "stream bucket width in seconds (0 = default, 1 day)")
	elogDir := fs.String("eventlog", "", "durable event log directory: log-then-apply ingest with crash recovery (empty = disabled)")
	elogFsync := fs.Duration("eventlog-fsync", 0, "event log group-commit fsync interval (0 = default, 50ms)")
	elogSegMB := fs.Int64("eventlog-segment-mb", 0, "event log segment rotation size in MiB (0 = default, 64)")
	elogSnapEvery := fs.Int64("eventlog-snapshot-every", 0, "log events between derived-state snapshots (0 = default, 65536; negative disables)")
	scenarios := fs.Bool("scenarios", false, "train on the composed scenario world (matches `gen -scenarios` / `loadgen` ground truth)")
	quota := fs.Float64("quota", 0, "per-caller admission quota, requests/second (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 0, "admission quota burst size (0 = 2x quota, min 1)")
	maxInflight := fs.Int("max-inflight", 0, "shed load beyond this many admitted requests (0 = unlimited)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	_ = fs.Parse(args)
	startPprof(*pprofAddr)
	if *bundlePath != "" && (*dir == "" || *shadowSpec != "") {
		log.Fatal("serve: -bundle serves an existing store: it needs -data, and a challenger comes from -shadow-bundle (nothing is trained)")
	}
	if *shadowSpec != "" && *shadowPath != "" {
		log.Fatal("serve: -shadow and -shadow-bundle both name the challenger; give one")
	}
	spec, err := servedSpec(*detectors, *combineName)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	var shadow titant.Spec
	if *shadowSpec != "" {
		if shadow, err = servedSpec(*shadowSpec, *combineName); err != nil {
			log.Fatalf("serve: shadow: %v", err)
		}
	}
	nShards := max(*shards, 1)
	d := *dir
	if d == "" {
		if d, err = os.MkdirTemp("", "titant-hbase-*"); err != nil {
			log.Fatal(err)
		}
	}
	tabs := make([]*titant.FeatureTable, nShards)
	for i := range tabs {
		sd := d
		if nShards > 1 {
			sd = filepath.Join(d, fmt.Sprintf("shard-%03d", i))
		}
		if tabs[i], err = titant.OpenFeatureTable(sd); err != nil {
			log.Fatal(err)
		}
		defer tabs[i].Close()
	}

	// The bundle comes off disk, or from training the world and uploading
	// its users. train is what only the second path has: the dataset the
	// window warms from and a -shadow challenger trains on.
	var bundle *titant.Bundle
	var train *trainedWorld
	if *bundlePath != "" {
		bundle = readBundle(*bundlePath)
	} else {
		if train, err = trainWorld(*users, *seed, *scenarios, 1, spec, titant.DefaultOptions()); err != nil {
			log.Fatalf("serve: %v", err)
		}
		if bundle, err = train.deploy(tabs, time.Now().Format("2006-01-02T15:04:05")); err != nil {
			log.Fatalf("serve: %v", err)
		}
	}

	engOpts := []titant.EngineOption{
		titant.WithAlert(func(t *titant.Transaction, score float64) {
			log.Printf("ALERT txn=%d score=%.3f: interrupting transfer %d -> %d",
				t.ID, score, t.From, t.To)
		}),
		titant.WithWorkers(*workers),
		titant.WithModelToken(*token),
		titant.WithIngestToken(*ingestToken),
		titant.WithUserCache(*userCache),
	}
	if *strict {
		engOpts = append(engOpts, titant.WithStrictUsers())
	}
	if *quota > 0 {
		b := *quotaBurst
		if b <= 0 {
			b = int(2 * *quota)
		}
		engOpts = append(engOpts, titant.WithCallerQuota(*quota, b))
		log.Printf("admission: per-caller quota %.0f/s (burst %d)", *quota, b)
	}
	if *maxInflight > 0 {
		engOpts = append(engOpts, titant.WithMaxInflight(*maxInflight))
		log.Printf("admission: max inflight %d", *maxInflight)
	}
	if *policySpec != "" {
		pol, err := loadPolicy(*policySpec, bundle.Version, bundle.Threshold)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("decision policy %s loaded (POST /v1/decide enabled)", pol.Version)
		engOpts = append(engOpts, titant.WithPolicy(pol))
	}
	var challenger *titant.Bundle
	switch {
	case *shadowPath != "":
		challenger = readBundle(*shadowPath)
	case *shadowSpec != "":
		art, err := train.train(shadow)
		if err != nil {
			log.Fatalf("serve: shadow: %v", err)
		}
		if challenger, err = art.Bundle(bundle.Version + "-shadow"); err != nil {
			log.Fatalf("serve: shadow: %v", err)
		}
	}
	if challenger != nil {
		log.Printf("shadow challenger %s: %d member(s), threshold %.4f", challenger.Version, challenger.NumMembers(), challenger.Threshold)
		engOpts = append(engOpts, titant.WithShadow(challenger), titant.WithShadowQueue(*shadowQueue))
	}
	if *drift {
		engOpts = append(engOpts, titant.WithDriftMonitor(titant.DriftConfig{}))
	}
	if *streaming {
		st := titant.NewStreamStore(
			titant.WithStreamShards(*streamShards),
			titant.WithStreamWindow(*streamBuckets, *streamBucketSecs),
			titant.WithStreamCities(len(bundle.City.Fraud)))
		// A trained world warms the window from its reference days, unless
		// an event log already holds a snapshot: recovery restores the
		// window (warm-up included, captured when the snapshot was taken),
		// and re-warming would double-count once the snapshot loads on top.
		// A bundle off disk has no world: the window starts cold and
		// scoring serves the bundle's frozen city table until the window
		// has absorbed its warm-up quota of ingested traffic.
		warm := train != nil
		if warm && *elogDir != "" {
			if insp, err := titant.InspectEventLog(*elogDir); err == nil && insp.SnapshotEnd > 0 {
				warm = false
				log.Printf("live aggregate window will restore from the event log snapshot in %s", *elogDir)
			}
		}
		if warm {
			log.Printf("warming the live aggregate window from the %d-day reference window (%d txns)...",
				txn.NetworkDays, len(train.ds.Network))
			st.IngestBatch(train.ds.Network)
		}
		engOpts = append(engOpts, titant.WithStreamAggregates(st))
	}
	if *elogDir != "" {
		var eopts []titant.EventLogOption
		if *elogFsync > 0 {
			eopts = append(eopts, titant.WithEventLogFsyncInterval(*elogFsync))
		}
		if *elogSegMB > 0 {
			eopts = append(eopts, titant.WithEventLogSegmentBytes(*elogSegMB<<20))
		}
		engOpts = append(engOpts, titant.WithEventLog(*elogDir, eopts...))
		if *elogSnapEvery != 0 {
			engOpts = append(engOpts, titant.WithSnapshotEvery(*elogSnapEvery))
		}
	}
	eng, err := titant.NewShardedEngine(tabs, bundle, engOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if *elogDir != "" {
		log.Printf("event log %s: replayed %d records, next offset %d",
			*elogDir, eng.EventLogReplayed(), eng.EventLogStats().NextOffset)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("model server %s listening on %s (%d member(s), threshold %.3f, shards=%d, streaming=%v, usercache=%d, policy=%v, shadow=%v, drift=%v)",
		bundle.Version, *addr, bundle.NumMembers(), bundle.Threshold, nShards, *streaming, *userCache, *policySpec != "", challenger != nil, *drift)
	log.Printf("v1 API: POST /v1/score[/batch], POST /v1/decide[/batch], POST /v1/ingest[/batch], GET|POST /v1/models, GET|POST /v1/policy, GET /v1/stats, GET /healthz")
	if err := eng.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}

// readBundle loads an encoded bundle file (written by `titant train`).
func readBundle(path string) *titant.Bundle {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("serve: read bundle: %v", err)
	}
	b, err := ms.DecodeBundle(raw)
	if err != nil {
		log.Fatalf("serve: decode bundle %s: %v", path, err)
	}
	log.Printf("bundle %s: %d member(s), threshold %.4f, embedding dim %d", b.Version, b.NumMembers(), b.Threshold, b.EmbeddingDim)
	return b
}

// cmdLogctl inspects or compacts an event log directory offline: the
// operational counterpart of -eventlog on serve. inspect never
// writes; compact removes only sealed segments that the newest snapshot
// and every committed consumer offset are past.
func cmdLogctl(args []string) {
	logctlUsage := func() {
		fmt.Fprintln(os.Stderr, "usage: titant logctl <inspect|compact> -dir DIR [-retain N] [-json]")
		os.Exit(2)
	}
	if len(args) < 1 {
		logctlUsage()
	}
	action := args[0]
	fs := flag.NewFlagSet("logctl", flag.ExitOnError)
	dir := fs.String("dir", "", "event log directory (required)")
	retain := fs.Int("retain", 0, "minimum segments compaction keeps (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	_ = fs.Parse(args[1:])
	if *dir == "" {
		logctlUsage()
	}
	switch action {
	case "inspect":
		res, err := titant.InspectEventLog(*dir)
		if err != nil {
			log.Fatalf("logctl: %v", err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Printf("%s: %d segment(s), offsets [%d, %d), %d record(s)\n",
			*dir, len(res.Segments), res.FirstOffset, res.NextOffset, res.Records)
		for _, seg := range res.Segments {
			torn := ""
			if seg.Torn {
				torn = "  (torn tail)"
			}
			fmt.Printf("  %s  base=%d records=%d end=%d bytes=%d%s\n",
				seg.Path, seg.Base, seg.Records, seg.End, seg.Bytes, torn)
		}
		for kind, n := range res.Kinds {
			fmt.Printf("  kind %-8s %d\n", kind, n)
		}
		for name, off := range res.Consumers {
			fmt.Printf("  consumer %-12s offset=%d lag=%d\n", name, off, res.NextOffset-off)
		}
		fmt.Printf("  snapshot end=%d\n", res.SnapshotEnd)
	case "compact":
		removed, err := titant.CompactEventLog(*dir, *retain)
		if err != nil {
			log.Fatalf("logctl: %v", err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(map[string]interface{}{"removed": removed}); err != nil {
				log.Fatal(err)
			}
			return
		}
		if len(removed) == 0 {
			fmt.Println("nothing compactable: snapshot or consumers still need every sealed segment")
			return
		}
		for _, p := range removed {
			fmt.Printf("removed %s\n", p)
		}
	default:
		logctlUsage()
	}
}

// loadPolicy resolves the -policy flag: the literal "default" derives
// the built-in policy from the trained threshold, anything else reads a
// policy JSON file.
func loadPolicy(spec, version string, threshold float64) (*titant.DecisionPolicy, error) {
	if spec == "default" {
		return titant.DefaultPolicy(version, threshold), nil
	}
	raw, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	return titant.ParsePolicy(raw)
}
