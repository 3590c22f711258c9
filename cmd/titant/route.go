package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"titant/internal/router"
)

// cmdRoute runs the stateless scatter/gather tier in front of a ring of
// shard servers (each a `titant serve` process). Single-transaction
// calls forward to the owner shard, batches scatter by user hash and
// gather in input order, model/policy swaps replicate to every shard,
// and /v1/stats and /healthz merge the fleet view. The router keeps no
// model or feature state: kill one and start another, the ring is the
// only configuration.
//
// The wire tier is where partial failure lives, so the router carries
// the resilience plane: per-request deadline budgets (X-Deadline-Ms),
// bounded retries with jittered backoff for idempotent calls, a circuit
// breaker per shard, optional tail-latency hedging for single-shard
// reads, and typed degraded answers (decide falls back to -fallback)
// when an owner shard is gone.
func cmdRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address")
	shards := fs.String("shards", "", "comma-separated shard server base URLs, ring order (required; the order IS the hash ring)")
	timeout := fs.Duration("timeout", 0, "per-attempt upstream timeout (0 = default, 2s)")
	budget := fs.Duration("budget", 0, "server-side deadline budget per request, capping X-Deadline-Ms (0 = default, 10s)")
	retries := fs.Int("retries", -1, "retry budget for idempotent calls (-1 = default, 2; 0 disables)")
	backoff := fs.Duration("retry-backoff", 0, "base retry backoff, doubled per attempt with full jitter (0 = default, 25ms)")
	hedge := fs.Duration("hedge", 0, "hedge single-shard reads after this floor or the shard's observed p99 (0 = off)")
	fallback := fs.String("fallback", "review", "decide action when the owner shard is unavailable (fail-closed)")
	quorum := fs.Int("quorum", 0, "healthy shards needed for /healthz 200 (0 = majority)")
	brkFails := fs.Int("breaker-fails", 0, "consecutive upstream failures that open a shard's circuit (0 = default, 5)")
	brkCooldown := fs.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = default, 1s)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	_ = fs.Parse(args)
	startPprof(*pprofAddr)
	if *shards == "" {
		log.Fatal("route: -shards is required (comma-separated shard base URLs)")
	}
	var ring []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			ring = append(ring, s)
		}
	}
	opts := []router.Option{
		router.WithFallbackAction(*fallback),
		router.WithQuorum(*quorum),
		router.WithHedge(*hedge),
	}
	if *timeout > 0 {
		opts = append(opts, router.WithTimeout(*timeout))
	}
	if *budget > 0 {
		opts = append(opts, router.WithBudget(*budget, 0))
	}
	if *retries >= 0 {
		opts = append(opts, router.WithRetries(*retries, *backoff, 0))
	}
	if *brkFails > 0 || *brkCooldown > 0 {
		opts = append(opts, router.WithBreaker(router.BreakerConfig{
			ConsecutiveFails: *brkFails,
			Cooldown:         *brkCooldown,
		}))
	}
	rt, err := router.New(ring, opts...)
	if err != nil {
		log.Fatalf("route: %v", err)
	}
	defer rt.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("router listening on %s over %d shard(s): %s", *addr, rt.Shards(), strings.Join(ring, ", "))
	log.Printf("v1 API: POST /v1/score[/batch], /v1/decide[/batch], /v1/ingest[/batch] (scatter/gather); GET|POST /v1/models, /v1/policy (replicated); GET /v1/stats, /healthz (merged)")
	if err := rt.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
