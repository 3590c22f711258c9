# Developer entry points. The repo is plain `go build ./... && go test
# ./...`; these targets wrap the multi-step flows.

# bench-serving pipes `go test` through tee and benchjson; bash with
# pipefail makes a failing benchmark run fail the target instead of
# producing an empty-but-green JSON report.
SHELL := /bin/bash

BENCHTIME ?= 100x

.PHONY: test bench-build race bench-serving loadgen-smoke chaos-smoke metrics-smoke

test: bench-build
	go build ./... && go test ./...

# bench-build type-checks the benchmark module (bench/, a module of its
# own that compiles against this one's exported accessors), so deleting
# one it uses fails here instead of in the benchmark pipeline.
bench-build:
	cd bench && go vet ./...

race:
	go test -race ./internal/feature/stream/ ./internal/ms/... ./internal/router/ ./internal/link/ ./internal/faultinject/ ./internal/hbase/ ./internal/decision/ ./internal/eventlog/ ./internal/logio/ ./internal/loadgen/ ./internal/synth/ ./internal/telemetry/

# bench-serving runs the hot serving read-path benchmarks (user fetch,
# multi-get, point read, cached and uncached batch scoring, plus the
# decision path with policy and shadow variants) and writes
# BENCH_serving.json — ns/op and allocs/op per benchmark — so future PRs
# have machine-readable numbers to compare against; in particular,
# BenchmarkDecideBatch/policy vs BenchmarkScoreBatch tracks the decision
# path's overhead budget, BenchmarkDecideBatchCold beside
# BenchmarkScoreBatchCached the cold-cache fetch path (uniform users over
# a cache 1/16 of them: allocs/op must not grow with the misses), BenchmarkIngestLogged/logged vs /unlogged the
# event log's ingest overhead (must stay allocation-flat),
# BenchmarkScoreBatchTraced/traced vs /untraced the telemetry plane's
# span-aggregation overhead (its built-in guard fails the run past 5%
# or one extra alloc/op), BenchmarkWireDecideBatch/handler vs
# BenchmarkDecideBatch/policy what the JSON wire costs one shard (and
# /routed the whole router + 2 shards loopback path, allocs/op included),
# and BenchmarkReplay the crash-recovery ns/record budget. The model
# packages' BenchmarkScoreBatch is the score stage alone at the serving
# width (116 columns), ns/row and allocs/op from one row to the batch
# limit: GBDT at the bench fixture's 40 trees and at DefaultConfig()'s
# 400, LR at 200 bins, ID3 and C5.0. BENCHTIME trades precision for wall
# clock (use e.g. BENCHTIME=2s locally).
bench-serving:
	@set -o pipefail; { \
	  go test -run '^$$' -bench 'BenchmarkScoreBatch$$' -benchmem -benchtime=$(BENCHTIME) ./internal/model/gbdt/ ./internal/model/lr/ ./internal/model/ruletree/ && \
	  go test -run '^$$' -bench 'BenchmarkGet$$|BenchmarkMultiGet' -benchmem -benchtime=$(BENCHTIME) ./internal/hbase/ && \
	  go test -run '^$$' -bench 'BenchmarkFetchUser' -benchmem -benchtime=$(BENCHTIME) ./internal/ms/ && \
	  go test -run '^$$' -bench 'BenchmarkScoreSequential|BenchmarkScoreBatch$$|BenchmarkScoreBatchCached|BenchmarkDecideBatchCold|BenchmarkScoreBatchTraced|BenchmarkScoreBatchSharded|BenchmarkDecideBatch|BenchmarkWireDecideBatch|BenchmarkIngestLogged|BenchmarkReplay$$' -benchmem -benchtime=$(BENCHTIME) . ; \
	} | tee /dev/stderr | go run ./cmd/benchjson > BENCH_serving.json
	@echo "wrote BENCH_serving.json"

# loadgen-smoke runs the open-loop scenario load harness end to end in
# process — compose the scenario world, train a fast bundle, drive the
# engine under admission control — and writes LOADGEN_report.json
# (throughput, p50/p99/p999 from scheduled arrival, per-scenario recall
# and precision against the manifests) next to BENCH_serving.json, so
# every PR leaves a detection-quality and tail-latency trajectory. The
# run doubles as an SLO gate: ci/slo.json pins tail-latency ceilings and
# per-scenario recall floors, and a breach fails the target.
loadgen-smoke:
	go run ./cmd/titant loadgen -users 1200 -detectors gbdt -schedule spike \
	  -rate 1500 -duration 5s -quota 1200 -burst 600 -max-inflight 256 \
	  -out LOADGEN_report.json -slo ci/slo.json
	@echo "wrote LOADGEN_report.json"

# chaos-smoke runs the scripted fault scenario (ci/chaos.json) against an
# in-process wire fleet — four shard servers behind the resilient router,
# the fault transport wedged between them — under the race detector. The
# run's built-in gate fails if a scripted rule never fires, if a
# blackholed shard's breaker never opens, or if the breaker has not
# half-opened and closed again once the fault window ends; errors stay
# separate from typed degraded answers in LOADGEN_chaos.json.
chaos-smoke:
	go run -race ./cmd/titant loadgen -chaos ci/chaos.json -shards 4 \
	  -rate 250 -duration 12s -out LOADGEN_chaos.json
	@echo "wrote LOADGEN_chaos.json"

# metrics-smoke is the CI gate over the Prometheus surface: boot an
# in-process sharded fleet (the chaos fixture minus the faults), drive
# mixed traffic through the router, scrape /metrics from the router and
# every shard, then lint every page, require the full serving-counter
# and stage-histogram family set on the router page, and diff the
# router's re-labeled self-scrape against the union of the raw shard
# pages — a shard series the router drops, or a shard-labeled series no
# shard emitted, fails the target. The scraped pages land in
# METRICS_scrape/ as the CI artifact.
metrics-smoke:
	go run ./cmd/titant metrics-smoke -users 1200 -shards 2 -requests 200 \
	  -out METRICS_scrape
	@echo "wrote METRICS_scrape/"
