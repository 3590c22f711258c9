# Developer entry points. The repo is plain `go build ./... && go test
# ./...`; these targets wrap the multi-step flows.

.PHONY: test tier1-stress bench-build orphans examples-smoke race fuzz-smoke loadgen-smoke chaos-smoke metrics-smoke

# test is the tier-1 gate. The timeout turns a hang into a two-minute
# failure that prints every goroutine's stack, instead of a ten-minute one.
test: bench-build
	go build ./... && go test -count=1 -timeout 120s ./...

# tier1-stress is the gate that catches what a lucky schedule hides: the
# tier-1 suite ten times at GOMAXPROCS=2 beside a process spinning one
# core, then the link and router transport tests — the golden cases with
# every released answer poisoned among them, and the trace through
# retries, hedge legs, every batch scatter leg and every replicated swap,
# whose scatter shares one pooled record across its goroutines — the
# engine's worker pool contract, the wire answers' pooled results, the
# single verbs' member scores carved from the shared slab (no two verdicts
# overlapping, no swapped-out bundle pinned) and the engine's Close (no
# goroutine of its log, shadow worker or served links left) twenty times
# under the race detector, then the wire-tier chaos test twenty times,
# whose faults sit on the router's call seam.
# One failure or hang fails the target.
tier1-stress:
	@set -e; \
	  yes > /dev/null & hog=$$!; \
	  trap "kill $$hog" EXIT; \
	  for i in 1 2 3 4 5 6 7 8 9 10; do \
	    echo "=== tier-1 run $$i/10 (GOMAXPROCS=2, one core busy) ==="; \
	    GOMAXPROCS=2 go test -count=1 -timeout 120s ./...; \
	  done
	go test -race -count=20 -timeout 600s ./internal/link/ ./internal/router/ -run 'Link|Multiplex|Restart|Pending|Chaos|Released|Poison|TestRouterTrace(AdoptedThroughRetries|MintedWhenAbsent|HedgedLegsShareID)$$|TestBatchTraceReachesEveryLeg|TestPolicyTraceReachesEveryShard|TestScratchPinsNothing'
	go test -race -count=20 -timeout 600s ./internal/ms/ -run '^(TestRunPool|TestPooledResultsIsolated|TestSlabMembersIsolated|TestSlabPinsNoBundle|TestCloseLeavesNoGoroutines)$$'
	go test -count=20 -timeout 600s -run TestChaosWireTierShardOutage .

# bench-build type-checks the benchmark module (bench/, a module of its
# own that compiles against this one's exported accessors), so deleting
# one it uses fails here instead of in the benchmark pipeline.
bench-build:
	cd bench && go vet ./...

# orphans fails when a non-test package under internal/ is linked by no
# binary under cmd/: code that serves no path. Test-helper packages,
# whose name ends in "test", are exempt.
orphans:
	@deps=$$(go list -deps ./cmd/...); \
	  bad=$$(for p in $$(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do \
	    case $$p in *test) continue ;; esac; \
	    echo "$$deps" | grep -Fqx "$$p" || echo "$$p"; \
	  done); \
	  if [ -n "$$bad" ]; then echo "packages no ./cmd/... binary links:"; echo "$$bad"; exit 1; fi

# examples-smoke runs the serving examples and the fraud-ring example
# end to end, so a facade change that compiles but breaks their flow
# (train, evaluate, deploy, serve over HTTP, decide) fails here.
examples-smoke:
	go run ./examples/quickstart
	go run ./examples/onlineserving
	go run ./examples/decisioning
	go run ./examples/fraudring

race:
	go test -race ./internal/feature/stream/ ./internal/ms/... ./internal/router/ ./internal/link/ ./internal/faultinject/ ./internal/hbase/ ./internal/decision/ ./internal/eventlog/ ./internal/logio/ ./internal/loadgen/ ./internal/synth/ ./internal/telemetry/ ./internal/nrl/deepwalk/ ./internal/model/gbdt/ ./internal/feature/ ./internal/par/

# fuzz-smoke runs the stream window's two fuzzers for 20 s each: its slab
# reads against the map-ring reference window, and snapshot restore over
# arbitrary bytes. go test fuzzes one target per run. Minimizing an
# interesting input defaults to 60 s, and one grown from the 35 KB golden
# snapshot takes all of it, so it is capped here and the 20 s go to new
# inputs; a failing input is still written to testdata/fuzz whole.
fuzz-smoke:
	go test ./internal/feature/stream/ -run '^$$' -fuzz '^FuzzStreamMatchesReference$$' -fuzztime 20s -fuzzminimizetime 1s
	go test ./internal/feature/stream/ -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime 20s -fuzzminimizetime 1s

# loadgen-smoke runs the open-loop scenario load harness end to end in
# process — compose the scenario world, train a fast bundle, drive the
# engine under admission control — and writes LOADGEN_report.json
# (throughput, p50/p99/p999 from scheduled arrival, per-scenario recall
# and precision against the manifests), so every PR leaves a
# detection-quality and tail-latency trajectory. The
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
