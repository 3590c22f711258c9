package main

import (
	"context"
	"fmt"

	"titant/internal/decision"
	"titant/internal/ms"
	"titant/internal/ms/usercache"
	"titant/internal/txn"
)

// topology is the deployment shape a workload serves from.
type topology int

const (
	topoPlain   topology = iota // one ms.Server, DecideBatch
	topoSharded                 // ms.ShardedEngine, DecideBatch
	topoWire                    // loopback HTTP: client, router, shard servers
	topoLogged                  // one event-logged ms.Server, Decide + Ingest per transaction
)

const (
	ringShards = 4 // in-process shards of batch_sharded
	wireShards = 2 // shard servers behind the router of wire_batch
)

// spec is one workload: its traffic shape and the topology serving it.
type spec struct {
	name     string
	why      string // one line, mirrored in BENCHMARK.json
	topo     topology
	batch    int  // transactions per call
	uniform  bool // users drawn uniformly instead of Zipf(1.07)
	cacheDiv int  // user cache = population/cacheDiv; 0 = twice the population
}

// specs lists the workloads in suite order. Names are fixed: later
// issues cite them.
var specs = []spec{
	{
		name: "batch_warm", topo: topoPlain, batch: 256,
		why: "256-txn DecideBatch, Zipf users, cache larger than the population: assemble, stream reads, GBDT and policy do the work, hbase none",
	},
	{
		name: "batch_cold", topo: topoPlain, batch: 256, uniform: true, cacheDiv: 16,
		why: "same call, uniform users, cache 1/16 of the population: ~94% of user reads miss, so hbase multi-get, decode and cache backfill run on every batch",
	},
	{
		name: "batch_sharded", topo: topoSharded, batch: 256,
		why: "batch_warm's exact input through a 4-shard in-process ring: the gap to batch_warm is the scatter/gather cost",
	},
	{
		name: "wire_batch", topo: topoWire, batch: 64,
		why: "64-txn POST /v1/decide/batch over loopback via router and 2 shards: JSON codec and router splice dominate, the engine is a minority",
	},
	{
		name: "online_mixed", topo: topoLogged, batch: 1,
		why: "single Decide and logged Ingest alternating 1:1 after snapshot+tail recovery: writes beside reads, per-call overhead, log-then-apply",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// cache is the workload's user-cache capacity over a population.
func (s spec) cache(population int) int {
	if s.cacheDiv == 0 {
		return 2 * population
	}
	return population / s.cacheDiv
}

// target is a workload's serving stack behind the one call the timed
// loop makes.
type target struct {
	// decide answers one decision per transaction, in order, through the
	// workload's own path.
	decide func(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error)
	// engine is the single in-process engine behind decide; nil when the
	// path crosses a ring or the wire.
	engine *ms.Server
	// perTxn marks the workload that calls engine once per transaction
	// (Decide, then Ingest) instead of decide once per batch.
	perTxn bool
	// cacheStats sums the user-cache counters of every engine involved.
	cacheStats func() usercache.Stats
	// routerURL is the wire tier's front door; empty off the wire.
	routerURL string
}

// open builds the workload's topology from the fixture.
func (fx *fixture) open(s spec) (*target, error) {
	cache := s.cache(fx.population())
	switch s.topo {
	case topoPlain:
		srv, err := fx.openPlain(cache)
		if err != nil {
			return nil, err
		}
		return plainTarget(srv), nil
	case topoSharded:
		se, err := fx.openSharded(ringShards, cache)
		if err != nil {
			return nil, err
		}
		return &target{
			decide: func(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error) {
				return se.DecideBatch(ctx, txns, nil)
			},
			cacheStats: se.UserCacheStats,
		}, nil
	case topoWire:
		f, err := fx.openFleet(wireShards, cache)
		if err != nil {
			return nil, err
		}
		return &target{
			decide:    fx.newWireClient(f.routerURL).decide,
			routerURL: f.routerURL,
			cacheStats: func() usercache.Stats {
				var sum usercache.Stats
				for _, srv := range f.shards {
					st := srv.UserCacheStats()
					sum.Hits += st.Hits
					sum.Misses += st.Misses
					sum.Evictions += st.Evictions
				}
				return sum
			},
		}, nil
	case topoLogged:
		srv, err := fx.openLogged(cache)
		if err != nil {
			return nil, err
		}
		return &target{
			decide: func(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error) {
				out := make([]ms.Decision, len(txns))
				for i := range txns {
					d, err := srv.Decide(ctx, &txns[i], decision.ScenarioDefault)
					if err != nil {
						return nil, err
					}
					out[i] = d
				}
				return out, nil
			},
			engine:     srv,
			perTxn:     true,
			cacheStats: srv.UserCacheStats,
		}, nil
	}
	return nil, fmt.Errorf("workload %s: unknown topology %d", s.name, s.topo)
}

func plainTarget(srv *ms.Server) *target {
	return &target{
		decide: func(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error) {
			return srv.DecideBatch(ctx, txns, nil)
		},
		engine:     srv,
		cacheStats: srv.UserCacheStats,
	}
}
