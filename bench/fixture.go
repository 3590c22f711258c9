package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"titant/internal/core"
	"titant/internal/decision"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/ms"
	"titant/internal/rng"
	"titant/internal/synth"
	"titant/internal/txn"
)

const (
	// worldSeed seeds the one composed world every run serves: ten
	// traffic seeds measure ten transaction streams over one model, not
	// ten models. TestSecondWorld holds the parity gate on another.
	worldSeed = 1
	// worldUsers sizes that world. A uniformly drawn batch must find its
	// rows outside the core's 2 MiB L2, or batch_cold's store reads cost
	// little more than cache hits: one VisitRows row measured 300-390 ns
	// at 2000 users, 420-450 ns at 6000, 490-560 ns at 8000 and 610-640 ns
	// at 16000, runs interleaved. Set-up grows linearly with the world
	// (0.6 s of training at 2000 users, 1.9 s at 6000, 5.8 s at 16000), and
	// 6000 is what the driver's time budget leaves room for.
	worldUsers = 6000
	// paritySize is how many labelled test-window transactions the parity
	// pass sends through the workload's own path.
	paritySize = 4096
	// ingestChunk bounds one logged IngestBatch (the engine's batch cap).
	ingestChunk = ms.DefaultMaxBatch
)

// Set-up stages, reported as per-layer metrics of the traced run.
const (
	stageCompose = "synth.compose_s"
	stageTrain   = "core.train_s"
	stageDeploy  = "core.deploy_s"
	stageWarm    = "stream.warm_s"
	stageOpen    = "ms.open_s"
	stageRecover = "eventlog.recover_s"
)

// fixture is one set-up's trained world plus every store and engine
// opened from it. Close releases them and removes the scratch directory.
type fixture struct {
	nproc     int
	world     *synth.World
	ds        *txn.Dataset
	opts      core.Options
	members   []ms.EnsembleMember
	emb       *core.Embeddings
	threshold float64
	bundle    *ms.Bundle
	policy    *decision.Policy

	parity []txn.Transaction // labelled test-window transactions
	zipf   *rng.Alias
	homes  []uint16

	dir     string
	subdirs int
	full    *hbase.Table // every user in one table; deployed on first use
	closers []func()

	// stages accumulates set-up seconds per stage; nil discards them
	// (stores built only for the traced run's probes).
	stages   map[string]float64
	replayed int64 // records the logged engine replayed on reopen
}

// timed runs fn and charges its wall time to a set-up stage.
func (fx *fixture) timed(stage string, fn func() error) error {
	start := time.Now()
	err := fn()
	if fx.stages != nil {
		fx.stages[stage] += time.Since(start).Seconds()
	}
	return err
}

// newFixture composes the scenario world from seed and trains the
// serving bundle with the fast options cmd/titant's chaos harness uses
// (GBDT only, 40 trees). dir is the set-up's scratch directory.
func newFixture(seed uint64, dir string) (*fixture, error) {
	fx := &fixture{
		nproc:  runtime.GOMAXPROCS(0),
		dir:    dir,
		stages: map[string]float64{},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := fx.timed(stageCompose, func() error {
		cfg := synth.DefaultConfig()
		cfg.Users = worldUsers
		cfg.Seed = seed
		fx.world, _ = synth.Compose(cfg, synth.DefaultScenarioMix())
		var err error
		fx.ds, err = fx.world.Dataset(1)
		return err
	}); err != nil {
		return nil, err
	}
	if err := fx.timed(stageTrain, func() error {
		fx.opts = core.DefaultOptions()
		fx.opts.GBDT.Trees = 40
		fx.opts.DW.WalksPerNode = 3
		var err error
		fx.members, fx.emb, fx.threshold, err = core.TrainEnsembleForServing(
			fx.world.Users, fx.ds, []core.Detector{core.DetGBDT}, ms.CombineMean, fx.opts)
		return err
	}); err != nil {
		return nil, err
	}
	if math.IsInf(fx.threshold, 0) || math.IsNaN(fx.threshold) {
		return nil, fmt.Errorf("world %d froze a degenerate threshold %v", seed, fx.threshold)
	}
	fx.policy = decision.Default("bench-policy", fx.threshold)

	// The parity set is spread evenly over the whole test window, so it
	// holds every fraud scenario's share of labelled payments.
	cut := txn.Day(txn.NetworkDays + txn.TrainDays)
	var test []int
	for i := range fx.world.Log {
		if fx.world.Log[i].Day >= cut {
			test = append(test, i)
		}
	}
	if len(test) < paritySize {
		return nil, fmt.Errorf("world %d has %d test-window transactions, the parity pass needs %d", seed, len(test), paritySize)
	}
	for k := 0; k < paritySize; k++ {
		fx.parity = append(fx.parity, fx.world.Log[test[k*len(test)/paritySize]])
	}
	fx.zipf = zipfTable(len(fx.world.Users), zipfExponent)
	fx.homes = make([]uint16, len(fx.world.Users))
	for i := range fx.world.Users {
		fx.homes[i] = fx.world.Users[i].HomeCity
	}
	return fx, nil
}

// forget drops the world, the dataset and the training artifacts once
// serving no longer needs them. What stays reachable is the serving
// stack, so live_heap_mb measures that, and the forced collections
// before each slice do not walk the harness's own data.
func (fx *fixture) forget() {
	*fx = fixture{dir: fx.dir, closers: fx.closers}
}

// release closes what the fixture opened after the first mark closers,
// newest first.
func (fx *fixture) release(mark int) {
	for i := len(fx.closers) - 1; i >= mark; i-- {
		fx.closers[i]()
	}
	fx.closers = fx.closers[:mark]
}

// close releases everything and removes the scratch directory.
func (fx *fixture) close() {
	fx.release(0)
	os.RemoveAll(fx.dir)
}

func (fx *fixture) subdir(name string) string {
	fx.subdirs++
	return filepath.Join(fx.dir, fmt.Sprintf("%s-%d", name, fx.subdirs))
}

// population is the number of deployed users (the composed scenarios add
// fresh accounts on top of worldUsers).
func (fx *fixture) population() int { return len(fx.world.Users) }

// traffic builds caller's generator for a workload's user distribution.
func (fx *fixture) traffic(seed uint64, caller int, uniform bool) *traffic {
	zipf := fx.zipf
	if uniform {
		zipf = nil
	}
	return newTraffic(seed, caller, zipf, fx.homes, fx.world.Config.Cities, fx.ds.TestDay)
}

// deploy uploads every user across n fresh tables by the ring's hash,
// flushes them so reads take the segment path (bloom filter, sparse row
// index) a nightly upload leaves behind, and returns the tables. The
// bundle every deploy builds is identical; the first is kept.
func (fx *fixture) deploy(n int) ([]*hbase.Table, error) {
	tabs := make([]*hbase.Table, n)
	err := fx.timed(stageDeploy, func() error {
		base := fx.subdir("tables")
		for i := range tabs {
			tab, err := hbase.Open(hbase.Config{Dir: filepath.Join(base, fmt.Sprintf("shard-%03d", i))})
			if err != nil {
				return err
			}
			fx.closers = append(fx.closers, func() { tab.Close() })
			tabs[i] = tab
		}
		bundle, err := core.DeployEnsembleTo(fx.world.Users, fx.ds, fx.emb, fx.members, ms.CombineMean,
			fx.threshold, fx.opts, ms.NewShardedUploader(tabs, 0), "bench")
		if err != nil {
			return err
		}
		if fx.bundle == nil {
			fx.bundle = bundle
		}
		for _, tab := range tabs {
			if err := tab.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
	return tabs, err
}

// fullTable returns the single table holding every user.
func (fx *fixture) fullTable() (*hbase.Table, error) {
	if fx.full == nil {
		tabs, err := fx.deploy(1)
		if err != nil {
			return nil, err
		}
		fx.full = tabs[0]
	}
	return fx.full, nil
}

func (fx *fixture) newStore() *stream.Store {
	return stream.New(stream.WithCities(fx.opts.Cities))
}

// warmStore builds a stream window holding the reference network days.
func (fx *fixture) warmStore() *stream.Store {
	st := fx.newStore()
	_ = fx.timed(stageWarm, func() error {
		st.IngestBatch(fx.ds.Network)
		return nil
	})
	return st
}

// engineOpts is the engine configuration every workload shares: workers
// equal to cores, default policy, a stream window, a user cache of the
// workload's size (0 = none, the reference engine).
func (fx *fixture) engineOpts(st *stream.Store, cache int) []ms.Option {
	opts := []ms.Option{
		ms.WithWorkers(fx.nproc),
		ms.WithPolicy(fx.policy),
		ms.WithStreamAggregates(st),
	}
	if cache > 0 {
		opts = append(opts, ms.WithUserCache(cache))
	}
	return opts
}

// openPlain opens one engine over the full table and a warm window.
func (fx *fixture) openPlain(cache int) (*ms.Server, error) {
	tab, err := fx.fullTable()
	if err != nil {
		return nil, err
	}
	st := fx.warmStore()
	var srv *ms.Server
	err = fx.timed(stageOpen, func() error {
		srv, err = ms.New(tab, fx.bundle, fx.engineOpts(st, cache)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, srv.Close)
	return srv, nil
}

// openSharded opens the in-process ring: n tables, one shared window.
func (fx *fixture) openSharded(n, cache int) (*ms.ShardedEngine, error) {
	tabs, err := fx.deploy(n)
	if err != nil {
		return nil, err
	}
	st := fx.warmStore()
	var se *ms.ShardedEngine
	err = fx.timed(stageOpen, func() error {
		se, err = ms.NewSharded(tabs, fx.bundle, fx.engineOpts(st, cache)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, se.Close)
	return se, nil
}

// openLogged opens the durable engine the way a restarted daemon finds
// it: the whole reference window is ingested through the event log
// (with one snapshot three quarters in), the engine is closed, and a
// second engine over an empty window recovers from snapshot plus tail.
//
// Periodic snapshots are off. At the default cadence (one per 65 536
// events) two or three land in a slice, and since one snapshot allocates
// about as much as all the ingests between two of them, allocs_per_txn
// would flip between two values from slice to slice. Set-up pays for one
// snapshot and its restore; the traced run times one as ms.snapshot_ms.
func (fx *fixture) openLogged(cache int) (*ms.Server, error) {
	tab, err := fx.fullTable()
	if err != nil {
		return nil, err
	}
	dir := fx.subdir("eventlog")
	open := func() (*ms.Server, error) {
		opts := append(fx.engineOpts(fx.newStore(), cache), ms.WithEventLog(dir), ms.WithSnapshotEvery(-1))
		return ms.New(tab, fx.bundle, opts...)
	}
	var first *ms.Server
	if err := fx.timed(stageOpen, func() error {
		first, err = open()
		return err
	}); err != nil {
		return nil, err
	}
	err = fx.timed(stageWarm, func() error {
		net := fx.ds.Network
		snapAt := len(net) * 3 / 4 / ingestChunk * ingestChunk
		for lo := 0; lo < len(net); lo += ingestChunk {
			if lo == snapAt {
				if err := first.Snapshot(); err != nil {
					return err
				}
			}
			if err := first.IngestBatch(net[lo:min(lo+ingestChunk, len(net))]); err != nil {
				return err
			}
		}
		return nil
	})
	first.Close()
	if err != nil {
		return nil, err
	}
	var srv *ms.Server
	if err := fx.timed(stageRecover, func() error {
		srv, err = open()
		return err
	}); err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, srv.Close)
	fx.replayed = srv.EventLogReplayed()
	if fx.replayed == 0 || fx.replayed >= int64(len(fx.ds.Network)) {
		return nil, fmt.Errorf("recovery replayed %d of %d records: expected a snapshot plus a tail", fx.replayed, len(fx.ds.Network))
	}
	return srv, nil
}
