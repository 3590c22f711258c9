package ms

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

// recoveryUsers is how many users the recovery fixtures upload; every
// generated transaction names two of them (plus the occasional unknown
// user, to exercise negative-cache interplay).
const recoveryUsers = 6

func recoveryTable(t *testing.T) *hbase.Table {
	t.Helper()
	return recoveryTables(t, 1)[0]
}

// recoveryTables uploads the recovery users across a width-table store.
func recoveryTables(t *testing.T, width int) []*hbase.Table {
	t.Helper()
	tabs := shardTables(t, width)
	up := NewShardedUploader(tabs, 0)
	for i := txn.UserID(1); i <= recoveryUsers; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i), HomeCity: uint16(i % 4)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	return tabs
}

// recoveryWidths are the feature-store widths the crash-recovery tests
// run at: the event log, its snapshots and replay belong to the engine,
// not to a table, so recovery over a partitioned store is recovery.
var recoveryWidths = []int{1, 4}

func recoveryStream() *stream.Store {
	return stream.New(stream.WithShards(4), stream.WithWindow(8, 86400), stream.WithCities(8))
}

// recoveryOp is one step of the deterministic schedule: a transaction
// either ingested (with its label) or scored.
type recoveryOp struct {
	t     txn.Transaction
	score bool
}

// recoverySchedule builds a reproducible mixed workload.
func recoverySchedule(n int) []recoveryOp {
	r := rng.New(7)
	ops := make([]recoveryOp, n)
	for i := range ops {
		from := txn.UserID(1 + r.Intn(recoveryUsers))
		to := txn.UserID(1 + r.Intn(recoveryUsers))
		if r.Bool(0.05) {
			to = txn.UserID(1000 + r.Intn(4)) // unknown user: negative-cache traffic
		}
		ops[i] = recoveryOp{
			t: txn.Transaction{
				ID:        txn.TxnID(i + 1),
				Day:       txn.Day(100),
				Sec:       int32(i % 86400),
				From:      from,
				To:        to,
				Amount:    float32(r.Float64() * 2000),
				TransCity: uint16(r.Intn(8)),
				Fraud:     r.Bool(0.1),
			},
			score: i%3 == 0,
		}
	}
	return ops
}

// runOps drives a schedule through the engine's public API.
func runOps(t *testing.T, srv *Server, ops []recoveryOp) {
	t.Helper()
	ctx := context.Background()
	for i := range ops {
		if ops[i].score {
			if _, err := srv.Score(ctx, &ops[i].t); err != nil {
				t.Fatalf("score op %d: %v", i, err)
			}
		} else {
			if err := srv.Ingest(&ops[i].t); err != nil {
				t.Fatalf("ingest op %d: %v", i, err)
			}
		}
	}
}

// assertEngineEqual compares every piece of state the event log promises
// to rebuild bitwise: the streaming window (aggregates, velocity, pair
// priors, city statistics), the drift monitor, and — the end-to-end
// check — the verdicts both engines produce for identical fresh traffic.
func assertEngineEqual(t *testing.T, got, want *Server, gotSt, wantSt *stream.Store) {
	t.Helper()
	if g, w := gotSt.Ingested(), wantSt.Ingested(); g != w {
		t.Fatalf("ingested: got %d, want %d", g, w)
	}
	for u := txn.UserID(1); u <= recoveryUsers; u++ {
		if g, w := gotSt.Stats(u), wantSt.Stats(u); g != w {
			t.Fatalf("user %d stats: got %+v, want %+v", u, g, w)
		}
		oc, oa, ic, ia := gotSt.Velocity(u)
		wc, wa, wic, wia := wantSt.Velocity(u)
		if oc != wc || oa != wa || ic != wic || ia != wia {
			t.Fatalf("user %d velocity: got (%v %v %v %v), want (%v %v %v %v)",
				u, oc, oa, ic, ia, wc, wa, wic, wia)
		}
		for v := txn.UserID(1); v <= recoveryUsers; v++ {
			if g, w := gotSt.PairPrior(u, v), wantSt.PairPrior(u, v); g != w {
				t.Fatalf("pair (%d,%d) prior: got %v, want %v", u, v, g, w)
			}
		}
	}
	for c := uint16(0); c < 8; c++ {
		gf, gs, gn := gotSt.LookupCity(c)
		wf, ws, wn := wantSt.LookupCity(c)
		if gf != wf || gs != ws || gn != wn {
			t.Fatalf("city %d: got (%v %v %v), want (%v %v %v)", c, gf, gs, gn, wf, ws, wn)
		}
	}
	if g, w := got.DriftStats(), want.DriftStats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("drift stats:\n got %+v\nwant %+v", g, w)
	}

	// Fresh traffic must produce identical verdicts — scores are read
	// through the recovered window, so this is the paper-level check:
	// the recovered engine decides exactly like one that never crashed.
	fresh := recoverySchedule(420)[400:]
	ctx := context.Background()
	for i := range fresh {
		fresh[i].t.ID += 100000
		gv, gerr := got.Score(ctx, &fresh[i].t)
		wv, werr := want.Score(ctx, &fresh[i].t)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("fresh txn %d: errors diverge: %v vs %v", i, gerr, werr)
		}
		if gv.Score != wv.Score || gv.Fraud != wv.Fraud {
			t.Fatalf("fresh txn %d: verdict (%v %v) vs (%v %v)", i, gv.Score, gv.Fraud, wv.Score, wv.Fraud)
		}
	}
}

// TestKillRestartBitwiseRecovery is the crash-recovery harness of the
// durability plane: drive a mixed ingest/score workload, fsync at an
// arbitrary cut, keep going, then kill the process image (buffered
// appends dropped, no graceful close). A restart from the log directory
// must rebuild the window and drift state bitwise-identical to a
// reference engine that processed exactly the durable prefix and never
// crashed — and must score fresh traffic identically to it.
func TestKillRestartBitwiseRecovery(t *testing.T) {
	for _, width := range recoveryWidths {
		t.Run(fmt.Sprintf("tables-%d", width), func(t *testing.T) { killRestartRecovery(t, width) })
	}
}

func killRestartRecovery(t *testing.T, width int) {
	dir := t.TempDir()
	tabs := recoveryTables(t, width)
	drift := decision.DriftConfig{Bins: 16, BaselineSamples: 40, MinLiveSamples: 1}
	ops := recoverySchedule(400)
	cut := 263 // arbitrary mid-schedule point; everything after is lost

	stA := recoveryStream()
	a, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stA),
		WithDriftMonitor(drift), WithUserCache(256),
		// An hour-long group-commit timer and a huge byte threshold pin
		// durability to the explicit Sync below: the kill drops exactly
		// the post-cut suffix, nothing more, nothing less.
		WithEventLog(dir, eventlog.WithFsyncInterval(time.Hour), eventlog.WithFsyncBytes(1<<30)))
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, a, ops[:cut])
	if err := a.elog.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := a.elog.NextOffset()
	runOps(t, a, ops[cut:])
	a.elog.Kill() // hard stop: no flush, no close, unsynced tail gone

	// The restarted engine: same configuration, fresh in-memory state,
	// recovered from the log directory alone.
	stB := recoveryStream()
	b, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stB),
		WithDriftMonitor(drift), WithUserCache(256), WithEventLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.EventLogReplayed(); got != int64(durable) {
		t.Fatalf("replayed %d records, want the durable prefix %d", got, durable)
	}

	// The reference engine: no event log, no crash, fed exactly the
	// durable prefix of the schedule through the same public API.
	stC := recoveryStream()
	c, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stC),
		WithDriftMonitor(drift), WithUserCache(256))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runOps(t, c, ops[:cut])

	assertEngineEqual(t, b, c, stB, stC)
}

// TestSnapshotFastForwardRecovery exercises the snapshot path: tight
// snapshot cadence and tiny segments force several snapshot+compact
// rounds mid-workload, so recovery must load derived state from the
// snapshot and replay only the tail — and still match the uninterrupted
// reference bitwise.
func TestSnapshotFastForwardRecovery(t *testing.T) {
	for _, width := range recoveryWidths {
		t.Run(fmt.Sprintf("tables-%d", width), func(t *testing.T) { snapshotRecovery(t, width) })
	}
}

func snapshotRecovery(t *testing.T, width int) {
	dir := t.TempDir()
	tabs := recoveryTables(t, width)
	drift := decision.DriftConfig{Bins: 16, BaselineSamples: 40, MinLiveSamples: 1}
	ops := recoverySchedule(400)

	stA := recoveryStream()
	a, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stA),
		WithDriftMonitor(drift), WithUserCache(256),
		WithEventLog(dir, eventlog.WithSegmentBytes(4096), eventlog.WithFsyncInterval(time.Hour)),
		WithSnapshotEvery(64))
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, a, ops)
	st := a.EventLogStats()
	if st.SnapshotEnd == 0 {
		t.Fatal("no snapshot was written under a 64-event cadence")
	}
	if off, ok := a.elog.ConsumerOffset(engineConsumer); !ok || off != st.SnapshotEnd {
		t.Fatalf("engine consumer offset = (%d,%v), want snapshot end %d", off, ok, st.SnapshotEnd)
	}
	if err := a.elog.Sync(); err != nil {
		t.Fatal(err)
	}
	total := a.elog.NextOffset()
	a.elog.Kill()

	stB := recoveryStream()
	b, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stB),
		WithDriftMonitor(drift), WithUserCache(256), WithEventLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.EventLogReplayed(); got >= int64(total) {
		t.Fatalf("replayed %d of %d records; snapshot did not fast-forward", got, total)
	}

	stC := recoveryStream()
	c, err := NewSharded(tabs, trainToy(t, 0), WithStreamAggregates(stC),
		WithDriftMonitor(drift), WithUserCache(256))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runOps(t, c, ops)

	assertEngineEqual(t, b, c, stB, stC)
}

// TestShadowAndResetReplay covers the two remaining event kinds: shadow
// comparisons rebuild the meter counters exactly, and a logged bundle
// swap (KindReset) resets the replayed drift monitor at the same point
// the live engine reset it.
func TestShadowAndResetReplay(t *testing.T) {
	dir := t.TempDir()
	tab := recoveryTable(t)
	drift := decision.DriftConfig{Bins: 16, BaselineSamples: 10, MinLiveSamples: 1}
	ops := recoverySchedule(120)

	stA := recoveryStream()
	a, err := New(tab, trainToy(t, 0), WithStreamAggregates(stA),
		WithDriftMonitor(drift), WithShadow(trainToy(t, 0)),
		WithEventLog(dir, eventlog.WithFsyncInterval(time.Hour), eventlog.WithFsyncBytes(1<<30)))
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, a, ops[:60])

	// Wait for the shadow worker to drain so the comparison count is
	// deterministic before the swap and the sync.
	scoresBefore := int64(0)
	for i := range ops[:60] {
		if ops[i].score {
			scoresBefore++
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.ShadowStats().Scored < scoresBefore && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.ShadowStats().Scored; got != scoresBefore {
		t.Fatalf("shadow scored %d of %d before swap", got, scoresBefore)
	}

	// Swap the champion: logs KindReset, resets monitor and meter.
	if err := a.SetBundle(trainToy(t, 0)); err != nil {
		t.Fatal(err)
	}
	runOps(t, a, ops[60:])
	scoresAfter := int64(0)
	for i := range ops[60:] {
		if ops[60+i].score {
			scoresAfter++
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for a.ShadowStats().Scored < scoresAfter && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wantShadow := a.ShadowStats()
	wantDrift := a.DriftStats()
	if err := a.elog.Sync(); err != nil {
		t.Fatal(err)
	}
	a.elog.Kill()

	stB := recoveryStream()
	b, err := New(tab, trainToy(t, 0), WithStreamAggregates(stB),
		WithDriftMonitor(drift), WithShadow(trainToy(t, 0)), WithEventLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := b.ShadowStats(); got != wantShadow {
		t.Fatalf("replayed shadow stats %+v, want %+v", got, wantShadow)
	}
	if got := b.DriftStats(); !reflect.DeepEqual(got, wantDrift) {
		t.Fatalf("replayed drift stats:\n got %+v\nwant %+v", got, wantDrift)
	}
}

// TestEventLogIngestDurable checks the plain contract under graceful
// shutdown: Close flushes, and a reopened engine carries every ingested
// transaction without any explicit Sync from the caller.
func TestEventLogIngestDurable(t *testing.T) {
	dir := t.TempDir()
	tab := recoveryTable(t)
	ops := recoverySchedule(50)

	stA := recoveryStream()
	a, err := New(tab, trainToy(t, 0), WithStreamAggregates(stA), WithEventLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, a, ops)
	a.Close()

	stB := recoveryStream()
	b, err := New(tab, trainToy(t, 0), WithStreamAggregates(stB), WithEventLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if stB.Ingested() != stA.Ingested() {
		t.Fatalf("reopened window ingested %d, want %d", stB.Ingested(), stA.Ingested())
	}
}
