package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/ms"
	"titant/internal/ms/usercache"
	"titant/internal/rng"
	"titant/internal/txn"
)

const (
	// probeTxns is how many generated transactions every layer probe and
	// the batch attribution pass cover; probeSingles how many of them the
	// per-transaction attribution passes replay one by one.
	probeTxns    = 1 << 14
	probeSingles = 1 << 11
	// probeBatch is the batch size of batch-shaped probes on the workload
	// that itself calls one transaction at a time.
	probeBatch = 256
	// tracedSlices is how many closed-loop slices the traced run makes,
	// untraced and traced alternating, in the first half of --seconds;
	// the attribution passes and probes take about as long again.
	tracedSlices = 4
)

// cachedUser has the shape of the fragments the engine caches per user,
// so the standalone cache probe moves values of the same size.
type cachedUser struct {
	user  txn.User
	stats feature.UserStats
	emb   []float32
}

type decideFunc func(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error)

// prober holds what the layer probes and attribution passes share: the
// recorder, the inputs, and standalone instances of each layer fed the
// workload's own key stream.
type prober struct {
	ctx context.Context
	fx  *fixture
	rec *recorder

	eng    *ms.Server // engine the attribution passes call
	logged bool       // eng appends to an event log on ingest
	tab    *hbase.Table
	window *stream.Store                            // read probes and assemble replays
	writes *stream.Store                            // ingest probes and replays
	cache  *usercache.Cache[txn.UserID, cachedUser] // sized like the workload's
	log    *eventlog.Log

	batches [][]txn.Transaction
	singles []txn.Transaction

	matrix  *feature.Matrix
	scores  []float64
	members [][]float64
	record  [txn.RecordSize]byte
	sink    int // keeps probe results live
	err     error
}

// fail keeps the first error a probe hit; probes run inside timed
// closures that cannot return one.
func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// distinct returns the batch's distinct users in first-seen order (the
// set the engine fetches once per batch) and their row keys.
func distinct(batch []txn.Transaction) ([]txn.UserID, []string) {
	seen := make(map[txn.UserID]struct{}, 2*len(batch))
	ids := make([]txn.UserID, 0, 2*len(batch))
	for i := range batch {
		for _, u := range [2]txn.UserID{batch[i].From, batch[i].To} {
			if _, ok := seen[u]; !ok {
				seen[u] = struct{}{}
				ids = append(ids, u)
			}
		}
	}
	rows := make([]string, len(ids))
	for i, u := range ids {
		rows[i] = ms.RowKey(u)
	}
	return ids, rows
}

// visitCell reads one byte of every cache line of the cell's value, as
// any consumer of a store read must: delivering the bytes to the core is
// the store's cost, decoding them the caller's.
func (p *prober) visitCell(c *hbase.Cell) bool {
	for i := 0; i < len(c.Value); i += 64 {
		p.sink += int(c.Value[i])
	}
	return true
}

// view is the first n rows of the probe matrix.
func (p *prober) view(n int) *feature.Matrix {
	return &feature.Matrix{Rows: n, Cols: p.matrix.Cols, Data: p.matrix.Data[:n*p.matrix.Cols]}
}

// replayRead replays, as children of the engine call root, the layers a
// decide of txns passes through: cache probes for the distinct users,
// store reads for as many of them as the engine's cache missed, feature
// assembly (with its city lookups as a grandchild), the model and the
// policy. single selects the one-row span names.
//
// The store reads replay the rows of far, the input half a pass away:
// the rows the engine fetched a moment ago now sit in the core's cache,
// where the engine did not find them.
func (p *prober) replayRead(op, root int, txns, far []txn.Transaction, misses int, single bool) {
	ids, _ := distinct(txns)
	_, rows := distinct(far)
	n := len(txns)
	users := p.fx.world.Users
	p.rec.run("usercache.peek_ns", op, root, len(ids), func() {
		for _, u := range ids {
			if _, _, present, gen := p.cache.PeekGen(u); !present {
				p.cache.Add(u, gen, cachedUser{user: users[u]}, true)
			}
		}
	})
	misses = min(misses, len(rows))
	switch {
	case misses == 0:
	case single:
		p.rec.run("hbase.visit_row_ns", op, root, misses, func() {
			for _, row := range rows[:misses] {
				_, err := p.tab.VisitRow(row, p.visitCell)
				p.fail(err)
			}
		})
	default:
		p.rec.run("hbase.visit_rows_ns_per_row", op, root, misses, func() {
			p.fail(p.tab.VisitRows(rows[:misses], func(_ int, c *hbase.Cell) bool { return p.visitCell(c) }))
		})
	}

	m := p.view(n)
	asm := p.rec.run("feature.assemble_ns_per_row", op, root, n, func() {
		for i := range txns {
			t := &txns[i]
			feature.BasicFromParts(t, &users[t.From], &users[t.To], p.window, m.Row(i)[:feature.NumBasic])
		}
	})
	p.rec.run("stream.lookup_city_ns", op, asm, 3*n, func() {
		for i := range txns {
			t := &txns[i]
			f1, _ := p.window.Lookup(t.TransCity)
			f2, _ := p.window.Lookup(users[t.From].HomeCity)
			f3, _ := p.window.Lookup(users[t.To].HomeCity)
			if f1+f2+f3 < 0 {
				p.sink++
			}
		}
	})
	// The embedding halves of each row, untimed: the engine's copy is not
	// a layer's public function, so its cost stays unattributed, but the
	// model must see rows shaped like the real ones.
	dim := p.fx.opts.Dim
	for i := range txns {
		row := m.Row(i)[feature.NumBasic:]
		for k, v := range p.fx.emb.DW.Lookup(txns[i].From) {
			row[k] = float64(v)
		}
		for k, v := range p.fx.emb.DW.Lookup(txns[i].To) {
			row[dim+k] = float64(v)
		}
	}
	scoreName := "model.score_ns_per_row"
	if single {
		scoreName = "model.score_single_ns"
	}
	members := [][]float64{p.members[0][:n]}
	p.rec.run(scoreName, op, root, n, func() {
		p.fail(p.fx.bundle.ScoreMatrix(p.scores[:n], members, m))
	})
	in := decision.Input{MemberNames: []string{p.fx.members[0].Name}, MemberScores: members, Velocity: p.window}
	p.rec.run("decision.decide_ns", op, root, n, func() {
		for i := range txns {
			in.Txn, in.Score, in.Row = &txns[i], p.scores[i], i
			p.sink += int(p.fx.policy.Decide(&in).Action)
		}
	})
}

// appendRecord appends one encoded transaction to the probe log.
func (p *prober) appendRecord(t *txn.Transaction) {
	var flags uint8
	if t.Fraud {
		flags = eventlog.FlagFraud
	}
	_, err := p.log.Append(eventlog.KindTxn, flags, time.Now().UnixNano(), p.record[:])
	p.fail(err)
}

// attribute runs the three attribution passes on the engine, one caller,
// uncontended: whole-batch decides, single decides and single ingests,
// each followed by replays of the layers underneath.
func (p *prober) attribute() {
	for _, b := range p.batches { // fill the cache the way the warm-up would
		_, err := p.eng.DecideBatch(p.ctx, b, nil)
		p.fail(err)
	}
	for i, b := range p.batches {
		op := p.rec.op()
		before := p.eng.UserCacheStats().Misses
		root := p.rec.run("ms.decide_batch_us_per_txn", op, 0, len(b), func() {
			_, err := p.eng.DecideBatch(p.ctx, b, nil)
			p.fail(err)
		})
		far := p.batches[(i+len(p.batches)/2)%len(p.batches)]
		p.replayRead(op, root, b, far, int(p.eng.UserCacheStats().Misses-before), false)
	}
	for i := range p.singles {
		t := p.singles[i : i+1]
		j := (i + len(p.singles)/2) % len(p.singles)
		op := p.rec.op()
		before := p.eng.UserCacheStats().Misses
		root := p.rec.run("ms.decide_single_us", op, 0, 1, func() {
			_, err := p.eng.Decide(p.ctx, &t[0], decision.ScenarioDefault)
			p.fail(err)
		})
		p.replayRead(op, root, t, p.singles[j:j+1], int(p.eng.UserCacheStats().Misses-before), true)
	}
	for i := range p.singles {
		t := &p.singles[i]
		op := p.rec.op()
		root := p.rec.run("ms.ingest_single_us", op, 0, 1, func() { p.fail(p.eng.Ingest(t)) })
		if p.logged {
			p.rec.run("txn.encode_record_ns", op, root, 1, func() { txn.EncodeRecord(p.record[:], t) })
			p.rec.run("eventlog.append_ns", op, root, 1, func() { p.appendRecord(t) })
		}
		p.rec.run("stream.ingest_ns", op, root, 1, func() { p.writes.Ingest(t) })
	}
}

// probe times fn once per batch as a root span of its own operation,
// covering one unit per transaction.
func (p *prober) probe(name string, fn func(b []txn.Transaction)) {
	for _, b := range p.batches {
		p.rec.run(name, p.rec.op(), 0, len(b), func() { fn(b) })
	}
}

// storeProbes times each storage and stream layer's public functions
// standalone on the workload's key stream, so every layer has a number
// on every workload — including those whose engine path bypasses it.
func (p *prober) storeProbes() {
	for _, b := range p.batches {
		ids, rows := distinct(b)
		p.rec.run("hbase.visit_row_ns", p.rec.op(), 0, len(ids), func() {
			for _, row := range rows {
				_, err := p.tab.VisitRow(row, p.visitCell)
				p.fail(err)
			}
		})
		p.rec.run("hbase.visit_rows_ns_per_row", p.rec.op(), 0, len(ids), func() {
			p.fail(p.tab.VisitRows(rows, func(_ int, c *hbase.Cell) bool { return p.visitCell(c) }))
		})
	}
	velocity := func(b []txn.Transaction) {
		for i := range b {
			oc, _, ic, _ := p.writes.Velocity(b[i].From)
			if oc+ic < 0 {
				p.sink++
			}
		}
	}
	p.probe("stream.velocity_ns", velocity)
	p.probe("stream.ingest_ns", func(b []txn.Transaction) {
		for i := range b {
			p.writes.Ingest(&b[i])
		}
	})
	p.probe("txn.encode_record_ns", func(b []txn.Transaction) {
		for i := range b {
			txn.EncodeRecord(p.record[:], &b[i])
		}
	})
	p.probe("eventlog.append_ns", func(b []txn.Transaction) {
		for i := range b {
			p.appendRecord(&b[i])
		}
	})

	// Reads while the other caller writes: a second goroutine ingests the
	// same stream into the same window until the reads are done.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, b := range p.batches {
				select {
				case <-stop:
					return
				default:
				}
				for i := range b {
					p.writes.Ingest(&b[i])
				}
			}
		}
	}()
	p.probe("stream.read_under_write_ns", velocity)
	close(stop)
	wg.Wait()
}

// wireProbes times the JSON codec on the v1 types, the HTTP handler
// without a socket, one engine over loopback, and the routed path, and
// returns the router's extra process CPU per transaction over the direct
// path (see extraCost).
func (p *prober) wireProbes(direct, routed decideFunc) (extraCPU float64) {
	type encoded struct{ req, resp []byte }
	docs := make([]encoded, len(p.batches))
	var answers [][]ms.Decision
	for _, b := range p.batches {
		ds, err := p.eng.DecideBatch(p.ctx, b, nil)
		p.fail(err)
		answers = append(answers, ds)
	}
	if _, err := json.Marshal(decideRequest(p.batches[0])); err != nil { // build the codec's type caches
		p.fail(err)
	}
	for i, b := range p.batches {
		p.rec.run("wire.json_encode_ns_per_txn", p.rec.op(), 0, len(b), func() {
			var err error
			docs[i].req, err = json.Marshal(decideRequest(b))
			p.fail(err)
			docs[i].resp, err = json.Marshal(ms.DecideBatchResponse{Decisions: answers[i]})
			p.fail(err)
		})
	}
	for i, b := range p.batches {
		p.rec.run("wire.json_decode_ns_per_txn", p.rec.op(), 0, len(b), func() {
			var req ms.DecideBatchRequest
			p.fail(json.Unmarshal(docs[i].req, &req))
			var resp ms.DecideBatchResponse
			p.fail(json.Unmarshal(docs[i].resp, &resp))
			p.sink += len(req.Transactions) + len(resp.Decisions)
		})
	}
	handler := p.eng.Handler()
	for i, b := range p.batches {
		p.rec.run("ms.http_handler_us_per_txn", p.rec.op(), 0, len(b), func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/decide/batch", bytes.NewReader(docs[i].req))
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				p.fail(fmt.Errorf("handler answered %d", w.Code))
			}
		})
	}
	call := func(leg decideFunc) func(b []txn.Transaction) {
		return func(b []txn.Transaction) {
			_, err := leg(p.ctx, b)
			p.fail(err)
		}
	}
	extraCPU, _ = p.extraCost(call(routed), call(direct))
	for _, b := range p.batches {
		p.rec.run("wire.shard_direct_us_per_txn", p.rec.op(), 0, len(b), func() { call(direct)(b) })
		p.rec.run("wire.routed_us_per_txn", p.rec.op(), 0, len(b), func() { call(routed)(b) })
	}
	return extraCPU
}

// costPasses is how many times extraCost walks the batches per side.
const costPasses = 3

// extraCost is what a costs over b in process CPU microseconds and in
// allocations per transaction on identical batches. Passes alternate so
// host drift hits both alike; each side first walks the batches once
// untimed to dial connections and fill caches. It compares CPU, not wall
// time: with one caller a ring or a router answers sooner than one
// engine, because its shards score their sub-batches in parallel, while
// in the closed loop both cores are busy anyway and the extra CPU is what
// throughput loses.
func (p *prober) extraCost(a, b func([]txn.Transaction)) (cpuUs, allocs float64) {
	sides := [2]func([]txn.Transaction){a, b}
	for _, call := range sides {
		for _, batch := range p.batches {
			call(batch)
		}
	}
	var cpu, mallocs [2]float64
	for pass := 0; pass < costPasses; pass++ {
		for k, call := range sides {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := cpuSeconds()
			for _, batch := range p.batches {
				call(batch)
			}
			cpu[k] += cpuSeconds() - c0
			runtime.ReadMemStats(&m1)
			mallocs[k] += float64(m1.Mallocs - m0.Mallocs)
		}
	}
	n := float64(costPasses * probeTxns)
	return (cpu[0] - cpu[1]) * 1e6 / n, (mallocs[0] - mallocs[1]) / n
}

// ringProbe compares the sharded engine with the plain one on identical
// batches: extra process CPU and allocations per transaction (see
// extraCost), the ring's wall time per transaction, and the mean
// sub-batch skew (largest shard's share of a batch over the mean share).
func (p *prober) ringProbe(ring decideFunc) (extraCPU, extraAllocs, skew float64) {
	ringCall := func(b []txn.Transaction) {
		_, err := ring(p.ctx, b)
		p.fail(err)
	}
	extraCPU, extraAllocs = p.extraCost(ringCall, func(b []txn.Transaction) {
		_, err := p.eng.DecideBatch(p.ctx, b, nil)
		p.fail(err)
	})
	p.probe("sharded.decide_batch_us_per_txn", ringCall)
	for _, b := range p.batches {
		var sizes [ringShards]int
		for i := range b {
			sizes[ms.ShardOf(b[i].From, ringShards)]++
		}
		largest := 0
		for _, n := range sizes {
			largest = max(largest, n)
		}
		skew += float64(largest) * ringShards / float64(len(b))
	}
	return extraCPU, extraAllocs, skew / float64(len(p.batches))
}

// stageP50 digs one stage's p50 out of the engine's trace dump.
func stageP50(body map[string]interface{}, endpoint, stage string) float64 {
	for _, key := range []string{"endpoints", endpoint, "stages", stage} {
		next, ok := body[key].(map[string]interface{})
		if !ok {
			return 0 // stage never observed (e.g. admit without admission control)
		}
		body = next
	}
	us, _ := body["p50_us"].(int64)
	return float64(us)
}

// routerCounters reads the router's retry and degraded-item counters.
func routerCounters(url string) (retries, degraded float64, err error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	var stats struct {
		Router struct {
			Retries  float64 `json:"retries"`
			Degraded float64 `json:"degraded_items"`
		} `json:"router"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return 0, 0, fmt.Errorf("router stats: %w", err)
	}
	return stats.Router.Retries, stats.Router.Degraded, nil
}

// runTraced is the per-layer run: one set-up, the parity pass,
// alternating untraced and traced slices of the workload's closed loop
// (their throughput gap is the tracing overhead), then the attribution
// passes and layer probes on the workload's generated input. Spans stay
// in memory until the end and are flushed to bench/out.
func runTraced(cfg runConfig, s spec, log io.Writer) (*result, error) {
	ctx := context.Background()
	fx, tgt, err := setUp(s)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	stages := fx.stages
	// Stores opened from here on serve probes, not the workload; only the
	// event-log recovery of a workload without one is still of interest.
	probeStages := map[string]float64{}
	fx.stages = probeStages

	got, correct, failed, err := checkParity(ctx, log, fx, tgt, s)
	if err != nil {
		return nil, err
	}
	attempted := int64(len(fx.parity))
	values := map[string]float64{"quality.fpr": got.fpr}

	// The workload's closed loop.
	callers := fx.newCallers(s, cfg.seed, true)
	merged := make([]uint32, 0, len(callers)*latencyCap)
	d := time.Duration(cfg.seconds) * time.Second / (2 * tracedSlices)
	epoch := time.Now()
	if _, err := runSlice(ctx, tgt, callers, warmUp, epoch, merged); err != nil {
		return nil, err
	}
	cache0 := tgt.cacheStats()
	// Event-log counters: the workload's own log over the slices when it
	// has one, else (zero to end) the probe log the append probes fill.
	var log0, log1 eventlog.Stats
	if tgt.perTxn {
		log0 = tgt.engine.EventLogStats()
	}
	// Untraced and traced slices alternate, so host drift cancels out of
	// their throughput gap. The untraced ones give the closed loop's
	// clock; only the last traced slice's calls are kept.
	var plain, traced sliceResult
	series := map[string][]float64{}
	for i := 0; i < tracedSlices; i++ {
		for _, c := range callers {
			c.trace = i%2 == 1
		}
		r, err := runSlice(ctx, tgt, callers, d, epoch, merged)
		if err != nil {
			return nil, err
		}
		if r.txns == 0 {
			return nil, fmt.Errorf("a slice completed no transaction")
		}
		sum := &traced
		if i%2 == 0 {
			sum = &plain
			loopSeries(series, &r)
		}
		sum.wall += r.wall
		sum.cpu += r.cpu
		sum.txns += r.txns
		attempted += r.attempted
		failed += r.failed
	}
	for name, vals := range series {
		values[name] = median(vals)
	}
	cache1 := tgt.cacheStats()
	if tgt.perTxn {
		log1 = tgt.engine.EventLogStats()
	}
	txns := float64(plain.txns + traced.txns)
	lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses)
	values["usercache.hit_share"] = float64(cache1.Hits-cache0.Hits) / lookups
	values["usercache.loads_per_txn"] = float64(cache1.Misses-cache0.Misses) / txns
	values["usercache.evictions_per_txn"] = float64(cache1.Evictions-cache0.Evictions) / txns
	values["proc.cpu_busy_share"] = plain.cpu / (plain.wall * float64(fx.nproc))
	values["trace.overhead_share"] = 1 - (float64(traced.txns)/traced.wall)/(float64(plain.txns)/plain.wall)
	values["proc.error_share"] = float64(failed) / float64(attempted)

	tf := &traceFile{Workload: s.name, Seed: cfg.seed}
	for _, c := range callers {
		tf.SliceCalls += len(c.starts)
		for i := range c.starts {
			if len(tf.SliceSpans) == maxSliceSpans {
				break
			}
			k := len(tf.SliceSpans) + 1
			tf.SliceSpans = append(tf.SliceSpans, span{
				Name: s.name + ".call", Op: k, ID: k,
				Start: c.starts[i], End: c.starts[i] + int64(c.lat[i]), Units: s.batch,
			})
		}
	}

	// Engines and stores for the probes, on the workload's cache budget.
	p := &prober{ctx: ctx, fx: fx, rec: newRecorder(epoch)}
	cache := s.cache(fx.population())
	alt := func(topo topology) (*target, error) {
		if s.topo == topo {
			return tgt, nil
		}
		a := s
		a.topo = topo
		return fx.open(a)
	}
	loggedTgt, err := alt(topoLogged)
	if err != nil {
		return nil, err
	}
	if s.topo != topoLogged {
		stages[stageRecover] = probeStages[stageRecover]
	}
	fx.stages = nil
	if p.eng, p.logged = tgt.engine, tgt.perTxn; p.eng == nil {
		if p.eng, err = fx.openPlain(cache); err != nil {
			return nil, err
		}
	}
	ringTgt, err := alt(topoSharded)
	if err != nil {
		return nil, err
	}
	routedTgt, err := alt(topoWire)
	if err != nil {
		return nil, err
	}
	directURL, err := fx.serveLoopback(p.eng.Handler())
	if err != nil {
		return nil, err
	}
	if p.tab, err = fx.fullTable(); err != nil {
		return nil, err
	}
	p.window, p.writes = fx.warmStore(), fx.warmStore()
	p.cache = usercache.New[txn.UserID, cachedUser](cache, 0, func(u txn.UserID) uint64 { return rng.Mix64(uint64(uint32(u))) })
	if p.log, err = eventlog.Open(fx.subdir("probe-log")); err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, func() { p.log.Close() })

	// Inputs: the first transactions caller 0 sent, regenerated.
	size := s.batch
	if size == 1 {
		size = probeBatch
	}
	gen := fx.traffic(cfg.seed, 0, s.uniform)
	flat := make([]txn.Transaction, probeTxns)
	p.rec.run("gen.us_per_txn", p.rec.op(), 0, len(flat), func() { gen.fill(flat) })
	for lo := 0; lo < len(flat); lo += size {
		p.batches = append(p.batches, flat[lo:lo+size])
	}
	p.singles = flat[:probeSingles]
	p.matrix = feature.NewMatrix(size, feature.NumBasic+2*fx.opts.Dim)
	p.scores = make([]float64, size)
	p.members = [][]float64{make([]float64, size)}

	p.attribute()
	p.storeProbes()
	routerCPU := p.wireProbes(fx.newWireClient(directURL).decide, routedTgt.decide)
	ringCPU, ringAllocs, skew := p.ringProbe(ringTgt.decide)
	// One derived-state snapshot of the logged engine: the periodic cost
	// the timed slices leave out (see openLogged).
	p.rec.run("ms.snapshot_ms", p.rec.op(), 0, 1, func() { p.fail(loggedTgt.engine.Snapshot()) })
	if p.err != nil {
		return nil, fmt.Errorf("layer probe: %w", p.err)
	}
	if !tgt.perTxn {
		log1 = p.log.Stats()
	}

	// Timing metrics: the mean of the spans of the same name.
	spans := p.rec.spans
	for _, def := range perLayer {
		if sec, ok := meanPerUnit(spans, def.name); ok {
			values[def.name] = sec * unitScale(def.unit)
		}
	}
	for stage, sec := range stages {
		values[stage] = sec
	}
	values["eventlog.replay_us_per_rec"] = stages[stageRecover] * 1e6 / float64(fx.replayed)
	appended := float64(log1.Appended - log0.Appended)
	values["eventlog.bytes_per_rec"] = float64(log1.Bytes-log0.Bytes) / appended
	values["eventlog.fsyncs_per_ktxn"] = float64(log1.Fsyncs-log0.Fsyncs) * 1e3 / appended
	values["sharded.overhead_us_per_txn"] = ringCPU
	values["sharded.extra_allocs_per_txn"] = ringAllocs
	values["sharded.skew"] = skew
	values["router.overhead_us_per_txn"] = routerCPU
	if values["router.retries"], values["router.degraded"], err = routerCounters(routedTgt.routerURL); err != nil {
		return nil, err
	}
	roots, endpoint := []string{"ms.decide_batch_us_per_txn"}, "decide_batch"
	if tgt.perTxn {
		roots, endpoint = []string{"ms.decide_single_us", "ms.ingest_single_us"}, "decide"
	}
	rows, unattributed := budget(spans, roots...)
	values["ms.unattributed_share"] = unattributed
	body := p.eng.TraceBody()
	for _, stage := range []string{"admit", "fetch", "assemble", "score", "decide"} {
		values["ms.stage."+stage+"_us_p50"] = stageP50(body, endpoint, stage)
	}

	tf.Spans = spans
	path, err := writeTrace(tf)
	if err != nil {
		return nil, err
	}
	printBudget(log, s.name, rows)
	fmt.Fprintf(log, "%s seed %d: %d calls in the last traced slice (%s), %d spans -> %s\n",
		s.name, cfg.seed, tf.SliceCalls, d, len(spans)+len(tf.SliceSpans), path)

	for _, def := range perLayer {
		fmt.Fprintf(log, "  %-34s %14.4f %s\n", def.name, values[def.name], def.unit)
	}
	return newResult(perLayer, values, correct, attempted, failed)
}
