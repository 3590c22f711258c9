// Package ms implements the Model Server of the paper's Figure 5: the
// online component that receives a transfer request from the Alipay
// server, fetches the latest basic features and user node embeddings from
// Ali-HBase, scores the transaction in milliseconds, and alerts the Alipay
// server to interrupt the transfer when the predicted fraud probability
// crosses the threshold.
//
// The serving surface is the v1 engine: a functional-options constructor
// (New), context-aware single scoring (Score), batch scoring with
// per-batch user-fetch deduplication over a worker pool (ScoreBatch), a
// bounded log-bucketed latency histogram, a typed error model (errors.go),
// and a versioned HTTP API (http.go).
package ms

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/link"
	"titant/internal/ms/usercache"
	"titant/internal/rng"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Alert is the callback invoked for transactions predicted fraudulent; in
// production it tells the Alipay server to interrupt the transfer and
// notify the transferor. t is valid only during the call: over HTTP it
// points into the request's pooled decode scratch, so a callback that
// keeps the transaction must copy it.
type Alert func(t *txn.Transaction, score float64)

// userCache is the engine's read-through cache instantiation: user
// fragments keyed by user ID — the decoded profile and the embedding's
// store bytes — so a hit skips the store, decodes nothing and copies
// nothing but the entry itself.
type userCache = usercache.Cache[txn.UserID, userParts]

// userHash mixes a user ID onto cache shards.
func userHash(u txn.UserID) uint64 {
	return rng.Mix64(uint64(uint32(u)))
}

// Server scores transactions against the current model bundle. Safe for
// concurrent use; the bundle can be hot-swapped between requests.
type Server struct {
	// tables is the feature store, partitioned by row key as the paper's
	// Ali-HBase is: user u's row lives in tables[ShardOf(u, len(tables))]
	// and nowhere else. Only the store read routes by owner — the cache,
	// the live window, the model, the policy and every counter are the
	// engine's, one of each at any width, which is why verdicts do not
	// depend on the partition count. Fixed at construction.
	tables []*hbase.Table
	cache  *userCache // nil: every fetch reads the store

	mu      sync.RWMutex
	bundle  *Bundle
	citySrc feature.CitySource // city view scoring reads through; rebuilt on swap
	policy  *decision.Policy   // nil: decision endpoints disabled; hot-swapped like the bundle

	// policyConfigured records whether the engine was built WithPolicy:
	// SetPolicy only replaces a configured policy, it cannot enable
	// decisioning on an engine the operator left it off.
	policyConfigured bool

	// Admission gate (see admission.go): per-caller quotas and the
	// inflight bound. nil: every request is admitted.
	adm *admission

	alert        Alert
	workers      int
	strict       bool
	maxBatch     int
	modelToken   string
	ingestToken  string
	stream       StreamAggregates
	streamWarmup int64

	// Decision subsystem (see internal/decision and decide.go).
	velocity     decision.VelocitySource // stream store's rule-predicate surface, when it has one
	driftCfg     *decision.DriftConfig   // nil: drift monitoring disabled
	drift        atomic.Pointer[decision.Monitor]
	shadowBundle *Bundle // challenger configured by WithShadow
	shadowQueue  int
	shadow       *shadowRunner

	// Durability plane (see eventlog.go). elogMu serializes every
	// (append, apply) pair so the log order is the apply order — the
	// invariant bitwise replay recovery rests on.
	elogDir       string
	elogOpts      []eventlog.Option
	elog          *eventlog.Log
	elogMu        sync.Mutex
	elogBuf       []byte // payload scratch, under elogMu
	elogSnapEvery uint64
	elogSnapBase  uint64 // log offset of the newest snapshot, under elogMu
	elogReplayed  atomic.Int64
	elogErrs      atomic.Int64 // append failures on paths with no caller to return to

	hist       *telemetry.Histogram
	ingestHist *telemetry.Histogram // per-endpoint: POST /v1/ingest[/batch] request latency
	decideHist *telemetry.Histogram // per-endpoint: POST /v1/decide[/batch] request latency
	scored     atomic.Int64
	alerted    atomic.Int64
	actions    [decision.NumActions]atomic.Int64
	ruleHits   atomic.Int64

	// Observability plane (see internal/telemetry): per-stage span
	// aggregation with slow-exemplar rings, one track per scoring
	// endpoint (held as direct pointers so the hot path pays no map
	// lookup), and the trace-ID minter the HTTP layer adopts-or-mints
	// with, seeded 0 so minted IDs are deterministic per engine.
	noTrace        bool
	minter         *telemetry.Minter
	tel            *telemetry.Tracker
	telScore       *telemetry.EndpointTrack
	telScoreBatch  *telemetry.EndpointTrack
	telDecide      *telemetry.EndpointTrack
	telDecideBatch *telemetry.EndpointTrack

	// links are the router links upgraded on GET /v1/link (internal/link).
	links link.Hub
	// idem answers keyed ingest replays (X-Idempotency-Key) on either wire.
	idem idemTable
}

// New builds the v1 scoring engine over a feature table.
func New(table *hbase.Table, bundle *Bundle, opts ...Option) (*Server, error) {
	return NewSharded([]*hbase.Table{table}, bundle, opts...)
}

// NewSharded builds the same engine over a feature store partitioned
// across len(tables) tables: table i must carry (at least) the users
// ShardOf assigns to index i — NewShardedUploader writes a deploy wave
// that way. Everything but the store read is independent of the width, so
// any width scores bitwise like New over one table holding every user.
func NewSharded(tables []*hbase.Table, bundle *Bundle, opts ...Option) (*Server, error) {
	if len(tables) == 0 {
		return nil, errors.New("ms: no feature table")
	}
	for i, tab := range tables {
		if tab == nil {
			return nil, fmt.Errorf("ms: nil feature table %d", i)
		}
	}
	if bundle == nil {
		return nil, fmt.Errorf("%w: nil bundle", ErrBundleInvalid)
	}
	if err := bundle.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		tables:       tables,
		bundle:       bundle,
		workers:      defaultWorkers(),
		maxBatch:     DefaultMaxBatch,
		streamWarmup: DefaultStreamWarmup,
	}
	for _, o := range opts {
		o(s)
	}
	if s.hist == nil {
		s.hist = telemetry.NewHistogram(nil)
	}
	s.ingestHist = telemetry.NewHistogram(nil)
	s.decideHist = telemetry.NewHistogram(nil)
	s.minter = telemetry.NewMinter(0)
	endpoints := []string{"score", "score_batch", "decide", "decide_batch"}
	if s.noTrace {
		// An empty tracker keeps /metrics and /v1/debug/trace functional
		// while every Endpoint lookup below comes back nil — the seam
		// traceObserve treats as "tracing off".
		endpoints = nil
	}
	s.tel = telemetry.NewTracker(endpoints, 0)
	s.telScore = s.tel.Endpoint("score")
	s.telScoreBatch = s.tel.Endpoint("score_batch")
	s.telDecide = s.tel.Endpoint("decide")
	s.telDecideBatch = s.tel.Endpoint("decide_batch")
	s.citySrc = s.cityView(bundle)
	if s.policy != nil {
		if err := s.policy.Validate(); err != nil {
			return nil, err
		}
		s.policyConfigured = true
	}
	// Rule predicates read in-window velocity when the configured stream
	// store can serve it allocation-free; other StreamAggregates
	// implementations simply leave velocity rules inert.
	if v, ok := s.stream.(decision.VelocitySource); ok {
		s.velocity = v
	}
	if s.driftCfg != nil {
		s.drift.Store(decision.NewMonitor(*s.driftCfg, driftSeriesNames(bundle)))
	}
	if s.shadowBundle != nil {
		sr, err := newShadowRunner(s, s.shadowBundle, s.shadowQueue)
		if err != nil {
			return nil, err
		}
		s.shadow = sr
	}
	if s.elogDir != "" {
		// Recovery runs last so every subsystem the snapshot and replay
		// rebuild already exists. The engine is not shared yet, so replay
		// applies state without elogMu.
		if err := s.openEventLog(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// driftSeriesNames lists the score series the drift monitor tracks for a
// bundle: the combined score first, then every ensemble member in order
// (a v1 single-model bundle's only score is the combined one).
func driftSeriesNames(b *Bundle) []string {
	names := []string{"combined"}
	if ens, err := b.runtime(); err == nil && !ens.single {
		names = append(names, ens.names...)
	}
	return names
}

// Close releases the engine's background resources: its router links
// (cut, and their goroutines waited for), the shadow scoring worker, and
// the event log (flushed and fsynced, so a clean shutdown loses nothing).
// Safe to call on an engine without any, and more than once. Scoring
// after Close still works; shadow comparisons stop and logged ingest
// fails.
func (s *Server) Close() {
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	s.links.Shutdown(cut)
	if s.shadow != nil {
		s.shadow.close()
	}
	if s.elog != nil {
		_ = s.elog.Close()
	}
}

// cityView builds the per-city statistics source scoring reads through:
// the live streaming window (gated by the warm-up threshold, with
// frozen-table fallback for unseen cities) when streaming is configured,
// the bundle's frozen table otherwise. Built once per bundle so the hot
// path pays no allocation.
func (s *Server) cityView(b *Bundle) feature.CitySource {
	if s.stream == nil {
		return &b.City
	}
	return &liveCity{live: s.stream, frozen: &b.City, warmup: s.streamWarmup}
}

// liveCity reads per-city statistics from the streaming window, guarded
// two ways against thin data. First, a global warm-up gate: until the
// window has absorbed `warmup` transactions, every city serves the
// bundle's frozen table — a cold daemon scores exactly like the T+1 path,
// and no city computes a traffic share over a near-empty denominator
// (one lone transaction would otherwise read share=1.0 against a frozen
// ~1/cities). Second, past warm-up, a per-city fallback: a city with no
// in-window traffic serves its frozen value rather than the bare
// smoothing prior.
type liveCity struct {
	live   StreamAggregates
	frozen *feature.CityTable
	warmup int64
}

// Lookup satisfies feature.CitySource.
func (lc *liveCity) Lookup(c uint16) (fraud, share float64) {
	if lc.live.Ingested() < lc.warmup {
		return lc.frozen.Lookup(c)
	}
	f, sh, n := lc.live.LookupCity(c)
	if n == 0 {
		return lc.frozen.Lookup(c)
	}
	return f, sh
}

// SetBundle hot-swaps the model (the paper's periodic model-file update).
// The user cache, when present, is purged: a bundle swap typically lands
// right after an upload wave has re-published every user at the new
// version, so anything cached may be a T-1 fragment.
func (s *Server) SetBundle(b *Bundle) error {
	if b == nil {
		return fmt.Errorf("%w: nil bundle", ErrBundleInvalid)
	}
	if err := b.validate(); err != nil {
		return err
	}
	// A swap starts a new score distribution: rebuild the drift monitor
	// so the baseline re-freezes on the new bundle's first traffic, and
	// start a new shadow comparison epoch — agreement with a departed
	// champion says nothing about the new one. All replaced under the
	// same lock scoringView reads, so an in-flight pass observes a
	// consistent (bundle, monitor, epoch) triple.
	s.mu.Lock()
	s.bundle = b
	s.citySrc = s.cityView(b)
	// The reset marker and the resets themselves share one elogMu
	// critical section: no score or shadow event can be logged between
	// the marker and the state it resets, so replay resets at exactly
	// the point the live process did. (Lock order is s.mu then elogMu;
	// the logged hot paths take elogMu alone.)
	s.elogMu.Lock()
	if s.elog != nil {
		s.logResetLocked(b.Version)
	}
	if s.driftCfg != nil {
		s.drift.Store(decision.NewMonitor(*s.driftCfg, driftSeriesNames(b)))
	}
	if s.shadow != nil {
		s.shadow.championSwapped()
	}
	s.elogMu.Unlock()
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.Purge()
	}
	return nil
}

// InvalidateUser drops one user's cached fragments (a no-op without a
// cache). Uploaders wire this into Uploader.Invalidate so live feature
// re-publication is visible to the very next score.
func (s *Server) InvalidateUser(u txn.UserID) {
	if s.cache != nil {
		s.cache.Invalidate(u)
	}
}

// UserCacheStats snapshots the cache counters (zero without a cache).
func (s *Server) UserCacheStats() usercache.Stats {
	if s.cache == nil {
		return usercache.Stats{}
	}
	return s.cache.Stats()
}

func (s *Server) currentBundle() *Bundle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bundle
}

// scoringView reads the bundle, its city source, the drift monitor and
// the shadow epoch in one lock round: SetBundle replaces all of them
// under the same lock, so a scoring pass that began under the old
// bundle cannot feed the old model's scores into the new monitor's
// baseline or stamp old-champion comparisons into the new shadow epoch.
func (s *Server) scoringView() (*Bundle, feature.CitySource, *decision.Monitor, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var epoch int64
	if s.shadow != nil {
		epoch = s.shadow.epoch.Load()
	}
	return s.bundle, s.citySrc, s.drift.Load(), epoch
}

// BundleVersion returns the active bundle's version string.
func (s *Server) BundleVersion() string {
	return s.currentBundle().Version
}

// MemberInfo describes one ensemble member (GET /v1/models).
type MemberInfo struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	Threshold float64 `json:"threshold"`
}

// ModelInfo describes the active bundle (GET /v1/models). Combiner and
// Members are present only for v2 ensemble bundles, so v1 responses are
// byte-compatible with older clients.
type ModelInfo struct {
	Version      string       `json:"version"`
	Threshold    float64      `json:"threshold"`
	EmbeddingDim int          `json:"embedding_dim"`
	Combiner     string       `json:"combiner,omitempty"`
	Members      []MemberInfo `json:"members,omitempty"`
}

// ModelInfo returns the active bundle's metadata.
func (s *Server) ModelInfo() ModelInfo {
	b := s.currentBundle()
	info := ModelInfo{Version: b.Version, Threshold: b.Threshold, EmbeddingDim: b.EmbeddingDim}
	if len(b.Members) > 0 {
		info.Combiner = b.Combine.String()
		info.Members = make([]MemberInfo, len(b.Members))
		for i := range b.Members {
			m := &b.Members[i]
			info.Members[i] = MemberInfo{Name: m.Name, Weight: m.weight(), Threshold: m.Threshold}
		}
	}
	return info
}

// MemberScore is one ensemble member's contribution to a verdict, exposed
// for explainability: which detector fired, and how strongly.
type MemberScore struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// Verdict is a scoring outcome. Members carries the per-member scores of
// a v2 ensemble bundle; it is omitted for v1 single-model bundles, whose
// wire format is unchanged. Members is capacity-limited (len == cap), and
// may share an array of at most 2 KiB with other verdicts' members, which
// keeping it keeps alive.
type Verdict struct {
	TxnID   txn.TxnID     `json:"txn_id"`
	Score   float64       `json:"score"`
	Fraud   bool          `json:"fraud"`
	Version string        `json:"model_version"`
	Latency time.Duration `json:"latency_ns"`
	Members []MemberScore `json:"members,omitempty"`
}

// scoredBatch exposes one scoring pass's scratch to a visit callback
// while it is still alive: the pooled combined and per-member score
// buffers are reclaimed when the callback returns, so callers must copy
// anything they keep. It is how the decision path reads the ensemble
// breakdown without a second scoring pass — Score, ScoreBatch, Decide
// and DecideBatch all run through the same core, which is what makes
// their scores (and therefore their actions) bitwise identical.
type scoredBatch struct {
	bundle       *Bundle
	ens          *ensemble
	combined     []float64     // one combined score per transaction
	memberScores [][]float64   // [member][row]; nil for v1 single-model bundles
	perItem      time.Duration // each item's amortised share of the pass
	shadowEpoch  int64         // shadow epoch these scores belong to
}

// Score runs the full online path for one transaction: fetch both users'
// fragments from HBase, assemble the feature vector, run the ensemble,
// fire the alert if the combined score crosses the threshold. It is the
// batch path at batch size one — a pooled one-row matrix through the
// same ensemble core — so single and batch scoring cannot drift.
func (s *Server) Score(ctx context.Context, t *txn.Transaction) (Verdict, error) {
	d, err := s.one(ctx, t, false, decision.ScenarioDefault)
	return d.Verdict, err
}

// ScoreBatch scores a batch in input order through the batch-native
// runtime: it deduplicates the batch's user set and fetches each distinct
// user once across the worker pool, assembles the whole batch into one
// pooled feature matrix over the same pool, then runs every ensemble
// member's vectorised batch path (compiled GBDT, fused LR, …) over the
// matrix in a single pass before combining. The first per-item error
// aborts the batch. Verdict latencies are each item's amortised share of
// the batch's fetch, assembly and model phases, so they remain comparable
// with Score's latencies in the shared histogram; the batch's end-to-end
// time is the caller's to observe.
func (s *Server) ScoreBatch(ctx context.Context, txns []txn.Transaction) ([]Verdict, error) {
	var dst results
	if err := s.batch(ctx, txns, false, nil, &dst); err != nil {
		return nil, err
	}
	return dst.verdicts, nil
}

// results is where the batch core puts what it returns. ScoreBatch and
// DecideBatch pass a zero one, so they allocate exactly what they hand
// back; a shard's wire answer passes its pooled wireBuf's, whose contents
// live only until the answer is encoded.
type results struct {
	verdicts  []Verdict
	decisions []Decision
	members   []MemberScore
}

// one is the core of Score and, with decide, of Decide under the active
// policy and scenario sc: admission, run, the verdict (and decision),
// its observation and the call's trace. The member breakdown is carved
// from a shared slab (see carveMembers).
func (s *Server) one(ctx context.Context, t *txn.Transaction, decide bool, sc decision.Scenario) (Decision, error) {
	et, pol := s.telScore, (*decision.Policy)(nil)
	if decide {
		if et, pol = s.telDecide, s.currentPolicy(); pol == nil {
			return Decision{}, ErrPolicyDisabled
		}
	}
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, 1)
	if err != nil {
		return Decision{}, err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var d Decision
	var epoch int64
	// t as a one-row batch, not a copy: the Alert callback would move a
	// copy to the heap.
	if err := s.run(ctx, unsafe.Slice(t, 1), true, &spans, func(sb *scoredBatch) error {
		decideStart := time.Now()
		d.Verdict = sb.verdict(t, 0, sb.memberBacking(1, nil))
		if decide {
			in := s.inputTemplate(sb)
			in.Txn, in.Scenario, in.Score, in.Row = t, sc, sb.combined[0], 0
			applyOutcome(&d, pol, sc, pol.Decide(&in))
			spans[telemetry.StageDecide] = time.Since(decideStart)
		}
		d.Latency = sb.perItem
		epoch = sb.shadowEpoch
		return nil
	}); err != nil {
		return Decision{}, err
	}
	shadowStart := time.Now()
	if decide {
		s.observeDecision(t, &d, epoch)
	} else {
		s.observe(t, &d.Verdict, epoch)
	}
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, et, time.Since(start), &spans)
	return d, nil
}

// batch is the core of ScoreBatch and, with decide, of DecideBatch under
// the active policy (scenarios index-aligned with txns, nil: the default
// scenario): it puts the verdicts in dst.verdicts, or the decisions in
// dst.decisions, and their member breakdowns in dst.members.
func (s *Server) batch(ctx context.Context, txns []txn.Transaction, decide bool, scenarios []decision.Scenario, dst *results) error {
	et, pol := s.telScoreBatch, (*decision.Policy)(nil)
	if decide {
		if et, pol = s.telDecideBatch, s.currentPolicy(); pol == nil {
			return ErrPolicyDisabled
		}
		if scenarios != nil && len(scenarios) != len(txns) {
			return fmt.Errorf("ms: %d scenarios for %d transactions", len(scenarios), len(txns))
		}
	}
	if len(txns) == 0 {
		return nil
	}
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, len(txns))
	if err != nil {
		return err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var epoch int64
	if err := s.run(ctx, txns, false, &spans, func(sb *scoredBatch) error {
		decideStart := time.Now()
		members := sb.memberBacking(len(txns), dst)
		epoch = sb.shadowEpoch
		if !decide {
			dst.verdicts = grow(dst.verdicts, len(txns))
			for i := range txns {
				dst.verdicts[i] = sb.verdict(&txns[i], i, members)
				dst.verdicts[i].Latency = sb.perItem
			}
			return nil
		}
		dst.decisions = grow(dst.decisions, len(txns))
		in := s.inputTemplate(sb)
		for i := range txns {
			if scenarios != nil {
				in.Scenario = scenarios[i]
			}
			in.Txn, in.Score, in.Row = &txns[i], sb.combined[i], i
			d := &dst.decisions[i]
			d.Verdict = sb.verdict(&txns[i], i, members)
			d.Latency = sb.perItem
			applyOutcome(d, pol, in.Scenario, pol.Decide(&in))
		}
		spans[telemetry.StageDecide] = time.Since(decideStart)
		return nil
	}); err != nil {
		return err
	}
	shadowStart := time.Now()
	for i := range txns {
		if decide {
			s.observeDecision(&txns[i], &dst.decisions[i], epoch)
		} else {
			s.observe(&txns[i], &dst.verdicts[i], epoch)
		}
	}
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, et, time.Since(start), &spans)
	return nil
}

// run is the scoring core of every verb: fetch the transactions' users,
// assemble their rows into a pooled matrix, run the ensemble over it in
// one vectorised pass, observe drift, then hand the live scratch to visit
// (see scoredBatch). single is the one-transaction verbs' fetch and
// assembly (fillOne); a batch's is fillBatch. Cancellation and deadlines
// on ctx are honoured; a cancelled context returns promptly with
// ctx.Err() and visit never runs (so alerts and decisions are never
// derived from an abandoned request). spans receives the
// fetch/assemble/score stage timings — a caller-owned stack buffer, so
// tracing adds clock reads, not allocations.
func (s *Server) run(ctx context.Context, txns []txn.Transaction, single bool, spans *telemetry.Spans, visit func(*scoredBatch) error) error {
	if s.maxBatch > 0 && len(txns) > s.maxBatch {
		return batchTooLarge(len(txns), s.maxBatch)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	bundle, city, mon, epoch := s.scoringView()
	ens, err := bundle.runtime()
	if err != nil {
		return err
	}
	start := time.Now()
	m := getMatrix(len(txns), feature.NumBasic+2*bundle.EmbeddingDim)
	defer putMatrix(m)
	var fetched time.Time
	if single {
		fetched, err = s.fillOne(&txns[0], bundle, city, m)
	} else {
		fetched, err = s.fillBatch(ctx, txns, bundle, city, m)
	}
	if err != nil {
		return err
	}
	scoreStart := time.Now()
	spans[telemetry.StageFetch], spans[telemetry.StageAssemble] = fetched.Sub(start), scoreStart.Sub(fetched)
	sc := getScoreScratch(ens.breakdown(), len(txns))
	defer putScoreScratch(sc)
	if err := ens.score(sc.combined, sc.sb.memberScores, m); err != nil {
		return err
	}
	// Re-check after all the work so a deadline that expired mid-fetch or
	// mid-score upholds the no-alert guarantee.
	if err := ctx.Err(); err != nil {
		return err
	}
	s.recordScores(mon, sc.combined, sc.sb.memberScores)
	end := time.Now()
	spans[telemetry.StageScore] = end.Sub(scoreStart)
	sc.sb.bundle, sc.sb.ens, sc.sb.shadowEpoch = bundle, ens, epoch
	sc.sb.perItem = end.Sub(start) / time.Duration(len(txns))
	return visit(&sc.sb)
}

// fillOne fetches one transaction's two users inline — a point read, or
// with a cache a single shard probe, costs less than a batch's dedup
// bookkeeping — and assembles its row of m. It returns when the fetch
// ended, which splits the caller's fetch and assembly spans.
func (s *Server) fillOne(t *txn.Transaction, bundle *Bundle, city feature.CitySource, m *feature.Matrix) (fetched time.Time, err error) {
	from, err := s.fetchOne(t.From)
	if err != nil {
		return fetched, err
	}
	to, err := s.fetchOne(t.To)
	if err != nil {
		return fetched, err
	}
	return time.Now(), assembleRow(t, &from, &to, bundle, city, m.Row(0))
}

// fillBatch fetches each distinct user of a batch exactly once — cache
// hits by a probe, misses in chunked multi-get rounds that amortise one
// store lock acquisition over a whole chunk — then assembles m's rows over
// the worker pool. It returns when the fetch ended, as fillOne does.
func (s *Server) fillBatch(ctx context.Context, txns []txn.Transaction, bundle *Bundle, city feature.CitySource, m *feature.Matrix) (fetched time.Time, err error) {
	fs := fetchPool.Get().(*fetchScratch)
	defer putFetchScratch(fs)
	for i := range txns {
		fs.add(txns[i].From)
		fs.add(txns[i].To)
	}
	if err := s.fetchUsers(ctx, fs); err != nil {
		return fetched, err
	}
	if s.strict {
		for i, ok := range fs.found {
			if !ok {
				return fetched, fmt.Errorf("%w: user %d", ErrUserNotFound, fs.ids[i])
			}
		}
	}
	fetched = time.Now()
	fs.txns, fs.bundle, fs.city, fs.m = txns, bundle, city, m
	return fetched, s.runPool(ctx, len(txns), fs.assemble)
}

// traceObserve folds one request's spans into the endpoint's stage
// histograms and exemplar ring. A nil track means tracing is off for
// this endpoint; a request without a context trace ID is still
// aggregated, just with a zero exemplar ID.
func (s *Server) traceObserve(ctx context.Context, et *telemetry.EndpointTrack, total time.Duration, spans *telemetry.Spans) {
	if et == nil {
		return
	}
	id, _ := telemetry.TraceFrom(ctx)
	et.Observe(id, total, spans)
}

// observeDrift feeds one scoring pass's scores into mon (a no-op when
// nil). mon is the monitor captured with the bundle in the same
// scoringView lock round, so the scores always land in the monitor
// built for the bundle that produced them; the NumSeries check is a
// second line of defence for hand-assembled states.
func observeDrift(mon *decision.Monitor, combined []float64, memberScores [][]float64) {
	if mon == nil {
		return
	}
	withMembers := memberScores != nil && mon.NumSeries() == 1+len(memberScores)
	for i := range combined {
		mon.ObserveSeries(0, combined[i])
		if withMembers {
			for k := range memberScores {
				mon.ObserveSeries(k+1, memberScores[k][i])
			}
		}
	}
}

// assembleRow is the batch's assembly stage for transaction i: its row
// of fs.m from the fragments at its two recorded positions.
func (fs *fetchScratch) assembleRow(i int) error {
	t := &fs.txns[i]
	if err := assembleRow(t, &fs.parts[fs.pos[2*i]], &fs.parts[fs.pos[2*i+1]], fs.bundle, fs.city, fs.m.Row(i)); err != nil {
		return fmt.Errorf("ms: txn %d: %w", t.ID, err)
	}
	return nil
}

// assembleRow writes one transaction's full feature vector (52 basic
// features plus both endpoints' embeddings) into row, a matrix row of
// width NumBasic+2*EmbeddingDim. city supplies the per-city statistics —
// frozen or live depending on the engine's configuration.
func assembleRow(t *txn.Transaction, from, to *userParts, bundle *Bundle, city feature.CitySource, row []float64) error {
	dim := bundle.EmbeddingDim
	feature.BasicFromParts(t, &from.user, &to.user, city, row[:feature.NumBasic])
	if dim > 0 {
		if err := copyEmb(row[feature.NumBasic:feature.NumBasic+dim], from.emb, t.From); err != nil {
			return err
		}
		if err := copyEmb(row[feature.NumBasic+dim:], to.emb, t.To); err != nil {
			return err
		}
	}
	return nil
}

// memberBacking puts the per-member breakdowns of rows verdicts in one
// array of dst (nil for v1 single-model bundles, which have none), so a
// batch pays at most one allocation for them instead of one per verdict;
// a nil dst carves them from a shared slab.
func (sb *scoredBatch) memberBacking(rows int, dst *results) []MemberScore {
	if sb.memberScores == nil {
		return nil
	}
	if dst == nil {
		return carveMembers(rows * len(sb.ens.names))
	}
	dst.members = grow(dst.members, rows*len(sb.ens.names))
	return dst.members
}

// verdict builds the verdict for row i: combined score against the
// bundle threshold, plus the per-member breakdown carved out of members
// (see memberBacking).
func (sb *scoredBatch) verdict(t *txn.Transaction, i int, members []MemberScore) Verdict {
	v := Verdict{
		TxnID:   t.ID,
		Score:   sb.combined[i],
		Fraud:   sb.combined[i] >= sb.bundle.Threshold,
		Version: sb.bundle.Version,
	}
	if k := len(sb.ens.names); members != nil {
		v.Members = members[i*k : (i+1)*k : (i+1)*k]
		for m := range v.Members {
			v.Members[m] = MemberScore{Name: sb.ens.names[m], Score: sb.memberScores[m][i]}
		}
	}
	return v
}

// copyEmb decodes a stored embedding — little-endian float32s, the
// store's own bytes — into the feature vector, widening each as it is
// written. An absent embedding (cold-start user) is the zero vector; any
// other length disagreement is data corruption and refuses to score.
func copyEmb(dst []float64, src []byte, u txn.UserID) error {
	n := len(src) / 4
	if n == 0 {
		clear(dst)
		return nil
	}
	if n != len(dst) {
		return fmt.Errorf("%w: user %d has %d dims, model wants %d",
			ErrDimensionMismatch, u, n, len(dst))
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return nil
}

// fetchOne reads one user's fragments, applying the strict-users policy.
// With a cache the read goes through GetOrLoad: hits return the cached
// fragments with no store access, concurrent misses for the same user
// collapse to a single store read, and unknown users are remembered as
// negative entries so cold-start traffic stops costing point reads. A
// store read goes to the user's owner table.
func (s *Server) fetchOne(u txn.UserID) (userParts, error) {
	load := func() (userParts, bool, error) {
		return fetchUser(s.tables[ShardOf(u, len(s.tables))], u)
	}
	var (
		parts userParts
		found bool
		err   error
	)
	if s.cache != nil {
		parts, found, err = s.cache.GetOrLoad(u, load)
	} else {
		parts, found, err = load()
	}
	if err != nil {
		return parts, fmt.Errorf("ms: fetch user %d: %w", u, err)
	}
	if !found && s.strict {
		return parts, fmt.Errorf("%w: user %d", ErrUserNotFound, u)
	}
	return parts, nil
}

// fetchChunk bounds one multi-get round: large enough to amortise the
// store's lock acquisition to noise, small enough that a round never
// holds the read lock long and chunks spread across the worker pool.
const fetchChunk = 256

// miss is one user of a batch the cache could not answer: its position in
// the batch's id list, its owner table, where its row key ends in the
// batch's key arena, and the cache generation captured before the store
// read (see usercache.Cache.Add).
type miss struct {
	gen    uint64
	idx    int32
	tab    int32
	keyEnd int32
}

// fetchUsers resolves fs's deduped user set into fs.parts/fs.found. Cached
// entries are peeked first; the misses group by owner table and batch into
// chunked multi-get rounds fanned out over the worker pool, and — with a
// cache — the loaded entries are inserted for subsequent batches, each
// guarded by its shard generation captured before the store read so a
// concurrent upload's invalidation wins over the stale read.
func (s *Server) fetchUsers(ctx context.Context, fs *fetchScratch) error {
	n := len(s.tables)
	ids := fs.ids
	fs.parts, fs.found = grow(fs.parts, len(ids)), grow(fs.found, len(ids))
	misses := fs.misses[:0]
	for i, u := range ids {
		var gen uint64
		if s.cache != nil {
			// One lock round per key: the hit, or the miss plus the shard
			// generation guarding the upcoming store read.
			v, ok, present, g := s.cache.PeekGen(u)
			if present {
				fs.parts[i], fs.found[i] = v, ok
				continue
			}
			gen = g
		}
		fs.parts[i], fs.found[i] = userParts{user: txn.User{ID: u}}, false
		misses = append(misses, miss{gen: gen, idx: int32(i), tab: int32(ShardOf(u, n))})
	}
	fs.misses = misses
	if len(misses) == 0 {
		return nil
	}
	if n > 1 {
		// In place, so a partitioned store costs the batch no allocation;
		// stable, so each table reads its users in batch order.
		slices.SortStableFunc(misses, func(a, b miss) int { return int(a.tab - b.tab) })
	}
	// One key string per batch: every miss's row key is a substring of it.
	keys := fs.keys[:0]
	for k := range misses {
		keys = appendRowKey(keys, ids[misses[k].idx])
		misses[k].keyEnd = int32(len(keys))
	}
	fs.keys = keys
	arena, start := string(keys), int32(0)
	fs.rows = fs.rows[:0]
	for _, m := range misses {
		fs.rows = append(fs.rows, arena[start:m.keyEnd])
		start = m.keyEnd
	}
	if err := s.multiGet(ctx, fs); err != nil {
		return err
	}
	if s.cache != nil {
		for _, m := range misses {
			s.cache.Add(ids[m.idx], m.gen, fs.parts[m.idx], fs.found[m.idx])
		}
	}
	return nil
}

// multiGet reads fs.misses — grouped by owner table, fs.rows their keys —
// in fetchChunk-sized rounds over the worker pool. A round that spans a
// table boundary splits there, so every store call names one table.
func (s *Server) multiGet(ctx context.Context, fs *fetchScratch) error {
	fs.tables = s.tables
	return s.runPool(ctx, (len(fs.misses)+fetchChunk-1)/fetchChunk, fs.readChunk)
}

// readChunkAt is multiGet's stage for round ci.
func (fs *fetchScratch) readChunkAt(ci int) error {
	misses := fs.misses
	lo := ci * fetchChunk
	hi := min(lo+fetchChunk, len(misses))
	for lo < hi {
		tab := misses[lo].tab
		end := lo + 1
		for end < hi && misses[end].tab == tab {
			end++
		}
		if err := fs.readRows(fs.tables[tab], lo, end); err != nil {
			return err
		}
		lo = end
	}
	return nil
}

// runPool runs fn(0..n-1) across the engine's worker pool, stopping at
// the first error or context cancellation. The caller works beside
// min(workers, n)−1 helpers, so a one-unit stage runs on the caller with
// no goroutine, and the stage's state is one pooled record.
func (s *Server) runPool(ctx context.Context, n int, fn func(int) error) error {
	r := poolRuns.Get().(*poolRun)
	r.ctx, r.n, r.fn = ctx, n, fn
	helpers := max(min(s.workers, n)-1, 0)
	r.wg.Add(helpers)
	for range helpers {
		go r.helper()
	}
	r.work()
	r.wg.Wait()
	err := r.err
	*r = poolRun{helper: r.helper} // a pooled record pins no ctx or fn
	poolRuns.Put(r)
	return err
}

// poolRun is one runPool stage. helper, bound once per record, is what a
// helper goroutine runs, so spawning one allocates no closure.
type poolRun struct {
	ctx    context.Context
	n      int
	fn     func(int) error
	next   atomic.Int64
	stop   atomic.Bool
	wg     sync.WaitGroup
	err    error
	helper func()
}

var poolRuns = sync.Pool{New: func() any {
	r := new(poolRun)
	r.helper = func() { r.work(); r.wg.Done() }
	return r
}}

// work claims indexes until they run out or the stage stops. Only the
// failure that stops it writes err, so err needs no lock: the caller reads
// it after wg.Wait.
func (r *poolRun) work() {
	n, fn, done := r.n, r.fn, r.ctx.Done()
	for i := int(r.next.Add(1)) - 1; i < n && !r.stop.Load(); i = int(r.next.Add(1)) - 1 {
		var err error
		select {
		case <-done:
			err = r.ctx.Err()
		default:
			err = fn(i)
		}
		if err != nil && !r.stop.Swap(true) {
			r.err = err
		}
	}
}

// observe records one verdict's counters and latency, firing the alert
// for fraudulent transactions and handing the transaction to the shadow
// challenger (a non-blocking enqueue that sheds on overflow). epoch is
// the shadow epoch the verdict was scored under (scoringView), so a
// champion swap mid-batch marks the batch's comparisons stale instead
// of polluting the new champion's meter.
func (s *Server) observe(t *txn.Transaction, v *Verdict, epoch int64) {
	s.scored.Add(1)
	s.hist.Record(v.Latency)
	if v.Fraud {
		s.alerted.Add(1)
		if s.alert != nil {
			s.alert(t, v.Score)
		}
	}
	if s.shadow != nil {
		s.shadow.enqueue(t, v, epoch)
	}
}

// Ingest feeds one observed transaction into the live aggregate window
// (POST /v1/ingest). Callers send both scored transfers that completed
// and delayed fraud reports (re-sent with the Fraud flag set), so the
// window's city fraud rates track reality as labels arrive. Returns
// ErrStreamDisabled on an engine built without WithStreamAggregates.
//
// Ingest also clears any *negative* user-cache entries for the two
// endpoints: live traffic cannot stale stored fragments (those only
// change through uploads, which invalidate exactly), but a transaction
// naming a user the store has never seen is a signal that user may be
// published shortly, so the known-absent marker must not pin them as
// unknown until eviction.
func (s *Server) Ingest(t *txn.Transaction) error {
	if s.stream == nil {
		return ErrStreamDisabled
	}
	if s.elog != nil {
		s.elogMu.Lock()
		defer s.elogMu.Unlock()
		if err := s.ingestLocked(t); err != nil {
			return err
		}
		return s.maybeSnapshotLocked()
	}
	s.stream.Ingest(t)
	s.dropNegative(t)
	return nil
}

// dropNegative clears cold-start cache markers for a transaction's
// endpoints (no-op without a cache).
func (s *Server) dropNegative(t *txn.Transaction) {
	if s.cache != nil {
		s.cache.InvalidateNegative(t.From)
		s.cache.InvalidateNegative(t.To)
	}
}

// IngestBatch ingests a slice in order, subject to the engine's batch
// limit. It is all-or-nothing only on the pre-checks; ingestion itself
// cannot fail.
func (s *Server) IngestBatch(txns []txn.Transaction) error {
	if s.stream == nil {
		return ErrStreamDisabled
	}
	if s.maxBatch > 0 && len(txns) > s.maxBatch {
		return batchTooLarge(len(txns), s.maxBatch)
	}
	if s.elog != nil {
		s.elogMu.Lock()
		defer s.elogMu.Unlock()
		for i := range txns {
			if err := s.ingestLocked(&txns[i]); err != nil {
				return err
			}
		}
		return s.maybeSnapshotLocked()
	}
	for i := range txns {
		s.stream.Ingest(&txns[i])
		s.dropNegative(&txns[i])
	}
	return nil
}

// StreamEnabled reports whether the engine maintains a live aggregate
// window.
func (s *Server) StreamEnabled() bool { return s.stream != nil }

// Ingested returns the live window's accepted-transaction count (0 when
// streaming is disabled).
func (s *Server) Ingested() int64 {
	if s.stream == nil {
		return 0
	}
	return s.stream.Ingested()
}
