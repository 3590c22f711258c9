// Package titant is a from-scratch reproduction of "TitAnt: Online
// Real-time Transaction Fraud Detection in Ant Financial" (Cao et al.,
// VLDB 2019): an end-to-end fraud-detection pipeline with offline
// periodical training over a transaction store, network-representation
// learning on the transaction graph, classical detectors over
// basic-features-plus-embeddings, and a millisecond-latency online model
// server backed by a column-family feature store.
//
// This top-level package is the public API; it re-exports the pieces a
// downstream user needs:
//
//	world := titant.Generate(titant.DefaultWorldConfig()) // synthetic workload
//	ds, _ := world.Dataset(1)                             // 90d network / 14d train / 1d test
//	opts := titant.DefaultOptions()
//	spec := titant.Spec{Features: titant.FeatBasicDW, Detectors: []titant.Detector{titant.DetGBDT}}
//	art, _ := titant.Train(world.Users, ds, spec, nil, opts) // learns DeepWalk itself
//	fmt.Println(art.Eval().F1)                               // the test day, through the served bundle
//
// For online serving, deploy the same artifact into a feature table and
// build the v1 scoring engine; attach a streaming aggregate store so
// scoring reads statistics updated by live traffic instead of the
// T+1 snapshot:
//
//	sink := titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0)
//	bundle, _ := art.Deploy(sink, "2017-04-10") // upload users, version the bundle
//	st := titant.NewStreamStore()               // live sliding-window aggregates
//	eng, _ := titant.NewEngine(tab, bundle,
//	    titant.WithAlert(onFraud), titant.WithStreamAggregates(st))
//	v, _ := eng.Score(ctx, &tx)                 // single, context-aware
//	vs, _ := eng.ScoreBatch(ctx, batch)         // fan-out + fetch dedup
//	_ = eng.Ingest(&tx)                         // observed transfer -> live window
//	_ = eng.ListenAndServe(ctx, ":8070")        // POST /v1/score, /v1/ingest, ...
//
// Attach a decision policy to turn raw scores into online risk actions
// (approve / challenge / deny) under per-scenario threshold bands and
// rule predicates, shadow-score a challenger bundle off the hot path,
// and monitor score drift against a deploy-time baseline:
//
//	eng, _ = titant.NewEngine(tab, bundle,
//	    titant.WithPolicy(titant.DefaultPolicy("pol-1", bundle.Threshold)),
//	    titant.WithShadow(challenger),
//	    titant.WithDriftMonitor(titant.DriftConfig{}))
//	d, _ := eng.Decide(ctx, &tx, titant.ScenarioTransfer) // d.Action, d.Reason
//
// See the examples/ directory for runnable end-to-end programs and
// docs/ARCHITECTURE.md for the system inventory. A paper-vs-measured record
// of the tables and figures is ROADMAP item 2 and not yet written, so no
// ordering between the paper's methods is claimed here.
package titant

import (
	"context"
	"time"

	"titant/internal/core"
	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/feature/stream"
	"titant/internal/hbase"
	"titant/internal/model"
	"titant/internal/ms"
	"titant/internal/ms/usercache"
	"titant/internal/synth"
	"titant/internal/txn"
)

// Re-exported core types.
type (
	// WorldConfig controls the synthetic transaction workload.
	WorldConfig = synth.Config
	// World is a generated environment: users, fraud rings, transaction log.
	World = synth.World
	// ScenarioMix selects how many incidents of each attack scenario
	// (account takeover, merchant bust-out, mule chains, card testing)
	// ComposeWorld layers onto the base ring-fraud world.
	ScenarioMix = synth.ScenarioMix
	// ScenarioManifest is one scenario incident's machine-readable ground
	// truth: kind, involved users, activation window and fraud txn IDs.
	ScenarioManifest = synth.ScenarioManifest
	// WorldManifest indexes every labeled scenario of a composed world —
	// the ground truth load harnesses grade detection against.
	WorldManifest = synth.Manifest
	// Dataset is one "T+1" experiment unit (network/train/test windows).
	Dataset = txn.Dataset
	// Transaction is a single transfer record.
	Transaction = txn.Transaction
	// User is a user profile.
	User = txn.User
	// Options bundles all model hyperparameters (paper Section 5.1).
	Options = core.Options
	// FeatureSet selects the detector's input features (Table 1 rows).
	FeatureSet = core.FeatureSet
	// Detector selects the detection method.
	Detector = core.Detector
	// Embeddings caches the two NRL methods' outputs for a dataset.
	Embeddings = core.Embeddings
	// Spec is one trained configuration: a feature set, the detectors
	// and the combiner that folds their scores (see Train).
	Spec = core.Spec
	// Artifact is one trained Spec: Eval scores the test day through the
	// bundle that Deploy publishes.
	Artifact = core.Artifact
	// BatchScorer is the vectorised scoring contract: detectors that
	// implement it (all four built-ins do) score whole feature matrices
	// per call instead of row by row, which is what the serving engine's
	// batch-native runtime dispatches to.
	BatchScorer = model.BatchScorer
	// Bundle is the model artefact served by the Model Server: a v1
	// single classifier or a v2 ensemble of named members.
	Bundle = ms.Bundle
	// Combiner selects how an ensemble folds member scores (mean, max or
	// weighted vote).
	Combiner = ms.Combiner
	// MemberScore is one member's contribution to a Verdict, exposed for
	// explainability on /v1/score.
	MemberScore = ms.MemberScore
	// Engine is the v1 online scoring engine (Figure 5): context-aware
	// Score, batch-first ScoreBatch, functional options, typed errors and
	// the versioned HTTP API.
	Engine = ms.Server
	// UserSink receives deployed user rows (see Artifact.Deploy); the
	// sharded uploader from NewShardedUploader partitions them across a
	// set of tables by the same hash the engine reads with.
	UserSink = core.UserSink
	// EngineOption configures the scoring engine (see WithAlert,
	// WithWorkers, WithHistogram, WithStrictUsers, WithMaxBatch).
	EngineOption = ms.Option
	// Alert is the fraud-interruption callback fired for transactions
	// scored at or above the bundle threshold.
	Alert = ms.Alert
	// Verdict is one transaction's scoring outcome.
	Verdict = ms.Verdict
	// FeatureTable is the column-family online feature store (Figure 7).
	FeatureTable = hbase.Table
	// StreamStore is the sharded streaming aggregate store: incremental
	// sliding-window velocity/diversity/city statistics on the hot path
	// (see internal/feature/stream).
	StreamStore = stream.Store
	// StreamOption configures a StreamStore (see WithStreamShards,
	// WithStreamWindow, WithStreamCities).
	StreamOption = stream.Option
	// UserCacheStats snapshots the engine's read-through user-cache
	// counters (see WithUserCache and Engine.UserCacheStats).
	UserCacheStats = usercache.Stats
	// EventLogOption tunes the engine's durable event log (see
	// WithEventLog and internal/eventlog).
	EventLogOption = eventlog.Option
	// EventLogStats is the event log's operational snapshot
	// (Engine.EventLogStats, /v1/stats "eventlog" section).
	EventLogStats = eventlog.Stats
	// EventLogInspection summarises a log directory offline (see
	// InspectEventLog and `titant logctl`).
	EventLogInspection = eventlog.InspectResult
	// DecisionPolicy is a versioned risk-decision policy document:
	// per-scenario threshold bands plus rule predicates, mapping scores
	// to approve/challenge/deny actions (see internal/decision).
	DecisionPolicy = decision.Policy
	// DecisionAction is a risk decision: approve, challenge or deny.
	DecisionAction = decision.Action
	// Scenario selects which per-scenario policy applies (payment,
	// transfer, withdrawal or default).
	Scenario = decision.Scenario
	// Decision is one transaction's decisioning outcome: the scoring
	// verdict plus the policy action and its attribution.
	Decision = ms.Decision
	// PolicyInfo summarises the engine's active policy.
	PolicyInfo = ms.PolicyInfo
	// HealthInfo is the engine's readiness snapshot (GET /healthz).
	HealthInfo = ms.HealthInfo
	// AdmissionStats snapshots the engine's admission-control counters
	// (see WithCallerQuota, WithMaxInflight and /v1/stats "admission").
	AdmissionStats = ms.AdmissionStats
	// DriftConfig tunes the score drift monitor (see WithDriftMonitor).
	DriftConfig = decision.DriftConfig
	// DriftStats is one score series' drift snapshot (PSI/KS vs the
	// baseline frozen at bundle deploy).
	DriftStats = decision.DriftStats
	// ShadowStats snapshots champion/challenger agreement, divergence
	// and would-have-flipped counters (see WithShadow).
	ShadowStats = decision.ShadowStats
)

// Feature sets of Table 1.
const (
	FeatBasic      = core.FeatBasic
	FeatBasicS2V   = core.FeatBasicS2V
	FeatBasicDW    = core.FeatBasicDW
	FeatBasicDWS2V = core.FeatBasicDWS2V
)

// Detectors evaluated in the paper.
const (
	DetIF   = core.DetIF
	DetID3  = core.DetID3
	DetC50  = core.DetC50
	DetLR   = core.DetLR
	DetGBDT = core.DetGBDT
)

// Ensemble combiners of the v2 bundle format.
const (
	CombineMean = ms.CombineMean
	CombineMax  = ms.CombineMax
	CombineVote = ms.CombineVote
)

// Decision actions, in severity order.
const (
	ActionApprove   = decision.ActionApprove
	ActionChallenge = decision.ActionChallenge
	ActionDeny      = decision.ActionDeny
)

// Decision scenarios.
const (
	ScenarioDefault    = decision.ScenarioDefault
	ScenarioPayment    = decision.ScenarioPayment
	ScenarioTransfer   = decision.ScenarioTransfer
	ScenarioWithdrawal = decision.ScenarioWithdrawal
)

// DefaultUserCacheSize is the entry capacity daemons use when enabling
// the read-through user cache without an explicit size.
const DefaultUserCacheSize = ms.DefaultUserCacheSize

// ParseCombiner maps "mean", "max" or "vote" to a Combiner.
func ParseCombiner(s string) (Combiner, error) { return ms.ParseCombiner(s) }

// ParsePolicy decodes, validates and compiles a JSON decision-policy
// document (the wire format of POST /v1/policy).
func ParsePolicy(data []byte) (*DecisionPolicy, error) { return decision.Parse(data) }

// DefaultPolicy builds the built-in decision policy derived from a
// bundle's frozen threshold: approve below it, challenge the band above
// it, deny near certainty — with the withdrawal scenario denying
// everything the model flags.
func DefaultPolicy(version string, threshold float64) *DecisionPolicy {
	return decision.Default(version, threshold)
}

// ParseDetector maps a CLI name (if, id3, c50, lr, gbdt) to a Detector.
func ParseDetector(s string) (Detector, error) { return core.ParseDetector(s) }

// DefaultWorldConfig returns the laptop-scale synthetic world settings.
func DefaultWorldConfig() WorldConfig { return synth.DefaultConfig() }

// Generate builds a synthetic world from the configuration.
func Generate(cfg WorldConfig) *World { return synth.Generate(cfg) }

// DefaultScenarioMix returns the laptop-scale attack mix: a handful of
// incidents per scenario kind layered onto the base ring-fraud world.
func DefaultScenarioMix() ScenarioMix { return synth.DefaultScenarioMix() }

// ComposeWorld layers the scenario mix's attack incidents onto the base
// ring-fraud world generated from cfg, returning the composed world and
// the ground-truth manifest. Deterministic in cfg.Seed.
func ComposeWorld(cfg WorldConfig, mix ScenarioMix) (*World, *WorldManifest) {
	return synth.Compose(cfg, mix)
}

// DecodeWorldManifest parses a manifest written by WorldManifest.Encode.
func DecodeWorldManifest(data []byte) (*WorldManifest, error) {
	return synth.DecodeManifest(data)
}

// DefaultOptions returns the paper-aligned hyperparameters.
func DefaultOptions() Options { return core.DefaultOptions() }

// LearnEmbeddings trains DeepWalk and Structure2Vec on the dataset's
// 90-day transaction network.
func LearnEmbeddings(ds *Dataset, opts Options) *Embeddings {
	return core.LearnEmbeddings(ds, opts)
}

// Train runs the T+1 pipeline of Figure 3 for one Spec on the dataset and
// returns the trained artifact: Eval measures it on the test day, Deploy
// publishes it. emb may be nil, and then Train learns the embeddings the
// feature set joins.
func Train(users []User, ds *Dataset, spec Spec, emb *Embeddings, opts Options) (*Artifact, error) {
	return core.Train(users, ds, spec, emb, opts)
}

// OpenFeatureTable opens (or creates) an online feature store.
func OpenFeatureTable(dir string) (*FeatureTable, error) {
	return hbase.Open(hbase.Config{Dir: dir})
}

// NewEngine builds the v1 online scoring engine over the feature table.
func NewEngine(tab *FeatureTable, bundle *Bundle, opts ...EngineOption) (*Engine, error) {
	return ms.New(tab, bundle, opts...)
}

// NewShardedEngine builds the same engine over a feature store
// partitioned across len(tables) tables: a user's row lives in the table
// ShardOf assigns it and only the store read routes there — the cache,
// the live window, the model and the policy are one at any width, so
// every width scores bitwise like NewEngine over one table. To scale
// beyond one process, run one engine per shard server behind
// `titant route`.
func NewShardedEngine(tables []*FeatureTable, bundle *Bundle, opts ...EngineOption) (*Engine, error) {
	return ms.NewSharded(tables, bundle, opts...)
}

// NewShardedUploader returns a UserSink that routes each deployed user
// row to its owner table by the same hash the engine reads with. version
// follows the Uploader convention (0 = auto wall-clock).
func NewShardedUploader(tables []*FeatureTable, version int64) UserSink {
	return ms.NewShardedUploader(tables, version)
}

// ShardOf reports which of n shards owns user u — the consistent hash
// the engine's partitioned store, the sharded uploader and the wire
// router all agree on.
func ShardOf(u txn.UserID, n int) int { return ms.ShardOf(u, n) }

// WithAlert sets the fraud-interruption callback.
func WithAlert(a Alert) EngineOption { return ms.WithAlert(a) }

// WithWorkers sets the batch fan-out width (default GOMAXPROCS).
func WithWorkers(n int) EngineOption { return ms.WithWorkers(n) }

// WithHistogram replaces the default latency-histogram bucket bounds.
func WithHistogram(bounds []time.Duration) EngineOption { return ms.WithHistogram(bounds) }

// WithStrictUsers makes scoring fail with ms.ErrUserNotFound for users
// absent from the feature store instead of serving zero fragments.
func WithStrictUsers() EngineOption { return ms.WithStrictUsers() }

// WithMaxBatch overrides the ScoreBatch size limit (n <= 0 removes it).
func WithMaxBatch(n int) EngineOption { return ms.WithMaxBatch(n) }

// WithUserCache layers a sharded read-through cache of decoded user
// fragments over the feature store (size entries, CLOCK-evicted;
// n <= 0 disables it). Hits skip the store and every codec; invalidation
// is wired through Engine.InvalidateUser, bundle swaps and ingest.
func WithUserCache(size int) EngineOption { return ms.WithUserCache(size) }

// WithPolicy attaches a decision policy: the engine gains Decide /
// DecideBatch and the POST /v1/decide[/batch] + /v1/policy routes,
// mapping scores through per-scenario threshold bands and rule
// predicates to approve/challenge/deny actions.
func WithPolicy(p *DecisionPolicy) EngineOption { return ms.WithPolicy(p) }

// WithShadow deploys a challenger bundle in shadow: scored traffic is
// re-scored against it asynchronously (bounded queue, drop-on-overflow)
// and champion/challenger agreement surfaces on /v1/stats.
func WithShadow(challenger *Bundle) EngineOption { return ms.WithShadow(challenger) }

// WithShadowQueue bounds the shadow queue (default 1024).
func WithShadowQueue(n int) EngineOption { return ms.WithShadowQueue(n) }

// WithDriftMonitor enables per-member score drift monitoring (PSI/KS
// against a baseline frozen at bundle deploy); zero-valued fields take
// the monitor's defaults.
func WithDriftMonitor(cfg DriftConfig) EngineOption { return ms.WithDriftMonitor(cfg) }

// WithModelToken guards POST /v1/models and /v1/policy behind a bearer
// token.
func WithModelToken(token string) EngineOption { return ms.WithModelToken(token) }

// WithIngestToken guards POST /v1/ingest[/batch] behind a bearer token.
func WithIngestToken(token string) EngineOption { return ms.WithIngestToken(token) }

// WithCallerQuota rate-limits each caller identity (the X-Caller header,
// or WithCallerContext in process) to a token bucket of rate requests
// per second with the given burst. Refusals surface as HTTP 429
// "rate_limited".
func WithCallerQuota(rate float64, burst int) EngineOption { return ms.WithCallerQuota(rate, burst) }

// WithMaxInflight sheds load once n requests are concurrently admitted;
// refusals surface as HTTP 429 "overloaded".
func WithMaxInflight(n int) EngineOption { return ms.WithMaxInflight(n) }

// WithCallerContext tags ctx with a caller identity for per-caller
// quotas on the in-process API (Score, Decide, Admit).
func WithCallerContext(ctx context.Context, caller string) context.Context {
	return ms.WithCallerContext(ctx, caller)
}

// NewStreamStore builds a streaming aggregate store. The defaults mirror
// the paper's reference window: 90 day-wide buckets over 64 lock stripes.
func NewStreamStore(opts ...StreamOption) *StreamStore { return stream.New(opts...) }

// WithStreamShards sets the store's lock-stripe count (rounded up to a
// power of two).
func WithStreamShards(n int) StreamOption { return stream.WithShards(n) }

// WithStreamWindow sets the sliding-window geometry: buckets ring slots
// of bucketSeconds each.
func WithStreamWindow(buckets int, bucketSeconds int64) StreamOption {
	return stream.WithWindow(buckets, bucketSeconds)
}

// WithStreamCities bounds the store's city table.
func WithStreamCities(n int) StreamOption { return stream.WithCities(n) }

// WithStreamAggregates attaches a streaming store to the engine: scoring
// reads live per-city statistics and Ingest / POST /v1/ingest keep the
// window current.
func WithStreamAggregates(st *StreamStore) EngineOption { return ms.WithStreamAggregates(st) }

// WithStreamWarmup sets how many transactions the live window needs
// before scoring trusts it over the bundle's frozen city table.
func WithStreamWarmup(n int64) EngineOption { return ms.WithStreamWarmup(n) }

// WithEventLog attaches a durable, replayable event log rooted at dir:
// ingest becomes log-then-apply, scoring logs drift and shadow
// observations, and a restarted engine rebuilds its streaming window,
// drift baselines and shadow tallies bitwise-identical by snapshot load
// plus tail replay.
func WithEventLog(dir string, opts ...EventLogOption) EngineOption {
	return ms.WithEventLog(dir, opts...)
}

// WithSnapshotEvery sets how many log events accumulate between
// derived-state snapshots (n <= 0 disables snapshotting).
func WithSnapshotEvery(n int64) EngineOption { return ms.WithSnapshotEvery(n) }

// WithEventLogFsyncInterval sets the log's group-commit fsync timer.
func WithEventLogFsyncInterval(d time.Duration) EventLogOption {
	return eventlog.WithFsyncInterval(d)
}

// WithEventLogSegmentBytes sets the log's segment rotation threshold.
func WithEventLogSegmentBytes(n int64) EventLogOption { return eventlog.WithSegmentBytes(n) }

// WithEventLogRetainSegments sets the minimum segment count compaction
// keeps.
func WithEventLogRetainSegments(n int) EventLogOption { return eventlog.WithRetainSegments(n) }

// InspectEventLog scans a log directory offline: segment chain, record
// counts by kind, consumer offsets, newest snapshot.
func InspectEventLog(dir string) (EventLogInspection, error) { return eventlog.Inspect(dir) }

// CompactEventLog removes sealed log segments that the newest snapshot
// and every consumer are past, keeping at least retain segments
// (retain <= 0 takes the default). Returns the removed segment paths.
func CompactEventLog(dir string, retain int) ([]string, error) {
	return eventlog.CompactDir(dir, retain)
}
