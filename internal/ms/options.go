package ms

import (
	"runtime"
	"time"

	"titant/internal/decision"
	"titant/internal/ms/usercache"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// DefaultMaxBatch is the ScoreBatch size limit of an engine built without
// WithMaxBatch.
const DefaultMaxBatch = 4096

// DefaultStreamWarmup is the number of transactions a live window must
// absorb before scoring trusts it over the bundle's frozen city table
// (see WithStreamWarmup).
const DefaultStreamWarmup = 1000

// Option configures the scoring engine built by New.
type Option func(*Server)

// WithAlert sets the fraud-interruption callback invoked for every
// transaction scored at or above the bundle threshold.
func WithAlert(a Alert) Option {
	return func(s *Server) { s.alert = a }
}

// WithWorkers sets the fan-out width of the batch fetch and assemble
// stages (scoring is one pass on the caller); below 1 keeps GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.workers = n
		}
	}
}

// WithHistogram replaces the default latency buckets with custom upper
// bounds (ascending; sanitised by the engine). Percentile resolution is
// the bucket spacing, so tune the bounds to the deployment's latency
// envelope.
func WithHistogram(bounds []time.Duration) Option {
	return func(s *Server) { s.hist = telemetry.NewHistogram(bounds) }
}

// WithoutTracing turns off per-stage span aggregation on this engine:
// Score/Decide and the batch paths skip the stage histograms and the
// slow-exemplar ring, so /v1/debug/trace and the stage series on
// /metrics stay empty. The stage clocks are still read either way —
// spans live in stack buffers — so this option exists to A/B-measure
// the aggregation cost (see BenchmarkScoreBatchTraced), not to save
// meaningful work in production.
func WithoutTracing() Option {
	return func(s *Server) { s.noTrace = true }
}

// WithStrictUsers makes scoring fail with ErrUserNotFound when the sender
// or receiver has no row in the feature store. The default is the paper's
// lenient cold-start behaviour: unknown users score with all-zero
// fragments.
func WithStrictUsers() Option {
	return func(s *Server) { s.strict = true }
}

// WithMaxBatch overrides the ScoreBatch size limit. n <= 0 removes the
// limit entirely.
func WithMaxBatch(n int) Option {
	return func(s *Server) { s.maxBatch = n }
}

// DefaultUserCacheSize is the entry capacity daemons use when the user
// cache is enabled without an explicit size.
const DefaultUserCacheSize = 1 << 16

// WithUserCache layers a sharded read-through cache of decoded user
// fragments over the feature store: warm fetches cost a shard probe
// instead of a store read plus three codec passes, concurrent misses for
// one user collapse to a single load, and unknown users are held as
// negative entries so cold-start traffic is allocation-free. size is the
// entry capacity (CLOCK-evicted; n <= 0 disables the cache). Coherence:
// Uploader.Invalidate / InvalidateUser drop a republished user exactly,
// SetBundle purges (a swap usually follows a full upload wave), and
// Ingest clears negative entries for its endpoints. Counters surface on
// /v1/stats.
func WithUserCache(size int) Option {
	return func(s *Server) {
		if size > 0 {
			s.cache = usercache.New[txn.UserID, userParts](size, 0, userHash)
		}
	}
}

// StreamAggregates is the live-aggregate surface the engine consumes when
// built with WithStreamAggregates. It is satisfied by
// internal/feature/stream.Store; the engine depends only on this interface
// so alternative window implementations can be swapped in.
type StreamAggregates interface {
	// Ingest feeds one observed transaction into the live window.
	Ingest(t *txn.Transaction)
	// LookupCity returns city c's smoothed fraud rate, traffic share and
	// in-window transaction count.
	LookupCity(c uint16) (fraud, share, txns float64)
	// Ingested reports how many transactions the window has accepted.
	Ingested() int64
}

// WithStreamAggregates attaches a streaming aggregate store: scoring reads
// per-city statistics from the live window (falling back to the bundle's
// frozen table for cities with no in-window traffic), and the engine
// accepts transactions through Ingest / POST /v1/ingest to keep the
// window current. Without this option the engine serves the paper's pure
// T+1 mode: every statistic is frozen at bundle-build time.
func WithStreamAggregates(st StreamAggregates) Option {
	return func(s *Server) { s.stream = st }
}

// WithStreamWarmup sets how many transactions the live window must have
// absorbed before scoring reads it instead of the bundle's frozen city
// table (default DefaultStreamWarmup). Below the threshold a near-empty
// window would compute distorted statistics — a single transaction reads
// a traffic share of 1.0. n <= 0 trusts the window immediately; a
// deployment that warms the window from a reference backfill before
// serving can set it low.
func WithStreamWarmup(n int64) Option {
	return func(s *Server) { s.streamWarmup = n }
}

// WithPolicy attaches a decision policy: the engine gains Decide /
// DecideBatch (and the POST /v1/decide[/batch] routes), mapping every
// score through the policy's per-scenario threshold bands and rule
// predicates to an approve / challenge / deny action. The policy must
// validate (see decision.Parse) or New fails; it hot-swaps through
// SetPolicy / POST /v1/policy. Without this option the decision routes
// answer 409 policy_disabled.
func WithPolicy(p *decision.Policy) Option {
	return func(s *Server) { s.policy = p }
}

// WithShadow deploys a challenger bundle in shadow: every scored
// transaction is also offered to a bounded queue (see WithShadowQueue)
// whose worker scores it against the challenger off the hot path,
// accumulating champion/challenger agreement, divergence and
// would-have-flipped counters on /v1/stats. The hot path never blocks on
// the challenger — a full queue sheds and counts the drop. Call Close to
// stop the worker when the engine is discarded.
func WithShadow(challenger *Bundle) Option {
	return func(s *Server) { s.shadowBundle = challenger }
}

// WithShadowQueue bounds the shadow queue (default DefaultShadowQueue).
// Size it for bursts: the queue absorbs score-path spikes the single
// shadow worker drains between them; anything beyond the bound is shed.
func WithShadowQueue(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.shadowQueue = n
		}
	}
}

// WithDriftMonitor enables score drift monitoring: fixed-bin histograms
// of the combined and per-member score distributions, with PSI and KS
// computed against a baseline frozen shortly after each bundle deploy
// (the first cfg.BaselineSamples scores). Zero-valued config fields take
// the defaults of decision.DefaultDriftConfig. Statistics and alert
// flags surface on /v1/stats and /healthz; the monitor resets on every
// bundle swap.
func WithDriftMonitor(cfg decision.DriftConfig) Option {
	return func(s *Server) { s.driftCfg = &cfg }
}

// WithModelToken guards POST /v1/models behind a bearer token: requests
// must carry "Authorization: Bearer <token>" or are rejected with 401.
// Without this option the route is open — acceptable on a private
// network, but any client that can reach the scoring port can then
// replace the live model.
func WithModelToken(token string) Option {
	return func(s *Server) { s.modelToken = token }
}

// WithIngestToken guards POST /v1/ingest and /v1/ingest/batch behind a
// bearer token, for the same reason WithModelToken guards model swaps:
// an open ingest route lets any client that can reach the scoring port
// poison the live city statistics scoring reads (flooding a city with
// fraud labels interrupts its legitimate transfers; flooding it with
// clean traffic dilutes real fraud), and grow the store's memory by
// inventing fresh user IDs (each costs a ring of window buckets that
// cannot be evicted until it expires). Set the token anywhere the
// scoring port is not a private network. Library callers of Ingest are
// not affected.
func WithIngestToken(token string) Option {
	return func(s *Server) { s.ingestToken = token }
}

// WithCallerQuota enforces a per-caller token-bucket quota on every
// request path (score, decide, ingest): each caller (the X-Caller header
// over HTTP, WithCallerContext in-process, "default" otherwise) may
// sustain rate transactions per second with bursts up to burst tokens.
// Beyond the quota requests fail with ErrRateLimited (HTTP 429
// "rate_limited"). burst < 1 is raised to 1; rate <= 0 leaves quotas
// off. The registry holds exact buckets for the first 4096 distinct
// callers; later callers share one overflow bucket so unbounded caller
// names cannot grow engine memory.
func WithCallerQuota(rate float64, burst int) Option {
	return func(s *Server) {
		if rate <= 0 {
			return
		}
		a := s.admissionConfig()
		a.rate = rate
		a.burst = float64(burst)
		if a.burst < 1 {
			a.burst = 1
		}
	}
}

// WithMaxInflight bounds the transactions concurrently inside the engine
// across all callers and paths. At the bound new work is refused with
// ErrOverloaded (HTTP 429 "overloaded") instead of queueing, so overload
// sheds fast and the admitted traffic keeps its latency envelope.
// n <= 0 leaves the engine unbounded.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.admissionConfig().maxInflight = int64(n)
		}
	}
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
