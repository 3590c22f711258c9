package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/decision"
	"titant/internal/rng"
	"titant/internal/synth"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Config parameterises one load run.
type Config struct {
	Schedule Schedule      // arrival envelope (required)
	Duration time.Duration // run length (required)
	Seed     uint64        // workload RNG seed; same seed, same workload

	Mix   OpMix   // score/decide/ingest weights (zero value: score-only)
	Users int     // background user population (Zipf-distributed)
	ZipfS float64 // Zipf exponent; <= 1 uses the 1.07 default

	// Shards records the width of the engine under test (the tables its
	// feature store partitions over, or the ring size behind a router);
	// 0 reports as 1. Informational: it flows into the report so a run
	// archive says what topology produced the numbers.
	Shards int

	// MaxOutstanding caps the requests concurrently in flight on the
	// client side (0: 4096). Arrivals beyond the cap still keep their
	// scheduled start time — they queue client-side and the wait shows up
	// in their measured latency, never as a thinned arrival process.
	MaxOutstanding int

	// TraceSample, when positive, keeps the N slowest requests' trace
	// IDs (as answered in the X-Trace-Id response header) in the report,
	// so a slow run's report links straight into the serving tier's
	// GET /v1/debug/trace exemplars. Only targets that see response
	// headers (HTTPTarget) can sample; in-process targets report none.
	TraceSample int

	// Replay is labeled scenario traffic (typically the composed world's
	// test window) spread evenly across the run's arrivals. Replayed
	// transactions are always scored or decided — never ingested — so
	// every labeled transaction produces a detection verdict.
	Replay []txn.Transaction
	// Manifest is the ground truth Replay was generated from; when set,
	// the report grades verdicts into per-scenario recall and precision.
	Manifest *synth.Manifest
}

// ScenarioReport grades one scenario kind's replayed fraud.
type ScenarioReport struct {
	Kind     string  `json:"kind"`
	Replayed int     `json:"replayed"` // labeled fraud transactions replayed
	Flagged  int     `json:"flagged"`  // of those, flagged by the engine
	Shed     int     `json:"shed"`     // of those, shed by admission control
	Degraded int     `json:"degraded"` // of those, answered with a degraded envelope
	Recall   float64 `json:"recall"`
}

// LatencyReport is the tail-latency summary, microseconds. Latency is
// measured from each request's *scheduled* arrival, so client- or
// server-side queueing delay is included (no coordinated omission).
type LatencyReport struct {
	P50  int64 `json:"p50_us"`
	P99  int64 `json:"p99_us"`
	P999 int64 `json:"p999_us"`
	Max  int64 `json:"max_us"`
}

// Report is the run's JSON result (written by cmd/titant loadgen).
type Report struct {
	Schedule    string  `json:"schedule"`
	DurationSec float64 `json:"duration_seconds"`
	Seed        uint64  `json:"seed"`
	Shards      int     `json:"shards"` // engine width behind the run (>= 1)

	Offered     int     `json:"offered"`        // scheduled arrivals
	Completed   int64   `json:"completed"`      // requests served 2xx
	Shed        int64   `json:"shed"`           // typed 429 refusals
	Degraded    int64   `json:"degraded"`       // typed degraded envelopes (wire tier fallback)
	Errors      int64   `json:"errors"`         // any other failure
	OfferedRPS  float64 `json:"offered_rps"`    // offered / duration
	Throughput  float64 `json:"throughput_rps"` // completed / wall time
	WallSeconds float64 `json:"wall_seconds"`

	Latency LatencyReport    `json:"latency"`
	Ops     map[string]int64 `json:"ops"` // completed per op kind

	Background        int64 `json:"background_txns"`
	BackgroundFlagged int64 `json:"background_flagged"` // unlabeled; excluded from precision

	Replayed          int64            `json:"replayed_txns"`
	Scenarios         []ScenarioReport `json:"scenarios,omitempty"`
	Recall            float64          `json:"recall"`              // flagged fraud / replayed fraud
	Precision         float64          `json:"precision"`           // flagged fraud / flagged replayed
	FalsePositiveRate float64          `json:"false_positive_rate"` // flagged clean / replayed clean

	// Traces are the slowest sampled requests' trace IDs (Config.
	// TraceSample > 0 against an HTTP target), slowest first.
	Traces []TraceExemplar `json:"trace_samples,omitempty"`
}

// TraceExemplar links one sampled slow request to its trace ID.
type TraceExemplar struct {
	TraceID   string `json:"trace_id"`
	LatencyUS int64  `json:"latency_us"`
}

// Encode renders the report as indented JSON.
func (r *Report) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeReport parses a report written by Encode.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: decode report: %w", err)
	}
	return &r, nil
}

// workItem is one scheduled request, fully drawn before dispatch so the
// workload is a deterministic function of (Config.Seed, Schedule).
type workItem struct {
	at       time.Duration
	op       Op
	t        txn.Transaction
	scenario decision.Scenario
	replay   bool
}

// grade accumulates detection outcomes; counts are tiny next to the
// request work, so a mutex is cheaper than sharding.
type grade struct {
	mu              sync.Mutex
	fraudReplayed   map[string]int // per scenario kind
	fraudFlagged    map[string]int
	fraudShed       map[string]int
	fraudDegraded   map[string]int
	cleanReplayed   int
	cleanFlagged    int
	replayShedClean int
}

// Run executes one open-loop load run against tgt and grades the
// outcome. Cancelling ctx stops dispatching and drains in-flight
// requests; the report covers what ran.
func Run(ctx context.Context, cfg Config, tgt Target) (*Report, error) {
	if cfg.Schedule == nil {
		return nil, errors.New("loadgen: nil schedule")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: non-positive duration")
	}
	if tgt == nil {
		return nil, errors.New("loadgen: nil target")
	}
	items, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}

	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 4096
	}
	sem := make(chan struct{}, maxOut)
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		shed      atomic.Int64
		degraded  atomic.Int64
		errCount  atomic.Int64
		opCounts  [numOps]atomic.Int64
		bgFlagged atomic.Int64
		bgCount   atomic.Int64
		h         = telemetry.NewHistogram(nil)
	)
	var traces *traceCollector
	if cfg.TraceSample > 0 {
		if ts, ok := tgt.(interface {
			SetTraceSink(func(traceID string, d time.Duration))
		}); ok {
			traces = newTraceCollector(cfg.TraceSample)
			ts.SetTraceSink(traces.observe)
		}
	}
	g := &grade{
		fraudReplayed: map[string]int{},
		fraudFlagged:  map[string]int{},
		fraudShed:     map[string]int{},
		fraudDegraded: map[string]int{},
	}
	fraudKind := map[txn.TxnID]string{}
	if cfg.Manifest != nil {
		fraudKind = cfg.Manifest.FraudByTxn()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i := range items {
		it := &items[i]
		// Open loop: wait for the scheduled arrival (no-op when the
		// dispatcher is behind — the lag lands in measured latency).
		if wait := time.Until(start.Add(it.at)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		wg.Add(1)
		go func(it *workItem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			flagged, err := tgt.Do(ctx, it.op, &it.t, it.scenario)
			// Latency from the scheduled arrival, not the dispatch or the
			// semaphore acquisition.
			h.Record(time.Since(start.Add(it.at)))
			switch {
			case err == nil:
				completed.Add(1)
				opCounts[it.op].Add(1)
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case errors.Is(err, ErrDegraded):
				degraded.Add(1)
			default:
				errCount.Add(1)
			}
			if it.replay {
				gradeReplay(g, fraudKind, it, flagged, err)
			} else if it.op != OpIngest {
				bgCount.Add(1)
				if err == nil && flagged {
					bgFlagged.Add(1)
				}
			}
		}(it)
	}
	wg.Wait()
	wall := time.Since(start)

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	rep := &Report{
		Schedule:    cfg.Schedule.Name(),
		DurationSec: cfg.Duration.Seconds(),
		Seed:        cfg.Seed,
		Shards:      shards,
		Offered:     len(items),
		Completed:   completed.Load(),
		Shed:        shed.Load(),
		Degraded:    degraded.Load(),
		Errors:      errCount.Load(),
		OfferedRPS:  float64(len(items)) / cfg.Duration.Seconds(),
		Throughput:  float64(completed.Load()) / wall.Seconds(),
		WallSeconds: wall.Seconds(),
		Latency: LatencyReport{
			P50:  h.Quantile(0.50).Microseconds(),
			P99:  h.Quantile(0.99).Microseconds(),
			P999: h.Quantile(0.999).Microseconds(),
			Max:  h.Max().Microseconds(),
		},
		Ops:               map[string]int64{},
		Background:        bgCount.Load(),
		BackgroundFlagged: bgFlagged.Load(),
	}
	if traces != nil {
		rep.Traces = traces.samples()
	}
	for op := Op(0); op < numOps; op++ {
		if n := opCounts[op].Load(); n > 0 {
			rep.Ops[op.String()] = n
		}
	}
	fillDetection(rep, g)
	return rep, nil
}

// traceCollector keeps the K slowest sampled trace IDs. Recording takes
// a mutex but runs only for requests that answered with a trace header
// on a run that asked for sampling, off the latency-measured section.
type traceCollector struct {
	mu      sync.Mutex
	entries []TraceExemplar // occupied prefix, unsorted
	minIdx  int
	k       int
}

func newTraceCollector(k int) *traceCollector {
	return &traceCollector{entries: make([]TraceExemplar, 0, k), k: k}
}

func (c *traceCollector) observe(traceID string, d time.Duration) {
	if traceID == "" {
		return
	}
	us := d.Microseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case len(c.entries) < c.k:
		c.entries = append(c.entries, TraceExemplar{TraceID: traceID, LatencyUS: us})
	case us > c.entries[c.minIdx].LatencyUS:
		c.entries[c.minIdx] = TraceExemplar{TraceID: traceID, LatencyUS: us}
	default:
		return
	}
	c.minIdx = 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].LatencyUS < c.entries[c.minIdx].LatencyUS {
			c.minIdx = i
		}
	}
}

// samples returns the collected exemplars, slowest first.
func (c *traceCollector) samples() []TraceExemplar {
	c.mu.Lock()
	out := make([]TraceExemplar, len(c.entries))
	copy(out, c.entries)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].LatencyUS > out[j].LatencyUS })
	return out
}

// gradeReplay records one replayed transaction's outcome.
func gradeReplay(g *grade, fraudKind map[txn.TxnID]string, it *workItem, flagged bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if kind, isFraud := fraudKind[it.t.ID]; isFraud {
		g.fraudReplayed[kind]++
		switch {
		case err == nil && flagged:
			g.fraudFlagged[kind]++
		case errors.Is(err, ErrShed):
			g.fraudShed[kind]++
		case errors.Is(err, ErrDegraded):
			g.fraudDegraded[kind]++
		}
		return
	}
	g.cleanReplayed++
	if err == nil && flagged {
		g.cleanFlagged++
	} else if errors.Is(err, ErrShed) {
		g.replayShedClean++
	}
}

// fillDetection folds the grade into the report's detection section.
func fillDetection(rep *Report, g *grade) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var kinds []string
	for k := range g.fraudReplayed {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var fraudTotal, flaggedTotal int
	for _, k := range kinds {
		n, f := g.fraudReplayed[k], g.fraudFlagged[k]
		fraudTotal += n
		flaggedTotal += f
		sr := ScenarioReport{Kind: k, Replayed: n, Flagged: f, Shed: g.fraudShed[k], Degraded: g.fraudDegraded[k]}
		if n > 0 {
			sr.Recall = float64(f) / float64(n)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	rep.Replayed = int64(fraudTotal + g.cleanReplayed)
	if fraudTotal > 0 {
		rep.Recall = float64(flaggedTotal) / float64(fraudTotal)
	}
	if flaggedTotal+g.cleanFlagged > 0 {
		rep.Precision = float64(flaggedTotal) / float64(flaggedTotal+g.cleanFlagged)
	}
	if g.cleanReplayed > 0 {
		rep.FalsePositiveRate = float64(g.cleanFlagged) / float64(g.cleanReplayed)
	}
}

// buildWorkload draws the full deterministic request stream: arrival
// times from the schedule, ops and background transactions from the
// traffic sampler, with the replay set spread evenly across arrivals.
func buildWorkload(cfg Config) ([]workItem, error) {
	arrivals := Arrivals(cfg.Schedule, cfg.Duration, cfg.Seed)
	root := rng.New(cfg.Seed)
	// Background transaction IDs sit far above the replay world's so the
	// manifest join can never alias a synthetic transaction.
	sampler, err := newTrafficSampler(root.Split(1), cfg.Users, cfg.ZipfS, cfg.Mix, txn.TxnID(1)<<40)
	if err != nil {
		return nil, err
	}
	scenarioOf := map[txn.TxnID]decision.Scenario{}
	if cfg.Manifest != nil {
		for i := range cfg.Manifest.Scenarios {
			s := &cfg.Manifest.Scenarios[i]
			sc, err := decision.ParseScenario(s.DecisionScenario)
			if err != nil {
				sc = decision.ScenarioDefault
			}
			for _, id := range s.FraudTxns {
				scenarioOf[id] = sc
			}
		}
	}
	// Spread replay across the run: one replay item every `step` arrivals
	// until the set is exhausted.
	step := 0
	if len(cfg.Replay) > 0 && len(arrivals) > 0 {
		step = len(arrivals) / len(cfg.Replay)
		if step < 1 {
			step = 1
		}
	}
	items := make([]workItem, len(arrivals))
	replayIdx := 0
	for i, at := range arrivals {
		it := &items[i]
		it.at = at
		if step > 0 && i%step == 0 && replayIdx < len(cfg.Replay) {
			it.t = cfg.Replay[replayIdx]
			it.op = sampler.scoringOp()
			it.scenario = scenarioOf[it.t.ID]
			it.replay = true
			replayIdx++
			continue
		}
		it.op = sampler.op()
		it.t = sampler.background()
	}
	return items, nil
}
