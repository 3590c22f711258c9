package ms

import (
	"fmt"
	"sync"
	"sync/atomic"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/txn"
)

// DefaultShadowQueue is the bounded shadow-queue capacity of an engine
// built with WithShadow but no WithShadowQueue.
const DefaultShadowQueue = 1024

// shadowRunner scores a challenger bundle against the champion's live
// traffic, asynchronously: every scored transaction is offered to a
// bounded queue with a non-blocking send (overflow is shed and counted,
// so a slow challenger can never back-pressure the scoring hot path),
// and a single worker drains the queue, re-running the full serve path —
// user fetch, assembly, ensemble — against the challenger and recording
// the champion/challenger comparison in the meter.
//
// The challenger reads users through the same store (and cache) as the
// champion but always scores against its own bundle's frozen city
// table: shadow evaluation answers "what would this bundle have said",
// and that bundle froze its own statistics at training time.
type shadowRunner struct {
	s      *Server
	bundle *Bundle
	meter  decision.ShadowMeter
	jobs   chan shadowJob
	quit   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	// epoch counts champion swaps. Jobs are stamped at enqueue and the
	// worker discards any whose epoch is stale, so a queue backlog of
	// old-champion comparisons cannot pollute the new champion's
	// agreement statistics after SetBundle resets the meter.
	epoch atomic.Int64
}

// shadowJob carries one champion-scored transaction to the worker. The
// transaction is copied by value: the caller's slice may be reused the
// moment its request completes.
type shadowJob struct {
	t          txn.Transaction
	champScore float64
	champFraud bool
	epoch      int64
}

// newShadowRunner validates the challenger and starts the worker.
func newShadowRunner(s *Server, challenger *Bundle, queue int) (*shadowRunner, error) {
	if err := challenger.validate(); err != nil {
		return nil, fmt.Errorf("shadow challenger: %w", err)
	}
	if queue <= 0 {
		queue = DefaultShadowQueue
	}
	r := &shadowRunner{
		s:      s,
		bundle: challenger,
		jobs:   make(chan shadowJob, queue),
		quit:   make(chan struct{}),
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// enqueue offers one scored transaction to the shadow queue. Never
// blocks: a full queue sheds the job and counts the drop. epoch is the
// epoch the champion score was computed under, not the current one — a
// swap between scoring and enqueue must mark the job stale.
func (r *shadowRunner) enqueue(t *txn.Transaction, v *Verdict, epoch int64) {
	select {
	case r.jobs <- shadowJob{t: *t, champScore: v.Score, champFraud: v.Fraud, epoch: epoch}:
	default:
		r.meter.Drop()
	}
}

// championSwapped starts a new comparison epoch: queued jobs from the
// departed champion will be discarded by the worker, and the meter
// starts over.
func (r *shadowRunner) championSwapped() {
	r.epoch.Add(1)
	r.meter.Reset()
}

// run is the worker loop. Quitting wins over draining: a Close during a
// burst abandons queued jobs, which is the right trade for a metrics
// path.
func (r *shadowRunner) run() {
	defer r.wg.Done()
	for {
		select {
		case <-r.quit:
			return
		case j := <-r.jobs:
			if j.epoch != r.epoch.Load() {
				continue // stale champion's job; its comparison is meaningless
			}
			r.scoreOne(&j)
		}
	}
}

// scoreOne runs the challenger over one job and records the comparison.
// Failures (unknown user under a strict engine, embedding-width mismatch
// against the challenger's declared dimension) count as errors rather
// than comparisons.
func (r *shadowRunner) scoreOne(j *shadowJob) {
	b := r.bundle
	ens, err := b.runtime()
	if err != nil {
		r.meter.Error()
		return
	}
	m := getMatrix(1, feature.NumBasic+2*b.EmbeddingDim)
	defer putMatrix(m)
	if _, err := r.s.fillOne(&j.t, b, &b.City, m); err != nil {
		r.meter.Error()
		return
	}
	var combined [1]float64
	if err := ens.score(combined[:], nil, m); err != nil {
		r.meter.Error()
		return
	}
	// recordShadow logs the comparison before counting it when the
	// engine has an event log, so a replayed meter matches this one.
	r.s.recordShadow(r, j, combined[0], combined[0] >= b.Threshold)
}

// close stops the worker and waits for it. Idempotent.
func (r *shadowRunner) close() {
	r.once.Do(func() {
		close(r.quit)
		r.wg.Wait()
	})
}
