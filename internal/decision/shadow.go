package decision

import (
	"math"
	"sync/atomic"
)

// ShadowMeter accumulates champion/challenger comparison statistics for
// shadow deployment: the challenger bundle scores the same traffic as
// the live champion (asynchronously, off the hot path — the queue and
// worker live in the serving engine), and every completed comparison
// lands here. All methods are lock-free; Record is four atomic adds.
//
// Counters reset when the engine swaps either bundle: agreement between
// a new champion and the old challenger's history is meaningless.
type ShadowMeter struct {
	scored  atomic.Int64
	dropped atomic.Int64
	errors  atomic.Int64
	agreed  atomic.Int64
	flipped atomic.Int64
	// sumAbsDiff accumulates |champion − challenger| in fixed-point
	// nano-units: scores live in [0,1], so one comparison adds at most
	// 1e9 and the counter holds ~9 billion comparisons before overflow.
	sumAbsDiff atomic.Int64
}

// divergenceScale is the fixed-point scale of sumAbsDiff.
const divergenceScale = 1e9

// Record registers one completed comparison: the champion's and
// challenger's combined scores and their fraud verdicts. A non-finite
// score on either side counts as an error, not a comparison — the
// fixed-point conversion of a NaN gap is implementation-defined and a
// single one would corrupt the divergence sum for the whole epoch, and
// "agreement" with a broken model is not information.
func (m *ShadowMeter) Record(champ, chall float64, champFraud, challFraud bool) {
	if math.IsNaN(champ-chall) || math.IsInf(champ-chall, 0) {
		m.errors.Add(1)
		return
	}
	m.scored.Add(1)
	d := champ - chall
	if d < 0 {
		d = -d
	}
	if d > 1 {
		// Scores live in [0,1]; clamp pathological finite values so the
		// fixed-point accumulator cannot overflow early.
		d = 1
	}
	m.sumAbsDiff.Add(int64(d * divergenceScale))
	if champFraud == challFraud {
		m.agreed.Add(1)
	} else {
		// The challenger would have flipped the champion's verdict —
		// the cases a promotion decision hinges on.
		m.flipped.Add(1)
	}
}

// Drop counts one transaction shed because the shadow queue was full.
// Shadow scoring is strictly best-effort: the hot path never blocks on
// the challenger, it sheds.
func (m *ShadowMeter) Drop() { m.dropped.Add(1) }

// Error counts one challenger scoring failure (fetch or model error).
func (m *ShadowMeter) Error() { m.errors.Add(1) }

// Reset zeroes every counter — the serving engine calls it when either
// bundle of the champion/challenger pair is swapped, since comparisons
// against a departed model no longer inform a promotion decision. A
// Record racing a Reset may leave one comparison split across the
// boundary; at metric granularity that is noise.
func (m *ShadowMeter) Reset() {
	m.scored.Store(0)
	m.dropped.Store(0)
	m.errors.Store(0)
	m.agreed.Store(0)
	m.flipped.Store(0)
	m.sumAbsDiff.Store(0)
}

// ShadowStats is a meter snapshot.
type ShadowStats struct {
	// Scored is the number of completed champion/challenger comparisons.
	Scored int64
	// Dropped counts transactions shed on queue overflow.
	Dropped int64
	// Errors counts challenger-side scoring failures.
	Errors int64
	// Agreed / Flipped split Scored by verdict agreement.
	Agreed  int64
	Flipped int64
	// Agreement is Agreed/Scored (1.0 when nothing scored yet).
	Agreement float64
	// MeanAbsDiff is the mean |champion − challenger| score divergence.
	MeanAbsDiff float64
}

// Snapshot reads the counters. Individual counters are each exact;
// ratios are computed from one pass over them, so a snapshot racing
// Record may lag by a comparison — irrelevant at metric granularity.
func (m *ShadowMeter) Snapshot() ShadowStats {
	st := ShadowStats{
		Scored:    m.scored.Load(),
		Dropped:   m.dropped.Load(),
		Errors:    m.errors.Load(),
		Agreed:    m.agreed.Load(),
		Flipped:   m.flipped.Load(),
		Agreement: 1,
	}
	if st.Scored > 0 {
		st.Agreement = float64(st.Agreed) / float64(st.Scored)
		st.MeanAbsDiff = float64(m.sumAbsDiff.Load()) / divergenceScale / float64(st.Scored)
	}
	return st
}
