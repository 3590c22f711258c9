package decision

import (
	"math"
	"sync/atomic"
)

// DriftConfig tunes the score drift monitor.
type DriftConfig struct {
	// Bins is the fixed bin count of every score histogram over [0, 1].
	Bins int
	// BaselineSamples is how many scores each series absorbs into its
	// baseline before the baseline freezes — the reference distribution
	// captured at bundle deploy, against which all later traffic is
	// compared.
	BaselineSamples int64
	// MinLiveSamples gates alerting: PSI and KS are reported as soon as
	// live traffic exists, but Alert only fires once the live histogram
	// has at least this many samples (tiny samples make both statistics
	// noisy).
	MinLiveSamples int64
	// PSIAlert and KSAlert are the alert thresholds. The conventional PSI
	// reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 retrain.
	PSIAlert float64
	KSAlert  float64
}

// DefaultDriftConfig returns the monitor defaults: 20 bins, a
// 2000-sample baseline, alerts at PSI 0.2 / KS 0.15 once 500 live
// samples exist.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{Bins: 20, BaselineSamples: 2000, MinLiveSamples: 500, PSIAlert: 0.2, KSAlert: 0.15}
}

// sanitise fills zero-valued fields with the defaults.
func (c DriftConfig) sanitise() DriftConfig {
	d := DefaultDriftConfig()
	if c.Bins <= 0 {
		c.Bins = d.Bins
	}
	if c.BaselineSamples <= 0 {
		c.BaselineSamples = d.BaselineSamples
	}
	if c.MinLiveSamples <= 0 {
		c.MinLiveSamples = d.MinLiveSamples
	}
	if c.PSIAlert <= 0 {
		c.PSIAlert = d.PSIAlert
	}
	if c.KSAlert <= 0 {
		c.KSAlert = d.KSAlert
	}
	return c
}

// Monitor tracks the live score distribution of each ensemble member
// (plus the combined score) against a baseline frozen at bundle deploy.
// The first BaselineSamples scores of every series build its baseline
// histogram; everything after lands in the live histogram, and Snapshot
// reports PSI and KS between the two. All methods are safe for
// concurrent use; ObserveSeries is a bin search plus two atomic adds, so
// the scoring hot path pays nanoseconds.
//
// The monitor is rebuilt (fresh baseline) on every bundle swap: a new
// model's scores are a new distribution by construction, so comparing
// them against the old baseline would alert on every deploy.
type Monitor struct {
	cfg   DriftConfig
	names []string
	ser   []driftSeries
}

// driftSeries is one score stream's pair of histograms. total counts all
// observations; the first cfg.BaselineSamples of them went to the
// baseline bins, the rest to the live bins, so the split needs no
// separate synchronisation.
type driftSeries struct {
	total    atomic.Int64
	baseline []atomic.Int64
	live     []atomic.Int64
}

// NewMonitor builds a drift monitor over the named score series. By
// convention the serving engine passes "combined" first and then the
// bundle's member names in order.
func NewMonitor(cfg DriftConfig, names []string) *Monitor {
	cfg = cfg.sanitise()
	m := &Monitor{cfg: cfg, names: append([]string(nil), names...), ser: make([]driftSeries, len(names))}
	for i := range m.ser {
		m.ser[i].baseline = make([]atomic.Int64, cfg.Bins)
		m.ser[i].live = make([]atomic.Int64, cfg.Bins)
	}
	return m
}

// NumSeries returns the number of tracked score series.
func (m *Monitor) NumSeries() int { return len(m.ser) }

// ObserveSeries records one score into series k ("combined" is
// conventionally series 0). Scores outside [0, 1] clamp into the edge
// bins. Allocation-free.
func (m *Monitor) ObserveSeries(k int, score float64) {
	s := &m.ser[k]
	bin := int(clamp01(score) * float64(m.cfg.Bins))
	if bin >= m.cfg.Bins {
		bin = m.cfg.Bins - 1
	}
	// NaN comparisons are all false, so clamp01 passes NaN through and
	// the float→int conversion above is implementation-defined (a huge
	// negative value on amd64). This guard is what makes a NaN score
	// land in the lowest bin instead of corrupting the index — it is
	// load-bearing, not dead code.
	if bin < 0 {
		bin = 0
	}
	n := s.total.Add(1)
	if n <= m.cfg.BaselineSamples {
		s.baseline[bin].Add(1)
	} else {
		s.live[bin].Add(1)
	}
}

// DriftStats is one series' snapshot: sample counts, the two divergence
// statistics, and whether they cross the alert thresholds.
type DriftStats struct {
	Name          string
	BaselineCount int64
	LiveCount     int64
	PSI           float64
	KS            float64
	Alert         bool
}

// Snapshot computes every series' drift statistics. O(series × bins).
func (m *Monitor) Snapshot() []DriftStats {
	out := make([]DriftStats, len(m.ser))
	for k := range m.ser {
		out[k] = m.snapshotSeries(k)
	}
	return out
}

func (m *Monitor) snapshotSeries(k int) DriftStats {
	s := &m.ser[k]
	st := DriftStats{Name: m.names[k]}
	bins := m.cfg.Bins
	base := make([]float64, bins)
	live := make([]float64, bins)
	for i := 0; i < bins; i++ {
		b := float64(s.baseline[i].Load())
		l := float64(s.live[i].Load())
		base[i], live[i] = b, l
		st.BaselineCount += int64(b)
		st.LiveCount += int64(l)
	}
	if st.BaselineCount == 0 || st.LiveCount == 0 {
		return st
	}
	st.PSI, st.KS = divergence(base, float64(st.BaselineCount), live, float64(st.LiveCount))
	st.Alert = st.BaselineCount >= m.cfg.BaselineSamples &&
		st.LiveCount >= m.cfg.MinLiveSamples &&
		(st.PSI >= m.cfg.PSIAlert || st.KS >= m.cfg.KSAlert)
	return st
}

// psiEpsilon floors bin proportions so empty bins cannot produce
// infinite PSI terms; the conventional small-constant treatment.
const psiEpsilon = 1e-6

// divergence computes PSI and the KS statistic between two histograms
// given their bin counts and totals.
func divergence(base []float64, baseN float64, live []float64, liveN float64) (psi, ks float64) {
	var cumB, cumL float64
	for i := range base {
		p := base[i] / baseN
		q := live[i] / liveN
		cumB += p
		cumL += q
		if d := math.Abs(cumB - cumL); d > ks {
			ks = d
		}
		if p < psiEpsilon {
			p = psiEpsilon
		}
		if q < psiEpsilon {
			q = psiEpsilon
		}
		psi += (q - p) * math.Log(q/p)
	}
	return psi, ks
}

// Alerted reports whether any series currently crosses its alert
// thresholds — the single boolean /v1/stats and readiness probes expose.
func (m *Monitor) Alerted() bool {
	for k := range m.ser {
		if m.snapshotSeries(k).Alert {
			return true
		}
	}
	return false
}
