// Package lr implements the paper's Logistic Regression detector:
// features are discretised into equal-frequency bins ("better performance
// can be achieved after feature discretization"; the paper's best bin size
// is 200), the binned values are one-hot encoded, and the model is trained
// with FTRL-Proximal, which realises the paper's L1 regularisation (weight
// 0.1) as exact sparsity-inducing proximal updates.
package lr

import (
	"encoding/gob"
	"fmt"
	"math"

	"titant/internal/feature"
	"titant/internal/model"
	"titant/internal/rng"
)

func init() { gob.Register(&Model{}) }

// Config holds LR hyperparameters.
type Config struct {
	Bins       int     // discretisation buckets per feature (paper best: 200)
	L1         float64 // L1 weight (paper: 0.1)
	L2         float64 // small L2 for stability
	Alpha      float64 // FTRL learning-rate scale
	Beta       float64 // FTRL learning-rate offset
	Iterations int     // epochs over the training set (paper: 300)
	Seed       uint64
}

// DefaultConfig returns the paper-aligned settings, translated to this
// trainer: 200 discretisation bins (the paper's best), a laptop-scale
// epoch count (FTRL on one-hot features converges far faster than the
// batch solver the paper budgets 300 iterations for), and L1=8. The
// paper's "L1 weight 0.1" applies to an averaged batch loss; FTRL's l1
// compares against the *summed* gradient accumulator z, so the equivalent
// absolute threshold is larger (0.1 x an effective per-bin sample count).
func DefaultConfig() Config {
	return Config{Bins: 200, L1: 8, L2: 0.5, Alpha: 0.08, Beta: 1, Iterations: 25, Seed: 1}
}

// Model is a trained discretised logistic regression. One weight exists per
// (feature, bin) pair plus a bias; scoring sums the active bins' weights.
type Model struct {
	Disc     *feature.Discretizer
	Offsets  []int // start of each column's weight block
	W        []float64
	Bias     float64
	Features int
}

var (
	_ model.Classifier  = (*Model)(nil)
	_ model.BatchScorer = (*Model)(nil)
)

// Train fits LR with FTRL-Proximal on raw features and boolean labels.
func Train(m *feature.Matrix, labels []bool, cfg Config) *Model {
	if m.Rows != len(labels) {
		panic(fmt.Sprintf("lr: %d rows vs %d labels", m.Rows, len(labels)))
	}
	if cfg.Bins < 2 || cfg.Iterations < 1 {
		panic(fmt.Sprintf("lr: bad config %+v", cfg))
	}
	disc := feature.FitDiscretizer(m, cfg.Bins)
	binned := disc.Transform(m)

	offsets := make([]int, m.Cols+1)
	for j := 0; j < m.Cols; j++ {
		offsets[j+1] = offsets[j] + disc.NumBins(j)
	}
	dim := offsets[m.Cols]

	// FTRL state.
	z := make([]float64, dim+1) // +1 bias at the end
	n := make([]float64, dim+1)
	w := make([]float64, dim+1)
	biasIdx := dim

	weightOf := func(i int) float64 {
		zi := z[i]
		l1 := cfg.L1
		if i == biasIdx {
			l1 = 0 // never shrink the bias
		}
		if math.Abs(zi) <= l1 {
			return 0
		}
		sign := 1.0
		if zi < 0 {
			sign = -1
		}
		return -(zi - sign*l1) / ((cfg.Beta+math.Sqrt(n[i]))/cfg.Alpha + cfg.L2)
	}

	r := rng.New(cfg.Seed)
	order := make([]int, m.Rows)
	for i := range order {
		order[i] = i
	}
	active := make([]int, m.Cols+1)
	for epoch := 0; epoch < cfg.Iterations; epoch++ {
		r.ShuffleInts(order)
		for _, row := range order {
			bins := binned.Row(row)
			for j, b := range bins {
				active[j] = offsets[j] + int(b)
			}
			active[m.Cols] = biasIdx
			var dot float64
			for _, idx := range active {
				w[idx] = weightOf(idx)
				dot += w[idx]
			}
			p := model.Sigmoid(dot)
			y := 0.0
			if labels[row] {
				y = 1
			}
			g := p - y // gradient per active one-hot coordinate
			g2 := g * g
			for _, idx := range active {
				sigma := (math.Sqrt(n[idx]+g2) - math.Sqrt(n[idx])) / cfg.Alpha
				z[idx] += g - sigma*w[idx]
				n[idx] += g2
			}
		}
	}
	// Materialise final weights.
	out := &Model{Disc: disc, Offsets: offsets, Features: m.Cols, W: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		out.W[i] = weightOf(i)
	}
	out.Bias = weightOf(biasIdx)
	return out
}

// Score returns the fraud probability of a raw feature vector.
func (mo *Model) Score(x []float64) float64 {
	if len(x) != mo.Features {
		panic(fmt.Sprintf("lr: input has %d features, model wants %d", len(x), mo.Features))
	}
	return mo.score(x)
}

// score is the fused bin-and-gather pass: each column's value is binned
// and its one-hot weight accumulated at once, in column order, with no
// intermediate binned row.
func (mo *Model) score(x []float64) float64 {
	dot := mo.Bias
	for j, v := range x {
		dot += mo.W[mo.Offsets[j]+mo.Disc.Bin(j, v)]
	}
	return model.Sigmoid(dot)
}

// ScoreBatch implements model.BatchScorer: Score's pass over every row,
// the width checked once per batch. Nothing is allocated.
func (mo *Model) ScoreBatch(dst []float64, m *feature.Matrix) {
	if m.Cols != mo.Features {
		panic(fmt.Sprintf("lr: matrix has %d features, model wants %d", m.Cols, mo.Features))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = mo.score(m.Row(i))
	}
}

// NumFeatures implements model.Classifier.
func (mo *Model) NumFeatures() int { return mo.Features }

// Sparsity returns the fraction of exactly-zero weights (the visible effect
// of L1 regularisation).
func (mo *Model) Sparsity() float64 {
	if len(mo.W) == 0 {
		return 0
	}
	zero := 0
	for _, w := range mo.W {
		if w == 0 {
			zero++
		}
	}
	return float64(zero) / float64(len(mo.W))
}
