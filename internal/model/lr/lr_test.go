package lr

import (
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/metrics"
	"titant/internal/model"
	"titant/internal/model/modeltest"
	"titant/internal/rng"
)

// mustScores is a test shim over the error-returning model.ScoreMatrix.
func mustScores(c model.Classifier, m *feature.Matrix) []float64 {
	s, err := model.ScoreMatrix(c, m)
	if err != nil {
		panic(err)
	}
	return s
}

// linearData labels rows by a noisy linear rule over two features.
func linearData(n int, seed uint64) (*feature.Matrix, []bool) {
	r := rng.New(seed)
	m := feature.NewMatrix(n, 4)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, r.NormFloat64())
		}
		z := 2*m.At(i, 0) - 1.5*m.At(i, 1) + 0.3*r.NormFloat64()
		labels[i] = z > 0
	}
	return m, labels
}

func TestLearnsLinearRule(t *testing.T) {
	m, labels := linearData(4000, 1)
	mt, lt := linearData(1000, 2)
	mo := Train(m, labels, Config{Bins: 32, L1: 0.02, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 20, Seed: 1})
	scores := mustScores(mo, mt)
	if auc := metrics.AUC(scores, lt); auc < 0.95 {
		t.Errorf("held-out AUC %.3f < 0.95", auc)
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	m, labels := linearData(1000, 3)
	mo := Train(m, labels, DefaultConfig())
	for i := 0; i < m.Rows; i += 7 {
		s := mo.Score(m.Row(i))
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v not a probability", s)
		}
	}
}

func TestL1InducesSparsity(t *testing.T) {
	// On label noise, z accumulators are mean-zero random walks; strong L1
	// must clamp most of them to exactly zero while weak L1 keeps them.
	r := rng.New(4)
	m := feature.NewMatrix(2000, 4)
	labels := make([]bool, 2000)
	for i := range labels {
		for j := 0; j < 4; j++ {
			m.Set(i, j, r.NormFloat64())
		}
		labels[i] = r.Bool(0.5)
	}
	weak := Train(m, labels, Config{Bins: 64, L1: 0.0001, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 3, Seed: 1})
	strong := Train(m, labels, Config{Bins: 64, L1: 6.0, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 3, Seed: 1})
	if strong.Sparsity() <= weak.Sparsity()+0.2 {
		t.Errorf("L1=6 sparsity %.3f not well above L1=0.0001 sparsity %.3f", strong.Sparsity(), weak.Sparsity())
	}
	if strong.Sparsity() < 0.3 {
		t.Errorf("strong L1 sparsity only %.3f", strong.Sparsity())
	}
}

func TestImbalancedBaseRate(t *testing.T) {
	// With 2% positives and no signal, predicted probabilities must hover
	// near the base rate (the bias term must learn it).
	r := rng.New(5)
	m := feature.NewMatrix(4000, 3)
	labels := make([]bool, 4000)
	for i := range labels {
		for j := 0; j < 3; j++ {
			m.Set(i, j, r.Float64())
		}
		labels[i] = r.Bool(0.02)
	}
	mo := Train(m, labels, DefaultConfig())
	var mean float64
	for i := 0; i < m.Rows; i++ {
		mean += mo.Score(m.Row(i))
	}
	mean /= float64(m.Rows)
	if mean < 0.002 || mean > 0.1 {
		t.Errorf("mean predicted prob %.4f far from base rate 0.02", mean)
	}
}

func TestDiscretizationCapturesNonMonotone(t *testing.T) {
	// y = 1 iff |x| > 1: linear-in-x LR fails, binned LR succeeds. This is
	// the paper's rationale for discretising LR inputs.
	r := rng.New(6)
	m := feature.NewMatrix(4000, 1)
	labels := make([]bool, 4000)
	for i := range labels {
		x := r.NormFloat64() * 1.5
		m.Set(i, 0, x)
		labels[i] = math.Abs(x) > 1
	}
	mo := Train(m, labels, Config{Bins: 32, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 20, Seed: 1})
	scores := mustScores(mo, m)
	if auc := metrics.AUC(scores, labels); auc < 0.95 {
		t.Errorf("binned LR AUC on |x|>1 rule: %.3f < 0.95", auc)
	}
}

func TestDeterminism(t *testing.T) {
	m, labels := linearData(800, 7)
	a := Train(m, labels, DefaultConfig())
	b := Train(m, labels, DefaultConfig())
	for i := 0; i < m.Rows; i += 13 {
		if a.Score(m.Row(i)) != b.Score(m.Row(i)) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	m, labels := linearData(500, 8)
	mo := Train(m, labels, DefaultConfig())
	data, err := model.Encode(mo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i += 29 {
		if c.Score(m.Row(i)) != mo.Score(m.Row(i)) {
			t.Fatal("decoded scores differ")
		}
	}
}

func TestPanics(t *testing.T) {
	m, labels := linearData(100, 9)
	for name, fn := range map[string]func(){
		"mismatch": func() { Train(m, labels[:50], DefaultConfig()) },
		"bins":     func() { Train(m, labels, Config{Bins: 1, Iterations: 5}) },
		"width": func() {
			mo := Train(m, labels, DefaultConfig())
			mo.Score([]float64{1})
		},
	} {
		func() {
			defer func() { _ = recover() }()
			fn()
			t.Errorf("%s did not panic", name)
		}()
	}
}

func BenchmarkTrain(b *testing.B) {
	m, labels := linearData(5000, 1)
	cfg := DefaultConfig()
	cfg.Iterations = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, labels, cfg)
	}
}

// BenchmarkScoreBatch measures LR's score stage at the serving width and
// the paper's 200 bins, from one row to the batch limit.
func BenchmarkScoreBatch(b *testing.B) {
	m, labels := modeltest.ServingData(4000, 1)
	cfg := DefaultConfig()
	cfg.Iterations = 3
	modeltest.BenchScoreBatch(b, Train(m, labels, cfg))
}

// TestScoreBatchBitwiseIdentical pins serving-side scoring — ScoreBatch
// and Score, which bin and gather in one pass — to the gather over the
// training-side binned matrix: identical bits, not just close.
func TestScoreBatchBitwiseIdentical(t *testing.T) {
	m, labels := linearData(3000, 3)
	mo := Train(m, labels, Config{Bins: 64, L1: 0.02, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 15, Seed: 1})
	for _, rows := range []int{1, 17, 500} {
		mt, _ := linearData(rows, uint64(rows)+7)
		got := make([]float64, rows)
		mo.ScoreBatch(got, mt)
		binned := mo.Disc.Transform(mt)
		for i := 0; i < rows; i++ {
			dot := mo.Bias
			for j, b := range binned.Row(i) {
				dot += mo.W[mo.Offsets[j]+int(b)]
			}
			if want := model.Sigmoid(dot); got[i] != want || mo.Score(mt.Row(i)) != want {
				t.Fatalf("rows=%d row %d: batch %v, Score %v != binned gather %v", rows, i, got[i], mo.Score(mt.Row(i)), want)
			}
		}
	}
}

// A model whose discretiser holds more than 256 bins per column (not
// producible by this trainer, but decodable from a bundle built by an
// external pipeline — the paper's LR sweeps reach bin size 500) cannot
// byte-pack into the training-side Binned matrix. Scoring bins on the fly
// and has no such limit: a serving request must never be able to crash on
// a wide-binned bundle.
func TestScoreBatchWideBins(t *testing.T) {
	r := rng.New(11)
	cuts := make([]float64, 300) // 301 buckets in column 0
	for i := range cuts {
		cuts[i] = float64(i) / 100
	}
	disc := &feature.Discretizer{Cuts: [][]float64{cuts, {0.5}}}
	if disc.BytePackable() {
		t.Fatal("fixture discretiser unexpectedly packable")
	}
	w := make([]float64, disc.NumBins(0)+disc.NumBins(1))
	for i := range w {
		w[i] = r.NormFloat64()
	}
	mo := &Model{
		Disc:     disc,
		Offsets:  []int{0, disc.NumBins(0)},
		W:        w,
		Bias:     0.25,
		Features: 2,
	}
	m := feature.NewMatrix(50, 2)
	for i := 0; i < m.Rows; i++ {
		m.Set(i, 0, r.Float64()*4-0.5)
		m.Set(i, 1, r.Float64())
	}
	got := make([]float64, m.Rows)
	mo.ScoreBatch(got, m) // must not panic
	for i := 0; i < m.Rows; i++ {
		if want := mo.Score(m.Row(i)); got[i] != want {
			t.Fatalf("row %d: batch %v != scalar %v", i, got[i], want)
		}
	}
}
