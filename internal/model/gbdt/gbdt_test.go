package gbdt

import (
	"fmt"
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

// interactionData labels rows by a rule with feature interactions plus
// noise: positive iff (x0>0.5 AND x1<0.3) OR (x2>0.8 AND x3>0.6).
func interactionData(n int, seed uint64) (*feature.Matrix, []bool) {
	r := rng.New(seed)
	m := feature.NewMatrix(n, 6)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, r.Float64())
		}
		y := (m.At(i, 0) > 0.5 && m.At(i, 1) < 0.3) || (m.At(i, 2) > 0.8 && m.At(i, 3) > 0.6)
		if r.Bool(0.03) {
			y = !y
		}
		labels[i] = y
	}
	return m, labels
}

func smallConfig() Config {
	c := DefaultConfig()
	c.Trees = 80
	return c
}

func TestLearnsInteractions(t *testing.T) {
	m, labels := interactionData(4000, 1)
	mt, lt := interactionData(1500, 2)
	cfg := smallConfig()
	cfg.Trees = 200
	mo := Train(m, labels, cfg)
	scores := mustScores(mo, mt)
	if auc := metrics.AUC(scores, lt); auc < 0.95 {
		t.Errorf("held-out AUC %.3f < 0.95", auc)
	}
}

func TestBeatsLinearOnInteractions(t *testing.T) {
	// The central Table 1 mechanism: GBDT must exploit interactions that a
	// single split cannot. Compare against a depth-1 (stump) ensemble.
	m, labels := interactionData(4000, 3)
	mt, lt := interactionData(1500, 4)
	deep := smallConfig()
	stump := smallConfig()
	stump.Depth = 1
	aucDeep := metrics.AUC(mustScores(Train(m, labels, deep), mt), lt)
	aucStump := metrics.AUC(mustScores(Train(m, labels, stump), mt), lt)
	if aucDeep <= aucStump {
		t.Errorf("depth-3 AUC %.3f <= stump AUC %.3f", aucDeep, aucStump)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	m, labels := interactionData(2000, 5)
	mse := func(trees int) float64 {
		cfg := smallConfig()
		cfg.Trees = trees
		mo := Train(m, labels, cfg)
		scores := mustScores(mo, m)
		var s float64
		for i, sc := range scores {
			y := 0.0
			if labels[i] {
				y = 1
			}
			s += (sc - y) * (sc - y)
		}
		return s / float64(len(scores))
	}
	l10, l40, l160 := mse(10), mse(40), mse(160)
	if !(l160 < l40 && l40 < l10) {
		t.Errorf("training MSE not decreasing: %v %v %v", l10, l40, l160)
	}
}

func TestScoreMatchesScoreBatch(t *testing.T) {
	m, labels := interactionData(800, 6)
	mo := Train(m, labels, smallConfig())
	batch := make([]float64, m.Rows)
	mo.ScoreBatch(batch, m)
	for i := 0; i < m.Rows; i += 17 {
		if one := mo.Score(m.Row(i)); one != batch[i] {
			t.Fatalf("row %d: Score %v vs ScoreBatch %v", i, one, batch[i])
		}
	}
}

func TestBasePredictionIsLabelMean(t *testing.T) {
	r := rng.New(7)
	m := feature.NewMatrix(1000, 2)
	labels := make([]bool, 1000)
	pos := 0
	for i := range labels {
		m.Set(i, 0, r.Float64())
		m.Set(i, 1, r.Float64())
		labels[i] = r.Bool(0.1)
		if labels[i] {
			pos++
		}
	}
	mo := Train(m, labels, smallConfig())
	want := float64(pos) / 1000
	if math.Abs(mo.Base-want) > 1e-12 {
		t.Errorf("base %v, want %v", mo.Base, want)
	}
}

func TestDeterminism(t *testing.T) {
	m, labels := interactionData(1000, 8)
	a := Train(m, labels, smallConfig())
	b := Train(m, labels, smallConfig())
	for i := 0; i < m.Rows; i += 19 {
		if a.Score(m.Row(i)) != b.Score(m.Row(i)) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestSeedChangesModel(t *testing.T) {
	m, labels := interactionData(1000, 9)
	cfg2 := smallConfig()
	cfg2.Seed = 99
	a := Train(m, labels, smallConfig())
	b := Train(m, labels, cfg2)
	same := true
	for i := 0; i < m.Rows; i += 19 {
		if a.Score(m.Row(i)) != b.Score(m.Row(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical models")
	}
}

func TestEncodeDecode(t *testing.T) {
	m, labels := interactionData(600, 10)
	mo := Train(m, labels, smallConfig())
	data, err := model.Encode(mo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i += 23 {
		if c.Score(m.Row(i)) != mo.Score(m.Row(i)) {
			t.Fatal("decoded scores differ")
		}
	}
}

func TestNumTrees(t *testing.T) {
	m, labels := interactionData(500, 11)
	cfg := smallConfig()
	cfg.Trees = 17
	mo := Train(m, labels, cfg)
	if mo.NumTrees() != 17 {
		t.Errorf("NumTrees = %d, want 17", mo.NumTrees())
	}
}

func TestPanics(t *testing.T) {
	m, labels := interactionData(100, 12)
	for name, fn := range map[string]func(){
		"mismatch":  func() { Train(m, labels[:50], smallConfig()) },
		"zeroTrees": func() { Train(m, labels, Config{Trees: 0, Depth: 3, Bins: 32, Subsample: 0.5, ColSample: 0.5}) },
		"badSub":    func() { Train(m, labels, Config{Trees: 1, Depth: 3, Bins: 32, Subsample: 0, ColSample: 0.5}) },
		"width": func() {
			mo := Train(m, labels, smallConfig())
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

func TestImbalancedRanking(t *testing.T) {
	// 2% positives with a weak joint signal: ranking must still place
	// positives ahead of negatives on average (AUC well above 0.5).
	r := rng.New(13)
	n := 6000
	m := feature.NewMatrix(n, 5)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, r.Float64())
		}
		p := 0.004
		if m.At(i, 0) > 0.7 && m.At(i, 1) > 0.5 {
			p = 0.12
		}
		labels[i] = r.Bool(p)
	}
	mo := Train(m, labels, smallConfig())
	if auc := metrics.AUC(mustScores(mo, m), labels); auc < 0.7 {
		t.Errorf("imbalanced AUC %.3f < 0.7", auc)
	}
}

func BenchmarkTrain400(b *testing.B) {
	m, labels := interactionData(5000, 1)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, labels, cfg)
	}
}

// TestScoreBatchBitwiseIdentical pins the compiled predictor to the scalar
// walk: identical bits, not just close, across tree shapes (early leaves,
// non-default depths) and batch sizes on both sides of the worker-pool
// threshold.
func TestScoreBatchBitwiseIdentical(t *testing.T) {
	train, labels := interactionData(3000, 14)
	cases := map[string]Config{
		"depth3":      smallConfig(),
		"earlyLeaves": func() Config { c := smallConfig(); c.MinLeaf = 400; return c }(),
		"depth2":      func() Config { c := smallConfig(); c.Depth = 2; return c }(),
		"depth5":      func() Config { c := smallConfig(); c.Depth = 5; return c }(),
	}
	for name, cfg := range cases {
		mo := Train(train, labels, cfg)
		for _, rows := range []int{1, 7, 300, 1000} {
			m, _ := interactionData(rows, uint64(rows)+20)
			got := make([]float64, rows)
			mo.ScoreBatch(got, m)
			for i := 0; i < rows; i++ {
				if want := mo.Score(m.Row(i)); got[i] != want {
					t.Fatalf("%s rows=%d row %d: batch %v != scalar %v", name, rows, i, got[i], want)
				}
			}
		}
		if mo.compiledSoA == nil {
			t.Errorf("%s: trees did not compile", name)
		}
	}
}

// A model whose trees are not the complete arrays the trainer produces
// must fall back to the scalar walk rather than compile garbage.
func TestScoreBatchFallbackWithoutCompile(t *testing.T) {
	train, labels := interactionData(800, 15)
	mo := Train(train, labels, smallConfig())
	mo.Depth = 4 // disagrees with the depth-3 node arrays: not compilable
	m, _ := interactionData(64, 16)
	got := make([]float64, m.Rows)
	mo.ScoreBatch(got, m)
	if mo.compiledSoA != nil {
		t.Fatal("inconsistent model compiled anyway")
	}
	for i := 0; i < m.Rows; i++ {
		if want := mo.Score(m.Row(i)); got[i] != want {
			t.Fatalf("fallback row %d: %v != %v", i, got[i], want)
		}
	}
}

// BenchmarkScoreBatch measures the serving score stage at the width the
// Model Server runs (a 6-column fixture hides every per-column cost): the
// bench fixture's 40 trees and the paper's 400, depth 3, from one row to
// the batch limit.
func BenchmarkScoreBatch(b *testing.B) {
	train, labels := modeltest.ServingData(4000, 1)
	for _, trees := range []int{40, 400} {
		cfg := DefaultConfig()
		cfg.Trees = trees
		mo := Train(train, labels, cfg)
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) { modeltest.BenchScoreBatch(b, mo) })
	}
}
