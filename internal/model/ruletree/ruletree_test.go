package ruletree

import (
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/metrics"
	"titant/internal/model"
	"titant/internal/model/modeltest"
	"titant/internal/rng"
)

// xorData builds a dataset whose label is the XOR of two binary-ish
// features - learnable by a depth>=2 tree, not by any single split.
func xorData(n int, seed uint64) (*feature.Matrix, []bool) {
	r := rng.New(seed)
	m := feature.NewMatrix(n, 4)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		a, b := r.Bool(0.5), r.Bool(0.5)
		set := func(j int, v bool) {
			x := r.Float64() * 0.4
			if v {
				x += 0.6
			}
			m.Set(i, j, x)
		}
		set(0, a)
		set(1, b)
		m.Set(i, 2, r.NormFloat64()) // noise
		m.Set(i, 3, r.Float64())     // noise
		labels[i] = a != b
	}
	return m, labels
}

// conjunctionData labels rows positive when three conditions hold jointly,
// with label noise.
func conjunctionData(n int, seed uint64) (*feature.Matrix, []bool) {
	r := rng.New(seed)
	m := feature.NewMatrix(n, 5)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, r.Float64())
		}
		y := m.At(i, 0) > 0.6 && m.At(i, 1) > 0.5 && m.At(i, 2) < 0.4
		if r.Bool(0.05) {
			y = !y
		}
		labels[i] = y
	}
	return m, labels
}

// mustScores is a test shim over the error-returning model.ScoreMatrix.
func mustScores(c model.Classifier, m *feature.Matrix) []float64 {
	s, err := model.ScoreMatrix(c, m)
	if err != nil {
		panic(err)
	}
	return s
}

func accuracy(t *Tree, m *feature.Matrix, labels []bool) float64 {
	scores := mustScores(t, m)
	c := metrics.Confuse(scores, labels, 0.5)
	return c.Accuracy()
}

func TestID3LearnsXOR(t *testing.T) {
	m, labels := xorData(2000, 1)
	tree := Train(m, labels, DefaultID3())
	if acc := accuracy(tree, m, labels); acc < 0.95 {
		t.Errorf("ID3 XOR accuracy %.3f < 0.95", acc)
	}
}

func TestC50LearnsXOR(t *testing.T) {
	m, labels := xorData(2000, 2)
	tree := Train(m, labels, DefaultC50())
	if acc := accuracy(tree, m, labels); acc < 0.95 {
		t.Errorf("C5.0 XOR accuracy %.3f < 0.95", acc)
	}
}

func TestC50GeneralizesConjunction(t *testing.T) {
	m, labels := conjunctionData(3000, 3)
	mTest, lTest := conjunctionData(1000, 4)
	tree := Train(m, labels, DefaultC50())
	if acc := accuracy(tree, mTest, lTest); acc < 0.9 {
		t.Errorf("C5.0 held-out accuracy %.3f < 0.9", acc)
	}
}

func TestPruningShrinksTree(t *testing.T) {
	// Pure-noise labels: an unpruned tree overfits into many leaves; the
	// pruned C5.0 tree must collapse (nearly) to the root.
	r := rng.New(5)
	m := feature.NewMatrix(1000, 6)
	labels := make([]bool, 1000)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, r.Float64())
		}
		labels[i] = r.Bool(0.5)
	}
	unpruned := Train(m, labels, Config{Algorithm: C50, Bins: 32, MaxDepth: 10, MinLeaf: 15})
	pruned := Train(m, labels, DefaultC50())
	if pruned.NumLeaves() >= unpruned.NumLeaves() {
		t.Errorf("pruned leaves %d >= unpruned %d", pruned.NumLeaves(), unpruned.NumLeaves())
	}
}

func TestPureLeafStopsEarly(t *testing.T) {
	m := feature.NewMatrix(100, 2)
	labels := make([]bool, 100)
	for i := 0; i < 100; i++ {
		m.Set(i, 0, float64(i))
		m.Set(i, 1, float64(i%7))
	}
	tree := Train(m, labels, DefaultC50())
	if !tree.Root.Leaf {
		t.Error("all-negative data must produce a single leaf")
	}
	if p := tree.Score(m.Row(0)); p >= 0.5 {
		t.Errorf("all-negative leaf prob %v", p)
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	m, labels := conjunctionData(1500, 6)
	for _, cfg := range []Config{DefaultID3(), DefaultC50()} {
		tree := Train(m, labels, cfg)
		for i := 0; i < m.Rows; i += 13 {
			s := tree.Score(m.Row(i))
			if s <= 0 || s >= 1 || math.IsNaN(s) {
				t.Fatalf("%v score %v outside (0,1)", cfg.Algorithm, s)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	m, labels := conjunctionData(1000, 7)
	t1 := Train(m, labels, DefaultC50())
	t2 := Train(m, labels, DefaultC50())
	for i := 0; i < m.Rows; i += 11 {
		if t1.Score(m.Row(i)) != t2.Score(m.Row(i)) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	m, labels := conjunctionData(800, 8)
	for _, cfg := range []Config{DefaultID3(), DefaultC50()} {
		tree := Train(m, labels, cfg)
		data, err := model.Encode(tree)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		c, err := model.Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		for i := 0; i < m.Rows; i += 37 {
			if c.Score(m.Row(i)) != tree.Score(m.Row(i)) {
				t.Fatalf("%v: decoded scores differ", cfg.Algorithm)
			}
		}
	}
}

func TestDepthRespected(t *testing.T) {
	m, labels := xorData(3000, 9)
	cfg := DefaultC50()
	cfg.MaxDepth = 3
	tree := Train(m, labels, cfg)
	if d := tree.Depth(); d > 3 {
		t.Errorf("depth %d > max 3", d)
	}
}

func TestMismatchedLabelsPanics(t *testing.T) {
	m, _ := xorData(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Train(m, make([]bool, 5), DefaultID3())
}

func TestBadConfigPanics(t *testing.T) {
	m, labels := xorData(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Train(m, labels, Config{Algorithm: ID3, Bins: 1, MaxDepth: 3, MinLeaf: 5})
}

func TestAlgorithmString(t *testing.T) {
	if ID3.String() != "ID3" || C50.String() != "C5.0" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm name empty")
	}
}

func TestUCBErrorMonotone(t *testing.T) {
	// More errors -> higher bound; more data with same rate -> lower bound.
	if ucbError(5, 100, 0.6745) >= ucbError(10, 100, 0.6745) {
		t.Error("ucb not monotone in errors")
	}
	if ucbError(50, 1000, 0.6745) >= ucbError(5, 100, 0.6745) {
		t.Error("ucb not shrinking with n at fixed rate")
	}
	if ucbError(0, 0, 1) != 1 {
		t.Error("ucb(0,0) != 1")
	}
}

func BenchmarkTrainC50(b *testing.B) {
	m, labels := conjunctionData(5000, 1)
	cfg := DefaultC50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, labels, cfg)
	}
}

// walkBinned is the test oracle: the tree walked over a row of the
// training-side binned matrix, the representation the builder split on.
func walkBinned(t *Tree, bins []uint8) float64 {
	n := t.Root
	for !n.Leaf {
		bin := int(bins[n.Col])
		if n.Children != nil {
			if bin >= len(n.Children) {
				bin = len(n.Children) - 1
			}
			n = n.Children[bin]
		} else if bin <= int(n.Thr) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prob
}

// TestScoreBatchBitwiseIdentical pins serving-side scoring — the matrix
// path through model.ScoreMatrixInto and Score, which bin only the columns
// they visit — to the walk over the fully binned batch, for both tree
// variants (ID3 multiway splits with bin clamping, C5.0 binary threshold
// splits).
func TestScoreBatchBitwiseIdentical(t *testing.T) {
	m, labels := xorData(3000, 4)
	for _, cfg := range []Config{DefaultID3(), DefaultC50()} {
		tr := Train(m, labels, cfg)
		for _, rows := range []int{1, 13, 400} {
			mt, _ := xorData(rows, uint64(rows)+3)
			got := mustScores(tr, mt)
			binned := tr.Disc.Transform(mt)
			for i := 0; i < rows; i++ {
				if want := walkBinned(tr, binned.Row(i)); got[i] != want || tr.Score(mt.Row(i)) != want {
					t.Fatalf("%s rows=%d row %d: matrix %v, Score %v != binned walk %v",
						cfg.Algorithm, rows, i, got[i], tr.Score(mt.Row(i)), want)
				}
			}
		}
	}
}

// BenchmarkScoreBatch measures both rule trees' score stage at the serving
// width, from one row to the batch limit.
func BenchmarkScoreBatch(b *testing.B) {
	m, labels := modeltest.ServingData(4000, 1)
	for _, cfg := range []Config{DefaultID3(), DefaultC50()} {
		tr := Train(m, labels, cfg)
		b.Run(cfg.Algorithm.String(), func(b *testing.B) { modeltest.BenchScoreBatch(b, tr) })
	}
}
