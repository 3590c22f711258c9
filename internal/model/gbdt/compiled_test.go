package gbdt

import (
	"math"
	"sort"
	"testing"

	"titant/internal/feature"
	"titant/internal/rng"
)

// shapeSeen counts the tree and discretiser shapes randomModel produced,
// so the differential test can assert it exercised every one it names.
type shapeSeen struct {
	earlyLeaf  [8]int // early leaves by level
	zeroCutCol int    // columns with no cuts at all
	thrPastEnd int    // splits with Thr >= len(Cuts[col])
	thr255     int
}

// randomModel hand-builds an ensemble the trainer would never produce:
// early leaves at every level with garbage beneath them, columns without
// cuts, thresholds that name no cut, cuts at ±Inf, ±0 and denormals. With
// compilable false the declared depth disagrees with the node arrays, so
// scoring takes the Tree.Nodes fallback.
func randomModel(r *rng.RNG, depth, trees int, compilable bool, seen *shapeSeen) *Model {
	features := 1 + r.Intn(12)
	special := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, math.MaxFloat64}
	disc := &feature.Discretizer{Cuts: make([][]float64, features)}
	for j := range disc.Cuts {
		var n int
		switch r.Intn(5) {
		case 0:
			seen.zeroCutCol++
		case 1:
			n = 255 // the most a byte-packed column holds
		default:
			n = 1 + r.Intn(9)
		}
		cuts := make([]float64, n)
		for k := range cuts {
			if r.Bool(0.3) {
				cuts[k] = special[r.Intn(len(special))]
			} else {
				cuts[k] = r.NormFloat64() * 3
			}
		}
		sort.Float64s(cuts)
		disc.Cuts[j] = cuts
	}
	mo := &Model{Disc: disc, Base: r.NormFloat64(), Features: features, Depth: depth}
	if !compilable {
		mo.Depth = depth + 1
	}
	nodes := 1<<(depth+1) - 1
	interior := 1<<depth - 1
	for t := 0; t < trees; t++ {
		tr := Tree{Nodes: make([]TreeNode, nodes)}
		for i := range tr.Nodes {
			n := &tr.Nodes[i]
			n.Value = r.NormFloat64()
			if i >= interior || r.Bool(0.15) {
				n.Col = -1
				continue
			}
			n.Col = int32(r.Intn(features))
			switch nc := len(disc.Cuts[n.Col]); r.Intn(4) {
			case 0:
				n.Thr = 255
			case 1:
				n.Thr = uint8(r.Intn(256))
			default:
				n.Thr = uint8(r.Intn(nc + 1)) // nc itself names no cut
			}
		}
		// Count what a walk can reach: garbage under an early leaf is not a
		// shape the predictor has to honour.
		var reach func(i, level int)
		reach = func(i, level int) {
			n := &tr.Nodes[i]
			if n.Col < 0 {
				if i < interior {
					seen.earlyLeaf[level]++
				}
				return
			}
			if n.Thr == 255 {
				seen.thr255++
			}
			if int(n.Thr) >= len(disc.Cuts[n.Col]) {
				seen.thrPastEnd++
			}
			reach(2*i+1, level+1)
			reach(2*i+2, level+1)
		}
		reach(0, 0)
		mo.TreesArr = append(mo.TreesArr, tr)
	}
	return mo
}

// edgeMatrix draws feature values from where a raw comparison and a bin
// search could disagree: exact cut values, the floats either side of a
// cut, NaN, ±Inf, ±0 and denormals, among ordinary values. Row 0 holds
// probe in every column.
func edgeMatrix(r *rng.RNG, d *feature.Discretizer, rows int, probe float64) *feature.Matrix {
	fixed := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2}
	m := feature.NewMatrix(rows, d.NumCols())
	for i := 0; i < rows; i++ {
		x := m.Row(i)
		for j := range x {
			cuts := d.Cuts[j]
			switch k := r.Intn(6); {
			case i == 0:
				x[j] = probe
			case k < 3 && len(cuts) > 0:
				c := cuts[r.Intn(len(cuts))]
				x[j] = [3]float64{c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1))}[k]
			case k == 3:
				x[j] = fixed[r.Intn(len(fixed))]
			default:
				x[j] = r.NormFloat64() * 3
			}
		}
	}
	return m
}

// checkAgainstBinnedOracle scores m through Score and through ScoreBatch
// at sizes on both sides of the row block and the fan-out, and holds every
// bit to the training-side walk: Tree.eval over Disc.Bin-binned rows.
func checkAgainstBinnedOracle(t *testing.T, mo *Model, m *feature.Matrix) {
	t.Helper()
	want := make([]float64, m.Rows)
	bins := make([]uint8, m.Cols)
	for i := range want {
		for j, v := range m.Row(i) {
			bins[j] = uint8(mo.Disc.Bin(j, v))
		}
		s := mo.Base
		for k := range mo.TreesArr {
			s += mo.TreesArr[k].eval(bins)
		}
		want[i] = s
	}
	for i := range want {
		if got := mo.Score(m.Row(i)); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("Score row %d %v: %v, oracle %v", i, m.Row(i), got, want[i])
		}
	}
	got := make([]float64, m.Rows)
	for _, rows := range []int{1, 31, 256, 1000} {
		if rows > m.Rows {
			break
		}
		view := &feature.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
		mo.ScoreBatch(got[:rows], view)
		for i := 0; i < rows; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ScoreBatch rows=%d row %d %v: %v, oracle %v", rows, i, m.Row(i), got[i], want[i])
			}
		}
	}
}

// TestCompiledMatchesBinnedOracle is the differential test for the
// raw-feature walk: the unrolled depth-3 walk, the generic walk at other
// depths and the non-compilable fallback must all land on the leaf the
// binned walk lands on, for every tree shape and feature value above.
func TestCompiledMatchesBinnedOracle(t *testing.T) {
	var seen shapeSeen
	for seed := uint64(1); seed <= 12; seed++ {
		for depth := 1; depth <= 5; depth++ {
			for _, compilable := range []bool{true, false} {
				r := rng.New(seed*100 + uint64(depth))
				trees := 1 + r.Intn(90) // 1000 rows × >65 trees crosses parallelTreeRows
				mo := randomModel(r, depth, trees, compilable, &seen)
				checkAgainstBinnedOracle(t, mo, edgeMatrix(r, mo.Disc, 1000, math.NaN()))
				if (mo.compiledSoA != nil) != compilable {
					t.Fatalf("seed %d depth %d: compiled %v, want %v", seed, depth, mo.compiledSoA != nil, compilable)
				}
			}
		}
	}
	for level := 0; level < 5; level++ {
		if seen.earlyLeaf[level] == 0 {
			t.Errorf("no early leaf at level %d", level)
		}
	}
	if seen.zeroCutCol == 0 || seen.thrPastEnd == 0 || seen.thr255 == 0 {
		t.Errorf("shapes not exercised: %+v", seen)
	}
}

// FuzzCompiledMatchesBinned lets the fuzzer pick the model (seed, depth,
// tree count, compilable or not) and one raw feature value, planted in
// every column of row 0.
func FuzzCompiledMatchesBinned(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(40), true, 0.5)
	f.Add(uint64(2), uint8(3), uint8(200), true, math.NaN())
	f.Add(uint64(3), uint8(1), uint8(7), true, math.Inf(1))
	f.Add(uint64(4), uint8(5), uint8(90), true, math.Copysign(0, -1))
	f.Add(uint64(5), uint8(3), uint8(12), false, math.SmallestNonzeroFloat64)
	f.Add(uint64(6), uint8(4), uint8(70), false, math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed uint64, depth, trees uint8, compilable bool, probe float64) {
		r := rng.New(seed)
		mo := randomModel(r, 1+int(depth)%5, 1+int(trees), compilable, new(shapeSeen))
		checkAgainstBinnedOracle(t, mo, edgeMatrix(r, mo.Disc, 300, probe))
	})
}

// TestScoreZeroAlloc holds the serving score stage to no allocation at
// all: a single Score, and ScoreBatch at a Decide's one row and at the
// engine's 256-row batch (below the fan-out), on a compiled model.
func TestScoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	train, labels := interactionData(1500, 21)
	cfg := smallConfig()
	cfg.Trees = 40
	mo := Train(train, labels, cfg)
	m, _ := interactionData(256, 22)
	one := &feature.Matrix{Rows: 1, Cols: m.Cols, Data: m.Data[:m.Cols]}
	dst := make([]float64, m.Rows)
	mo.ScoreBatch(dst, m) // compile outside the measurement
	if mo.compiledSoA == nil {
		t.Fatal("model did not compile")
	}
	var sink float64
	for name, fn := range map[string]func(){
		"Score":          func() { sink += mo.Score(m.Row(3)) },
		"ScoreBatch/1":   func() { mo.ScoreBatch(dst[:1], one) },
		"ScoreBatch/256": func() { mo.ScoreBatch(dst, m) },
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	_ = sink
}
