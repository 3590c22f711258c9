package ms

import (
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/model"
	"titant/internal/model/gbdt"
	"titant/internal/model/iforest"
	"titant/internal/model/lr"
	"titant/internal/model/ruletree"
	"titant/internal/rng"
)

// trainWidth builds a small labelled training matrix of the serving width
// (52 basic features, no embeddings) with a learnable amount rule.
func trainWidth(rows int) (*feature.Matrix, []bool) {
	r := rng.New(5)
	m := feature.NewMatrix(rows, feature.NumBasic)
	labels := make([]bool, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < feature.NumBasic; j++ {
			m.Set(i, j, r.Float64())
		}
		amt := r.Float64() * 2000
		m.Set(i, 0, amt)
		labels[i] = amt > 1200
	}
	return m, labels
}

// trainedDetectors returns one small trained model per paper detector,
// all on the same 52-feature matrix.
func trainedDetectors(t testing.TB) map[string]model.Classifier {
	t.Helper()
	m, labels := trainWidth(400)
	return map[string]model.Classifier{
		"gbdt": gbdt.Train(m, labels, gbdt.Config{
			Trees: 20, Depth: 3, LearningRate: 0.2, Subsample: 0.8,
			ColSample: 0.8, Bins: 16, MinLeaf: 5, Lambda: 1, Seed: 1,
		}),
		"lr": lr.Train(m, labels, lr.Config{
			Bins: 16, L1: 0.01, L2: 0.5, Alpha: 0.1, Beta: 1, Iterations: 4, Seed: 1,
		}),
		"c50":     ruletree.Train(m, labels, ruletree.DefaultC50()),
		"iforest": iforest.Train(m, iforest.Config{Trees: 10, SampleSize: 64, Seed: 1}),
	}
}

// Every concrete detector must survive the bundle encode/decode cycle —
// this guards the gob registrations the blank imports above pull in.
func TestBundleRoundTripEachDetector(t *testing.T) {
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	probe, _ := trainWidth(5)
	for name, clf := range trainedDetectors(t) {
		b, err := NewBundle("v-"+name, clf, 0.5, city, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := b.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeBundle(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		dec, err := got.Classifier()
		if err != nil {
			t.Fatalf("%s: classifier: %v", name, err)
		}
		for i := 0; i < probe.Rows; i++ {
			if dec.Score(probe.Row(i)) != clf.Score(probe.Row(i)) {
				t.Fatalf("%s: decoded classifier scores differ", name)
			}
		}
		if got.NumMembers() != 1 {
			t.Fatalf("%s: NumMembers = %d", name, got.NumMembers())
		}
	}
}

// A v2 ensemble of all four detectors round-trips with member order,
// weights, thresholds and scores intact.
func TestEnsembleBundleRoundTrip(t *testing.T) {
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	dets := trainedDetectors(t)
	members := []EnsembleMember{
		{Name: "gbdt", Clf: dets["gbdt"], Weight: 2, Threshold: 0.5},
		{Name: "lr", Clf: dets["lr"], Threshold: 0.5},
		{Name: "c50", Clf: dets["c50"], Threshold: 0.5},
		{Name: "iforest", Clf: dets["iforest"], Threshold: 0.6},
	}
	b, err := NewEnsembleBundle("ens-1", members, CombineMean, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMembers() != 4 || got.Combine != CombineMean {
		t.Fatalf("decoded bundle: members=%d combine=%v", got.NumMembers(), got.Combine)
	}
	for i, want := range members {
		m := &got.Members[i]
		if m.Name != want.Name || m.Threshold != want.Threshold {
			t.Fatalf("member %d = %+v, want %+v", i, m, want)
		}
	}
	// Combined and per-member scores survive the cycle bit-for-bit.
	probe, _ := trainWidth(16)
	score := func(b *Bundle) ([]float64, [][]float64) {
		dst := make([]float64, probe.Rows)
		member := make([][]float64, 4)
		for k := range member {
			member[k] = make([]float64, probe.Rows)
		}
		if err := b.ScoreMatrix(dst, member, probe); err != nil {
			t.Fatal(err)
		}
		return dst, member
	}
	wantDst, wantMember := score(b)
	gotDst, gotMember := score(got)
	for i := range wantDst {
		if gotDst[i] != wantDst[i] {
			t.Fatalf("combined score %d differs", i)
		}
		for k := range wantMember {
			if gotMember[k][i] != wantMember[k][i] {
				t.Fatalf("member %d score %d differs", k, i)
			}
		}
	}
}

// fixedModel scores every vector with a constant, making combiner math
// checkable by hand.
type fixedModel struct {
	V float64
	N int
}

func (f *fixedModel) Score(x []float64) float64 { return f.V }
func (f *fixedModel) NumFeatures() int          { return f.N }

func init() { gob.Register(&fixedModel{}) }

func fixedEnsemble(t *testing.T, combine Combiner, members ...EnsembleMember) *Bundle {
	t.Helper()
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	b, err := NewEnsembleBundle("fixed", members, combine, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCombinerMath(t *testing.T) {
	lo := EnsembleMember{Name: "lo", Clf: &fixedModel{V: 0.2, N: feature.NumBasic}, Threshold: 0.5}
	hi := EnsembleMember{Name: "hi", Clf: &fixedModel{V: 0.8, N: feature.NumBasic}, Threshold: 0.5}
	m := feature.NewMatrix(3, feature.NumBasic)
	// Expected values must use runtime float arithmetic (matching the
	// combiner's rounding), not constant-folded exact expressions.
	w1, w2, s1, s2 := 3.0, 1.0, 0.2, 0.8
	wantWeightedMean := (w1*s1 + w2*s2) / (w1 + w2)
	cases := []struct {
		name string
		b    *Bundle
		want float64
	}{
		{"mean", fixedEnsemble(t, CombineMean, lo, hi), 0.5},
		{"weighted-mean", fixedEnsemble(t, CombineMean,
			EnsembleMember{Name: "lo", Clf: lo.Clf, Weight: 3},
			EnsembleMember{Name: "hi", Clf: hi.Clf, Weight: 1}), wantWeightedMean},
		{"max", fixedEnsemble(t, CombineMax, lo, hi), 0.8},
		{"vote-half", fixedEnsemble(t, CombineVote, lo, hi), 0.5},
		{"vote-weighted", fixedEnsemble(t, CombineVote,
			EnsembleMember{Name: "lo", Clf: lo.Clf, Weight: 1, Threshold: 0.5},
			EnsembleMember{Name: "hi", Clf: hi.Clf, Weight: 3, Threshold: 0.5}), 0.75},
		{"vote-single", fixedEnsemble(t, CombineVote, hi), 1},
	}
	for _, tc := range cases {
		dst := make([]float64, m.Rows)
		if err := tc.b.ScoreMatrix(dst, nil, m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, got := range dst {
			if got != tc.want {
				t.Fatalf("%s row %d: %v, want %v", tc.name, i, got, tc.want)
			}
		}
	}
}

func TestEnsembleBundleValidation(t *testing.T) {
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	ok := &fixedModel{V: 0.5, N: feature.NumBasic}
	if _, err := NewEnsembleBundle("e", nil, CombineMean, 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("empty ensemble: %v", err)
	}
	if _, err := NewEnsembleBundle("e", []EnsembleMember{
		{Name: "a", Clf: ok}, {Name: "a", Clf: ok},
	}, CombineMean, 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("duplicate names: %v", err)
	}
	if _, err := NewEnsembleBundle("e", []EnsembleMember{
		{Name: "", Clf: ok},
	}, CombineMean, 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("unnamed member: %v", err)
	}
	if _, err := NewEnsembleBundle("e", []EnsembleMember{
		{Name: "narrow", Clf: &fixedModel{V: 0.5, N: 3}},
	}, CombineMean, 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("width mismatch: %v", err)
	}
	if _, err := NewEnsembleBundle("e", []EnsembleMember{
		{Name: "a", Clf: ok},
	}, Combiner(9), 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("unknown combiner: %v", err)
	}
	// A threshold that cannot split scores: a validation slice without
	// fraud freezes +Inf, and such a bundle would flag nothing.
	for _, thr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewEnsembleBundle("e", []EnsembleMember{
			{Name: "a", Clf: ok},
		}, CombineMean, thr, city, 0); !errors.Is(err, ErrBundleInvalid) {
			t.Fatalf("bundle threshold %v: %v", thr, err)
		}
		if _, err := NewEnsembleBundle("e", []EnsembleMember{
			{Name: "a", Clf: ok, Threshold: thr},
		}, CombineMean, 0.5, city, 0); !errors.Is(err, ErrBundleInvalid) {
			t.Fatalf("member threshold %v: %v", thr, err)
		}
		if _, err := NewBundle("v1", ok, thr, city, 0); !errors.Is(err, ErrBundleInvalid) {
			t.Fatalf("v1 threshold %v: %v", thr, err)
		}
	}
	// A bundle carrying both formats at once is corrupt.
	b := fixedEnsemble(t, CombineMean, EnsembleMember{Name: "a", Clf: ok})
	mb, err := model.Encode(ok)
	if err != nil {
		t.Fatal(err)
	}
	b.ModelBytes = mb
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(raw); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("dual-format bundle: %v", err)
	}
}

func TestParseCombiner(t *testing.T) {
	for s, want := range map[string]Combiner{"mean": CombineMean, "max": CombineMax, "vote": CombineVote} {
		got, err := ParseCombiner(s)
		if err != nil || got != want {
			t.Fatalf("ParseCombiner(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseCombiner("median"); !errors.Is(err, ErrBundleInvalid) {
		t.Fatalf("unknown combiner name: %v", err)
	}
}
