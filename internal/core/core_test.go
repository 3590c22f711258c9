package core

import (
	"context"
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/metrics"
	"titant/internal/ms"
	"titant/internal/synth"
	"titant/internal/txn"
)

func quickOpts() Options {
	o := DefaultOptions()
	o.GBDT.Trees = 60
	o.LR.Iterations = 6
	o.DW.WalksPerNode = 4
	o.S2V.Epochs = 3
	return o
}

func world(t testing.TB) (*synth.World, *txn.Dataset) {
	t.Helper()
	w := synth.Generate(synth.TestConfig())
	ds, err := w.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

// served is the configuration titant serve trains by default.
var served = Spec{Features: FeatBasicDW, Detectors: []Detector{DetGBDT}}

// evalCell trains one Table 1 cell and evaluates it on the test day.
func evalCell(t *testing.T, users []txn.User, ds *txn.Dataset, fs FeatureSet, det Detector, emb *Embeddings, opts Options) Result {
	t.Helper()
	a, err := Train(users, ds, Spec{Features: fs, Detectors: []Detector{det}}, emb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a.Eval()
}

func TestTrainEvalAllDetectors(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	emb := LearnEmbeddings(ds, opts)
	for _, det := range []Detector{DetIF, DetID3, DetC50, DetLR, DetGBDT} {
		r := evalCell(t, w.Users, ds, FeatBasic, det, emb, opts)
		if r.F1 < 0 || r.F1 > 1 || r.RecTop1 < 0 || r.RecTop1 > 1 {
			t.Errorf("%v: out-of-range metrics %+v", det, r)
		}
		if r.TestRows != len(ds.Test) {
			t.Errorf("%v: test rows %d != %d", det, r.TestRows, len(ds.Test))
		}
		if r.TestFrauds == 0 {
			t.Errorf("%v: no fraud on test day", det)
		}
	}
}

func TestTrainEvalFeatureSets(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	emb := LearnEmbeddings(ds, opts)
	for _, fs := range []FeatureSet{FeatBasic, FeatBasicS2V, FeatBasicDW, FeatBasicDWS2V} {
		a, err := Train(w.Users, ds, Spec{Features: fs, Detectors: []Detector{DetGBDT}}, emb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r := a.Eval(); r.Spec.Features != fs {
			t.Errorf("feature set mismatch: %v", r.Spec.Features)
		}
		// The engine assembles no struc2vec embedding.
		_, err = a.Bundle("v")
		if servable := fs == FeatBasic || fs == FeatBasicDW; servable != (err == nil) {
			t.Errorf("%v: Bundle error %v", fs, err)
		}
	}
}

// TestTrainRefusesValidationWithoutFraud: with no fraud label on the
// validation days BestF1 can only freeze +Inf, and a bundle built on it
// would flag nothing, so Train fails instead.
func TestTrainRefusesValidationWithoutFraud(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	cleared := *ds
	cleared.Train = append([]txn.Transaction(nil), ds.Train...)
	for i := range cleared.Train {
		if cleared.Train[i].Day >= ds.TrainEnd-txn.Day(opts.ValDays) {
			cleared.Train[i].Fraud = false
		}
	}
	if _, err := Train(w.Users, &cleared, served, nil, opts); err == nil {
		t.Fatal("Train froze a threshold on validation days without fraud")
	}
	if _, err := Train(w.Users, ds, served, nil, opts); err != nil {
		t.Fatalf("the uncleared dataset: %v", err)
	}
}

func TestTrainMatrixWidths(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	emb := LearnEmbeddings(ds, opts)
	m, labels := TrainMatrix(w.Users, ds, FeatBasic, emb, opts)
	if m.Cols != 52 || len(labels) != m.Rows {
		t.Fatalf("basic matrix %dx%d labels=%d", m.Rows, m.Cols, len(labels))
	}
	m2, _ := TrainMatrix(w.Users, ds, FeatBasicDW, emb, opts)
	if m2.Cols != 52+2*opts.Dim {
		t.Fatalf("DW matrix cols=%d", m2.Cols)
	}
	m3, _ := TrainMatrix(w.Users, ds, FeatBasicDWS2V, emb, opts)
	if m3.Cols != 52+4*opts.Dim {
		t.Fatalf("DW+S2V matrix cols=%d", m3.Cols)
	}
}

func TestStringers(t *testing.T) {
	if FeatBasic.String() != "Basic" || FeatBasicDWS2V.String() != "Basic+DW+S2V" {
		t.Error("feature set names wrong")
	}
	if DetGBDT.String() != "GBDT" || DetC50.String() != "C5.0" {
		t.Error("detector names wrong")
	}
	if FeatureSet(99).String() == "" || Detector(99).String() == "" {
		t.Error("unknown enum names empty")
	}
}

func TestEmbeddingsCoverNetworkUsers(t *testing.T) {
	_, ds := world(t)
	opts := quickOpts()
	emb := LearnEmbeddings(ds, opts)
	if emb.DW.Len() == 0 || emb.S2V.Len() == 0 {
		t.Fatal("empty embeddings")
	}
	if emb.DW.Dim() != opts.Dim || emb.S2V.Dim() != opts.Dim {
		t.Fatal("dimension mismatch")
	}
}

// deployed trains the served configuration and deploys it to a fresh
// table behind an engine with no live window.
func deployed(t *testing.T, users []txn.User, ds *txn.Dataset, opts Options) (*Artifact, *ms.Server) {
	t.Helper()
	a, err := Train(users, ds, served, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	bundle, err := a.Deploy(&ms.Uploader{Table: tab}, "test-version")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ms.New(tab, bundle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return a, srv
}

func TestEndToEndServing(t *testing.T) {
	// Full pipeline: train for serving, deploy to HBase, score the test
	// day through the Model Server, and verify the orderings broadly agree
	// with offline evaluation.
	w, ds := world(t)
	_, srv := deployed(t, w.Users, ds, quickOpts())
	verdicts, err := srv.ScoreBatch(context.Background(), ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	var fraudScores, honestScores float64
	var nf, nh int
	for i, v := range verdicts {
		if ds.Test[i].Fraud {
			fraudScores += v.Score
			nf++
		} else {
			honestScores += v.Score
			nh++
		}
	}
	if nf == 0 {
		t.Skip("no fraud on tiny test day")
	}
	if fraudScores/float64(nf) <= honestScores/float64(nh) {
		t.Errorf("served fraud mean score %.4f <= honest %.4f",
			fraudScores/float64(nf), honestScores/float64(nh))
	}
	if st := srv.Stats(); st.Scored != int64(len(ds.Test)) {
		t.Errorf("scored %d != %d", st.Scored, len(ds.Test))
	}
}

// TestServedEqualsOffline: the engine over the deployed table, reading
// the bundle's frozen city table, scores every test-day transaction
// bitwise as the artifact scores it offline, so the recall Eval reports
// is the served recall. Bitwise holds only where the trainer and the
// server share an architecture family: Go may fuse x*y+z on arm64 and
// others, until ROADMAP item 19 makes the rounding explicit.
func TestServedEqualsOffline(t *testing.T) {
	w, ds := world(t)
	a, srv := deployed(t, w.Users, ds, quickOpts())
	verdicts, err := srv.ScoreBatch(context.Background(), ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	offline := a.scores(ds.Test)
	online := make([]float64, len(verdicts))
	for i, v := range verdicts {
		online[i] = v.Score
		if math.Float64bits(v.Score) != math.Float64bits(offline[i]) {
			t.Errorf("txn %d: served %v, offline %v", ds.Test[i].ID, v.Score, offline[i])
		}
	}
	labels := feature.LabelsOf(ds.Test)
	thr := a.Eval().Threshold
	if got, want := metrics.Confuse(online, labels, thr).Recall(), metrics.Confuse(offline, labels, thr).Recall(); got != want {
		t.Errorf("served recall %v, offline %v", got, want)
	}
}

// BenchmarkTrainForServing trains the serving bundle the serving
// benchmark trains: a 6000-user composed world with the default scenario
// mix, GBDT only with 40 trees, 3 walks per node.
func BenchmarkTrainForServing(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Users = 6000
	w, _ := synth.Compose(cfg, synth.DefaultScenarioMix())
	ds, err := w.Dataset(1)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GBDT.Trees = 40
	opts.DW.WalksPerNode = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(w.Users, ds, served, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}
