package core

import (
	"context"
	"testing"

	"titant/internal/hbase"
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

func TestTrainEvalAllDetectors(t *testing.T) {
	w, ds := world(t)
	opts := quickOpts()
	emb := LearnEmbeddings(ds, opts)
	for _, det := range []Detector{DetIF, DetID3, DetC50, DetLR, DetGBDT} {
		r := TrainEval(w.Users, ds, FeatBasic, det, emb, opts)
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
		r := TrainEval(w.Users, ds, fs, DetGBDT, emb, opts)
		if r.Features != fs {
			t.Errorf("feature set mismatch: %v", r.Features)
		}
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

func TestEndToEndServing(t *testing.T) {
	// Full pipeline: train for serving, deploy to HBase, score the test
	// day through the Model Server, and verify the orderings broadly agree
	// with offline evaluation.
	w, ds := world(t)
	opts := quickOpts()
	clf, emb, threshold, err := TrainForServing(w.Users, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := hbase.Open(hbase.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := DeployTo(w.Users, ds, emb, clf, threshold, opts, &ms.Uploader{Table: tab}, "test-version")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ms.New(tab, bundle)
	if err != nil {
		t.Fatal(err)
	}
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
		if _, _, _, err := TrainEnsembleForServing(w.Users, ds, []Detector{DetGBDT}, ms.CombineMean, opts); err != nil {
			b.Fatal(err)
		}
	}
}
