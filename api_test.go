package titant_test

import (
	"context"
	"testing"

	"titant"
)

// servedSpec is the production configuration: Basic+DW features, GBDT.
var servedSpec = titant.Spec{Features: titant.FeatBasicDW, Detectors: []titant.Detector{titant.DetGBDT}}

// tinyWorld is a world small enough for a facade test whose validation
// days still carry fraud, so Train can freeze a threshold on it.
func tinyWorld() *titant.World {
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 800
	cfg.Communities = 8
	cfg.Cities = 20
	cfg.FraudsterFrac = 0.025
	return titant.Generate(cfg)
}

// TestPublicAPIQuickstart exercises the facade end to end on a tiny world:
// generate, slice, embed, train, evaluate, deploy, serve.
func TestPublicAPIQuickstart(t *testing.T) {
	world := tinyWorld()

	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 40
	opts.LR.Iterations = 5
	opts.DW.WalksPerNode = 3
	opts.S2V.Epochs = 2

	emb := titant.LearnEmbeddings(ds, opts)
	art, err := titant.Train(world.Users, ds, servedSpec, emb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := art.Eval(); res.F1 < 0 || res.F1 > 1 {
		t.Fatalf("F1 = %v", res.F1)
	}

	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := art.Deploy(titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0), "v1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := titant.NewEngine(tab, bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v, err := eng.Score(context.Background(), &ds.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Score < 0 || v.Score > 1.5 {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestPublicAPIStreaming exercises the streaming serving path through the
// facade: build a live window from the reference days, score against it,
// and keep it current with observed traffic.
func TestPublicAPIStreaming(t *testing.T) {
	world := tinyWorld()
	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 30
	opts.DW.WalksPerNode = 2

	art, err := titant.Train(world.Users, ds, servedSpec, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := art.Deploy(titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0), "v1")
	if err != nil {
		t.Fatal(err)
	}

	st := titant.NewStreamStore(
		titant.WithStreamShards(8),
		titant.WithStreamCities(opts.Cities))
	st.IngestBatch(ds.Network) // warm the window from the 90-day reference days
	eng, err := titant.NewEngine(tab, bundle, titant.WithStreamAggregates(st))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range ds.Test[:20] {
		tx := &ds.Test[i]
		v, err := eng.Score(ctx, tx)
		if err != nil {
			t.Fatal(err)
		}
		// GBDT regresses residuals toward the 0/1 labels, so a raw score
		// can sit just below 0; the verdict must follow the threshold.
		if v.Score < -0.5 || v.Score > 1.5 || v.Fraud != (v.Score >= bundle.Threshold) {
			t.Fatalf("verdict = %+v, threshold %v", v, bundle.Threshold)
		}
		if err := eng.Ingest(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Ingested(); got != int64(len(ds.Network)+20) {
		t.Fatalf("ingested = %d, want %d", got, len(ds.Network)+20)
	}
}
