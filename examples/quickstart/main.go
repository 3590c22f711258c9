// Quickstart: generate a small world, train the paper's production
// configuration (Basic features + DeepWalk embeddings + GBDT) in T+1 mode,
// evaluate it on the next day, and batch-score the test day through the
// v1 serving engine - the minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"titant"
)

func main() {
	// A small world keeps the quickstart under a minute; drop Users for
	// the full default scale.
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 3000
	world := titant.Generate(cfg)
	fmt.Printf("generated %d users, %d transactions, %d fraud rings\n",
		len(world.Users), len(world.Log), len(world.Rings))

	// Dataset 1 = the paper's April 10 test day: 90 days of records build
	// the transaction network, 14 days train the classifier, 1 day tests.
	ds, err := world.Dataset(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset 1: network=%d train=%d test=%d transactions\n",
		len(ds.Network), len(ds.Train), len(ds.Test))

	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 150 // lighter than the paper's 400 for a quickstart

	// Learn user node embeddings from the transaction network.
	emb := titant.LearnEmbeddings(ds, opts)

	// Train and evaluate the Table 1 winner.
	res := titant.TrainEval(world.Users, ds, titant.FeatBasicDW, titant.DetGBDT, emb, opts)
	fmt.Printf("\nBasic+DW+GBDT on %s:\n", ds.TestDay)
	fmt.Printf("  F1        = %.2f%%\n", 100*res.F1)
	fmt.Printf("  rec@top1%% = %.2f%%\n", 100*res.RecTop1)
	fmt.Printf("  AUC       = %.4f\n", res.AUC)
	fmt.Printf("  threshold = %.4f (frozen on the last %d training days)\n",
		res.Threshold, 2)

	// Compare against basic features alone: the embedding lift is the
	// paper's headline Table 1 observation.
	base := titant.TrainEval(world.Users, ds, titant.FeatBasic, titant.DetGBDT, emb, opts)
	fmt.Printf("\nBasic+GBDT (no embeddings): F1 = %.2f%% -> embeddings add %+.2f points\n",
		100*base.F1, 100*(res.F1-base.F1))

	// Deploy the production model and score the test day's first
	// transactions through the v1 engine — the online half of Figure 5.
	clf, emb2, threshold, err := titant.TrainForServing(world.Users, ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "titant-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tab, err := titant.OpenFeatureTable(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer tab.Close()
	bundle, err := titant.Deploy(world.Users, ds, emb2, clf, threshold, opts, tab, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := titant.NewEngine(tab, bundle)
	if err != nil {
		log.Fatal(err)
	}
	n := 200
	if n > len(ds.Test) {
		n = len(ds.Test)
	}
	verdicts, err := eng.ScoreBatch(context.Background(), ds.Test[:n])
	if err != nil {
		log.Fatal(err)
	}
	flagged := 0
	for _, v := range verdicts {
		if v.Fraud {
			flagged++
		}
	}
	fmt.Printf("\nonline serving: batch-scored %d transactions, flagged %d (p99=%dµs)\n",
		len(verdicts), flagged, eng.Stats().P99)

	// The paper deploys several detectors, not one: train a GBDT+LR+C5.0
	// ensemble bundle (mean-combined) and serve it through the same
	// engine. Every verdict now carries the per-member breakdown.
	fmt.Println("\ntraining a GBDT+LR+C5.0 ensemble for serving...")
	members, emb3, ensThreshold, err := titant.TrainEnsembleForServing(
		world.Users, ds, []titant.Detector{titant.DetGBDT, titant.DetLR, titant.DetC50},
		titant.CombineMean, opts)
	if err != nil {
		log.Fatal(err)
	}
	ensBundle, err := titant.DeployEnsemble(world.Users, ds, emb3, members,
		titant.CombineMean, ensThreshold, opts, tab, "quickstart-ensemble")
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.SetBundle(ensBundle); err != nil { // hot-swap, no restart
		log.Fatal(err)
	}
	verdicts, err = eng.ScoreBatch(context.Background(), ds.Test[:n])
	if err != nil {
		log.Fatal(err)
	}
	flagged = 0
	sample := &verdicts[0] // most suspicious transaction in the slice
	for i := range verdicts {
		if verdicts[i].Fraud {
			flagged++
		}
		if verdicts[i].Score > sample.Score {
			sample = &verdicts[i]
		}
	}
	fmt.Printf("ensemble (threshold %.3f) flagged %d of %d transactions\n", ensThreshold, flagged, len(verdicts))
	fmt.Printf("explainability: txn %d scored %.3f =", sample.TxnID, sample.Score)
	for _, m := range sample.Members {
		fmt.Printf(" %s:%.3f", m.Name, m.Score)
	}
	fmt.Println(" (mean)")

	fmt.Println("\n(note: at this toy scale single-day F1 swings by many points;")
	fmt.Println(" run cmd/titant-exp for the default-scale seven-day reproduction)")
}
