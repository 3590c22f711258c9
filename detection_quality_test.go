package titant_test

import (
	"context"
	"testing"
	"time"

	"titant"
	"titant/internal/loadgen"
	"titant/internal/txn"
)

// TestDetectionQualityGate is the recall gate: it composes the attack
// scenario library onto the ring-fraud world at a fixed seed, trains the
// production detector with a reduced budget, replays the labeled test
// window through the load harness and pins per-scenario recall floors
// and a false-positive ceiling. The workload is a pure function of its
// seeds, so a drop below a floor is a detection regression, not noise;
// the floors carry margin below the measured values (ring 0.46, ATO
// 1.0, bust-out 0.91, card-testing 1.0, mule-chain 1.0, FPR 0.006).
func TestDetectionQualityGate(t *testing.T) {
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 1200
	world, man := titant.ComposeWorld(cfg, titant.DefaultScenarioMix())
	if len(man.Scenarios) == 0 {
		t.Fatal("composed world has no scenario manifests")
	}
	ds, err := world.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 40
	opts.LR.Iterations = 5
	opts.DW.WalksPerNode = 3
	opts.S2V.Epochs = 2

	art, err := titant.Train(world.Users, ds, servedSpec, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := titant.OpenFeatureTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	bundle, err := art.Deploy(titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0), "gate")
	if err != nil {
		t.Fatal(err)
	}
	st := titant.NewStreamStore(titant.WithStreamCities(opts.Cities))
	st.IngestBatch(ds.Network)
	eng, err := titant.NewEngine(tab, bundle, titant.WithStreamAggregates(st))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Replay the full test window (every day past the training cut) so
	// each scenario kind's fraud produces verdicts.
	cut := txn.Day(txn.NetworkDays + txn.TrainDays)
	var replay []txn.Transaction
	for i := range world.Log {
		if world.Log[i].Day >= cut {
			replay = append(replay, world.Log[i])
		}
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Schedule: loadgen.Constant{Rate: 4000},
		Duration: time.Second,
		Seed:     7,
		Mix:      loadgen.OpMix{Score: 1}, // verdicts only: no policy-band flagging
		Users:    10000,
		Replay:   replay,
		Manifest: man,
	}, &loadgen.EngineTarget{Server: eng})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("load run not clean: %d errors, %d shed", rep.Errors, rep.Shed)
	}
	if rep.Replayed != int64(len(replay)) {
		t.Fatalf("replayed %d of %d labeled transactions", rep.Replayed, len(replay))
	}

	floors := map[string]float64{
		"ring":             0.30,
		"account_takeover": 0.80,
		"bust_out":         0.70,
		"card_testing":     0.85,
		"mule_chain":       0.75,
	}
	seen := map[string]bool{}
	for _, s := range rep.Scenarios {
		seen[s.Kind] = true
		floor, ok := floors[s.Kind]
		if !ok {
			t.Errorf("unexpected scenario kind %q in report", s.Kind)
			continue
		}
		if s.Replayed == 0 {
			t.Errorf("%s: no labeled fraud replayed", s.Kind)
		}
		if s.Recall < floor {
			t.Errorf("%s: recall %.3f below floor %.2f (flagged %d of %d)",
				s.Kind, s.Recall, floor, s.Flagged, s.Replayed)
		}
	}
	for kind := range floors {
		if !seen[kind] {
			t.Errorf("scenario kind %q missing from report", kind)
		}
	}
	if rep.Recall < 0.55 {
		t.Errorf("overall recall %.3f below floor 0.55", rep.Recall)
	}
	if rep.Precision < 0.80 {
		t.Errorf("precision %.3f below floor 0.80", rep.Precision)
	}
	if rep.FalsePositiveRate > 0.02 {
		t.Errorf("false positive rate %.4f above ceiling 0.02", rep.FalsePositiveRate)
	}
}
