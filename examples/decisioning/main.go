// Decisioning: the online risk decision flow end to end. The paper's
// Model Server stops at a fraud probability; production risk control
// maps that probability to an *action* — pass the transfer, step up
// verification, or block it — under scenario-specific policies, watches
// a challenger model in shadow before promoting it, and monitors the
// score distribution for drift. This example runs the whole loop: train
// a champion (GBDT) and a challenger (LR), deploy the champion behind a
// versioned decision policy with threshold bands and velocity rules,
// replay the test day through POST /v1/decide/batch under mixed
// scenarios, hot-swap a stricter policy over POST /v1/policy, then read
// the shadow agreement and drift sections off /v1/stats and the
// readiness body off /healthz.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"titant"
	"titant/internal/ms"
)

func main() {
	cfg := titant.DefaultWorldConfig()
	cfg.Users = 2500
	world := titant.Generate(cfg)
	ds, err := world.Dataset(1)
	if err != nil {
		log.Fatal(err)
	}
	opts := titant.DefaultOptions()
	opts.GBDT.Trees = 150

	fmt.Println("offline phase: training the champion (Basic+DW+GBDT)...")
	champion, err := titant.Train(world.Users, ds, served(titant.DetGBDT), nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("offline phase: training the challenger (Basic+DW+LR) for shadow...")
	chArt, err := titant.Train(world.Users, ds, served(titant.DetLR), nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	challenger, err := chArt.Bundle("challenger-lr")
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "titant-decisioning-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tab, err := titant.OpenFeatureTable(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer tab.Close()
	fmt.Printf("uploading %d users' features + embeddings to the store...\n", len(world.Users))
	bundle, err := champion.Deploy(titant.NewShardedUploader([]*titant.FeatureTable{tab}, 0), "2017-04-10")
	if err != nil {
		log.Fatal(err)
	}
	threshold := bundle.Threshold

	// The policy document: bands derived from the trained threshold plus
	// two rules — an amount ceiling and a velocity cap over the live
	// streaming window. This is exactly the JSON POST /v1/policy accepts.
	hi := threshold + (1-threshold)/2
	policyDoc := fmt.Sprintf(`{
	  "version": "pol-2017-04-10",
	  "scenarios": {
	    "default": {
	      "bands": [
	        {"min": 0, "max": %g, "action": "approve"},
	        {"min": %g, "max": %g, "action": "challenge"},
	        {"min": %g, "max": 1, "action": "deny"}
	      ],
	      "rules": [
	        {"name": "amount-ceiling", "when": [{"field": "amount", "op": ">", "value": 50000}], "action": "challenge"},
	        {"name": "velocity-cap", "when": [{"field": "snd_out_count", "op": ">", "value": 200}], "action": "challenge"}
	      ]
	    },
	    "withdrawal": {
	      "bands": [
	        {"min": 0, "max": %g, "action": "approve"},
	        {"min": %g, "max": 1, "action": "deny"}
	      ]
	    }
	  }
	}`, threshold, threshold, hi, hi, threshold, threshold)
	policy, err := titant.ParsePolicy([]byte(policyDoc))
	if err != nil {
		log.Fatal(err)
	}

	st := titant.NewStreamStore(titant.WithStreamCities(opts.Cities))
	st.IngestBatch(ds.Network) // warm the velocity window from the reference days
	eng, err := titant.NewEngine(tab, bundle,
		titant.WithStreamAggregates(st),
		titant.WithPolicy(policy),
		titant.WithShadow(challenger),
		titant.WithDriftMonitor(titant.DriftConfig{}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	web := httptest.NewServer(eng.Handler())
	defer web.Close()
	fmt.Printf("model server at %s: champion %s (threshold %.3f), challenger %s in shadow, policy %s\n\n",
		web.URL, bundle.Version, threshold, challenger.Version, policy.Version)

	// Replay the test day through POST /v1/decide/batch under mixed
	// scenarios, as the payment products' gateways would.
	scenarios := []string{"payment", "transfer", "withdrawal"}
	fmt.Printf("deciding %d transactions of %s over the wire...\n", len(ds.Test), ds.TestDay)
	actions := map[string]int{}
	fraudStopped, fraudPassed := 0, 0
	start := time.Now()
	const chunk = 1000
	for lo := 0; lo < len(ds.Test); lo += chunk {
		hi := min(lo+chunk, len(ds.Test))
		var req ms.DecideBatchRequest
		for i := lo; i < hi; i++ {
			req.Transactions = append(req.Transactions, ms.DecideRequest{
				TxnRequest: wireTxn(&ds.Test[i]),
				Scenario:   scenarios[i%len(scenarios)],
			})
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(web.URL+"/v1/decide/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			log.Fatalf("decide chunk failed: %d %s", resp.StatusCode, msg)
		}
		var br ms.DecideBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		for i, d := range br.Decisions {
			actions[d.Action.String()]++
			if ds.Test[lo+i].Fraud {
				if d.Action == titant.ActionApprove {
					fraudPassed++
				} else {
					fraudStopped++
				}
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("  %0.f decisions/s: approve=%d challenge=%d deny=%d\n",
		float64(len(ds.Test))/elapsed.Seconds(), actions["approve"], actions["challenge"], actions["deny"])
	fmt.Printf("  frauds stopped (challenged or denied): %d; frauds passed: %d\n\n", fraudStopped, fraudPassed)

	// Risk appetite changes without redeploying a model: hot-swap a
	// stricter policy that denies everything the model flags.
	stricter := fmt.Sprintf(`{
	  "version": "pol-lockdown",
	  "scenarios": {
	    "default": {
	      "bands": [
	        {"min": 0, "max": %g, "action": "approve"},
	        {"min": %g, "max": 1, "action": "deny"}
	      ]
	    }
	  }
	}`, threshold, threshold)
	resp, err := http.Post(web.URL+"/v1/policy", "application/json", bytes.NewReader([]byte(stricter)))
	if err != nil {
		log.Fatal(err)
	}
	var info ms.PolicyInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("hot-swapped policy %s over POST /v1/policy (scenarios: %v)\n", info.Version, info.Scenarios)
	one, _ := json.Marshal(ms.DecideRequest{TxnRequest: wireTxn(&ds.Test[0])})
	resp, err = http.Post(web.URL+"/v1/decide", "application/json", bytes.NewReader(one))
	if err != nil {
		log.Fatal(err)
	}
	var d ms.Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("  decision under %s: score=%.3f action=%s (%s)\n\n", d.PolicyVersion, d.Score, d.Action, d.Reason)

	// Shadow and drift: wait for the challenger to drain its queue, then
	// read both sections the way a dashboard would — off /v1/stats.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sh := eng.ShadowStats()
		if sh.Scored+sh.Errors+sh.Dropped >= int64(len(ds.Test)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	sh := eng.ShadowStats()
	fmt.Printf("shadow challenger %s after the replay:\n", challenger.Version)
	fmt.Printf("  compared=%d dropped=%d errors=%d\n", sh.Scored, sh.Dropped, sh.Errors)
	fmt.Printf("  verdict agreement=%.4f would-have-flipped=%d mean |score gap|=%.4f\n\n",
		sh.Agreement, sh.Flipped, sh.MeanAbsDiff)

	fmt.Println("drift monitor (baseline frozen at deploy, PSI/KS on live traffic):")
	for _, s := range eng.DriftStats() {
		fmt.Printf("  %-10s baseline=%d live=%d PSI=%.4f KS=%.4f alert=%v\n",
			s.Name, s.BaselineCount, s.LiveCount, s.PSI, s.KS, s.Alert)
	}

	resp, err = http.Get(web.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var h ms.HealthInfo
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nreadiness (/healthz): bundle=%s policy=%s stream=%v shadow=%v drift=%v drift_alert=%v\n",
		h.BundleVersion, h.PolicyVersion, h.Stream, h.Shadow, h.Drift, h.DriftAlert)
}

func wireTxn(t *titant.Transaction) ms.TxnRequest {
	return ms.TxnRequest{
		ID: int64(t.ID), Day: int(t.Day), Sec: t.Sec,
		From: int32(t.From), To: int32(t.To), Amount: t.Amount,
		TransCity: t.TransCity, DeviceRisk: t.DeviceRisk,
		IPRisk: t.IPRisk, Channel: uint8(t.Channel),
	}
}

// served is one detector on the production feature set (Basic+DW).
func served(det titant.Detector) titant.Spec {
	return titant.Spec{Features: titant.FeatBasicDW, Detectors: []titant.Detector{det}}
}
