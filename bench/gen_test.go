package main

import (
	"reflect"
	"testing"

	"titant/internal/decision"
	"titant/internal/ms"
	"titant/internal/txn"
)

func testTraffic(seed uint64, caller int, uniform bool) *traffic {
	homes := make([]uint16, 500)
	for i := range homes {
		homes[i] = uint16(i % 40)
	}
	zipf := zipfTable(len(homes), zipfExponent)
	if uniform {
		zipf = nil
	}
	return newTraffic(seed, caller, zipf, homes, 40, 104)
}

func draw(g *traffic, n int) []txn.Transaction {
	out := make([]txn.Transaction, n)
	g.fill(out[:n/2]) // two fills must continue one stream
	g.fill(out[n/2:])
	return out
}

func TestSameSeedSameWorkload(t *testing.T) {
	a, b := draw(testTraffic(7, 0, false), 512), draw(testTraffic(7, 0, false), 512)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and caller generated different transactions")
	}
	if reflect.DeepEqual(a, draw(testTraffic(8, 0, false), 512)) {
		t.Error("a different seed generated the same transactions")
	}
	if reflect.DeepEqual(a, draw(testTraffic(7, 1, false), 512)) {
		t.Error("two callers share one stream")
	}
	seen := map[txn.TxnID]bool{}
	for _, tx := range a {
		if tx.From == tx.To {
			t.Fatalf("transaction %d pays itself", tx.ID)
		}
		if seen[tx.ID] {
			t.Fatalf("transaction ID %d repeats", tx.ID)
		}
		seen[tx.ID] = true
	}
}

// Zipf traffic concentrates on the low ranks, uniform traffic does not:
// the property that makes one workload warm and the other cold.
func TestUserDistributions(t *testing.T) {
	share := func(uniform bool) float64 {
		var hot int
		txns := draw(testTraffic(3, 0, uniform), 4096)
		for _, tx := range txns {
			if tx.From < 25 { // top 5% of 500 users
				hot++
			}
		}
		return float64(hot) / float64(len(txns))
	}
	if z := share(false); z < 0.4 {
		t.Errorf("Zipf(%.2f): top 5%% of users send %.2f of traffic, want most of it", zipfExponent, z)
	}
	if u := share(true); u > 0.1 {
		t.Errorf("uniform: top 5%% of users send %.2f of traffic, want about 0.05", u)
	}
}

func TestDigestCoversEveryAnswerBit(t *testing.T) {
	txns := draw(testTraffic(1, 0, false), 64)
	for i := range txns {
		txns[i].Fraud = i%8 == 0
	}
	answers := func() []ms.Decision {
		ds := make([]ms.Decision, len(txns))
		for i := range ds {
			ds[i].TxnID = txns[i].ID
			ds[i].Score = float64(i) / 64
			ds[i].Fraud = i%4 == 0
			ds[i].Action = decision.ActionApprove
			ds[i].Reason = "band 0"
		}
		return ds
	}
	base, err := gradeDecisions(answers(), txns)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := gradeDecisions(answers(), txns)
	if base != again {
		t.Fatal("the same decisions graded differently")
	}
	if base.recall != 1 || base.fpr != 8.0/56 {
		t.Errorf("recall %v fpr %v, want 1 and %v", base.recall, base.fpr, 8.0/56)
	}
	for name, mutate := range map[string]func(d *ms.Decision){
		"score ulp": func(d *ms.Decision) { d.Score += 1e-16 },
		"fraud":     func(d *ms.Decision) { d.Fraud = !d.Fraud },
		"action":    func(d *ms.Decision) { d.Action = decision.ActionDeny },
		"reason":    func(d *ms.Decision) { d.Reason = "band 1" },
	} {
		ds := answers()
		mutate(&ds[33])
		g, err := gradeDecisions(ds, txns)
		if err != nil {
			t.Fatal(err)
		}
		if g.digest == base.digest {
			t.Errorf("digest blind to a changed %s", name)
		}
	}
	ds := answers()
	ds[5].TxnID++
	if _, err := gradeDecisions(ds, txns); err == nil {
		t.Error("a decision answering the wrong transaction was accepted")
	}
	if _, err := gradeDecisions(ds[:10], txns); err == nil {
		t.Error("a short answer was accepted")
	}
}
