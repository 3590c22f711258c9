package main

import (
	"math"
	"testing"
)

// One engine call of 100 ns with replayed children of 30 and 20 ns, the
// first of which has a 10 ns child of its own; a standalone probe beside
// it must not enter the budget.
func TestSelfTimeAndUnattributedShare(t *testing.T) {
	spans := []span{
		{Name: "ms.decide_batch_us_per_txn", Op: 1, ID: 1, Start: 0, End: 100, Units: 4},
		{Name: "feature.assemble_ns_per_row", Op: 1, ID: 2, Parent: 1, Start: 100, End: 130, Units: 4},
		{Name: "stream.lookup_city_ns", Op: 1, ID: 3, Parent: 2, Start: 130, End: 140, Units: 12},
		{Name: "model.score_ns_per_row", Op: 1, ID: 4, Parent: 1, Start: 140, End: 160, Units: 4},
		{Name: "model.score_ns_per_row", Op: 2, ID: 5, Start: 200, End: 1200, Units: 4}, // probe
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 20, 5: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rows, unattributed := budget(spans, "ms.decide_batch_us_per_txn")
	if unattributed != 0.5 {
		t.Errorf("unattributed share = %v, want 0.5", unattributed)
	}
	var sum float64
	for _, r := range rows {
		sum += r.share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("budget shares sum to %v, want 1: self times must partition the call", sum)
	}
	if rows[0].layer != "(unattributed)" || rows[0].self != 50 {
		t.Errorf("largest row = %+v, want the unattributed 50 ns", rows[0])
	}
	if _, u := budget(spans, "ms.decide_single_us"); u != 0 {
		t.Errorf("no such root: unattributed = %v, want 0", u)
	}

	if sec, ok := meanPerUnit(spans, "model.score_ns_per_row"); !ok || sec != 1020e-9/8 {
		t.Errorf("meanPerUnit = %v %v, want %v", sec, ok, 1020e-9/8)
	}
	if _, ok := meanPerUnit(spans, "hbase.visit_row_ns"); ok {
		t.Error("a layer with no span reported a time")
	}
}
