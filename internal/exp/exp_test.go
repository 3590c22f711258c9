package exp

import (
	"strings"
	"testing"
)

// The shape assertions here run on the Quick configuration (small world,
// two days) so the whole package tests in about a minute. A record of
// full-scale runs is ROADMAP item 2, not yet written; no ordering is
// claimed at either scale beyond what a test here asserts.

func TestTable1QuickShapes(t *testing.T) {
	cfg := Quick()
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.F1) != 11 || len(res.Days) != cfg.Days {
		t.Fatalf("result shape %dx%d", len(res.F1), len(res.Days))
	}
	// The Quick world (3k users, 2 days) is statistically noisy, and
	// default-scale runs contradict several of the paper's Table 1
	// orderings too (ROADMAP item 2), so none of them is asserted. Here
	// we check plumbing plus the one shape robust at any scale:
	// unsupervised IF loses to supervised methods.
	ifm, gbdt := res.Mean(0), res.Mean(4)
	best := 0.0
	for i := 1; i <= 4; i++ {
		if m := res.Mean(i); m > best {
			best = m
		}
	}
	if ifm >= best {
		t.Errorf("IF %.3f >= best supervised %.3f", ifm, best)
	}
	for i := range res.Configs {
		if m := res.Mean(i); m < 0 || m > 1 {
			t.Errorf("config %d mean F1 out of range: %v", i, m)
		}
	}
	// Embeddings must not catastrophically hurt the classifiers.
	if dw := res.Mean(8); dw < gbdt-0.15 {
		t.Errorf("Basic+DW+GBDT %.3f far below Basic+GBDT %.3f", dw, gbdt)
	}
	if r := res.Render(); !strings.Contains(r, "Table 1") {
		t.Error("render missing title")
	}
}

func TestFigure9Quick(t *testing.T) {
	res, err := RunFigure9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecTop1) != 5 {
		t.Fatalf("detectors = %d", len(res.RecTop1))
	}
	// IF must be the weakest at rec@top1%, GBDT at least as good as ID3.
	ifRec, id3Rec, gbdtRec := res.RecTop1[0], res.RecTop1[1], res.RecTop1[4]
	if ifRec > id3Rec {
		t.Errorf("IF rec %.3f > ID3 %.3f", ifRec, id3Rec)
	}
	// Tolerance is wide: the Quick world has only ~10-20 test frauds, so a
	// single transaction moves rec@1% by several points.
	if gbdtRec < id3Rec-0.2 {
		t.Errorf("GBDT rec %.3f far below ID3 %.3f", gbdtRec, id3Rec)
	}
	if r := res.Render(); !strings.Contains(r, "Figure 9") {
		t.Error("render missing title")
	}
}

func TestFigure10Shapes(t *testing.T) {
	cfg := Quick()
	res, err := RunFigure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DWMinutes) != 4 || len(res.GBDTSeconds) != 4 {
		t.Fatalf("result shape %d/%d", len(res.DWMinutes), len(res.GBDTSeconds))
	}
	// DW keeps improving with machines.
	for i := 1; i < 4; i++ {
		if res.DWMinutes[i] >= res.DWMinutes[i-1] {
			t.Errorf("DW time rose at %d machines: %v", res.Machines[i], res.DWMinutes)
		}
	}
	// GBDT improves substantially 4 -> 20 machines but NOT by 2x 20 -> 40.
	if res.GBDTSeconds[2] >= res.GBDTSeconds[0]/2 {
		t.Errorf("GBDT did not scale 4->20: %v", res.GBDTSeconds)
	}
	if res.GBDTSeconds[3] < res.GBDTSeconds[2]*0.6 {
		t.Errorf("GBDT scaled too well 20->40: %v", res.GBDTSeconds)
	}
	if r := res.Render(); !strings.Contains(r, "Figure 10") {
		t.Error("render missing title")
	}
}

func TestTable2Quick(t *testing.T) {
	cfg := Quick()
	res, err := RunTable2(cfg, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series["F1"]) != 2 {
		t.Fatalf("series = %v", res.Series)
	}
	for _, v := range res.Series["F1"] {
		if v < 0 || v > 1 {
			t.Fatalf("F1 out of range: %v", v)
		}
	}
	if r := res.Render(); !strings.Contains(r, "Table 2") {
		t.Error("render missing title")
	}
}

func TestFigure11Quick(t *testing.T) {
	cfg := Quick()
	res, err := RunFigure11(cfg, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for name, vs := range res.Series {
		if len(vs) != 2 {
			t.Fatalf("%s has %d points", name, len(vs))
		}
	}
}

func TestFigure12Quick(t *testing.T) {
	cfg := Quick()
	res, err := RunFigure12(cfg, []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if r := res.Render(); !strings.Contains(r, "Figure 12") {
		t.Error("render missing title")
	}
}
