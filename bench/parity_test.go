package main

import (
	"context"
	"strings"
	"testing"
)

// The harness is not tuned to worldSeed: on another world every topology
// still answers like the plain single engine, bit for bit.
func TestSecondWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a world")
	}
	fx, err := newFixture(worldSeed+1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	for _, s := range specs {
		tgt, err := fx.open(s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var log strings.Builder
		_, correct, failed, err := checkParity(context.Background(), &log, fx, tgt, s)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !correct || failed != 0 {
			t.Errorf("%s: %d failed; %s", s.name, failed, log.String())
		}
	}
}
