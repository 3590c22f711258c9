package main

import (
	"math"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}, {0.011, 2}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("no samples must give NaN, not a latency")
	}
}

func TestMedianOfSlices(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	if got := median(in); got != 3 {
		t.Errorf("median of five = %v, want 3", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
