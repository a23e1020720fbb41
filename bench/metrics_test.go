package main

import (
	"math"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(xs, n=4),
// which is how the benchmark's spread is judged; the expected values
// were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{1, 2}, 0.75, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9, 6},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.xs), c.md) {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.md)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("one sample has spread %v", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		v, q float64
	}{
		{1600, 1584, 0.99}, // 16 samples beyond the p99
		{500, 490, 0.98},
		{192, 173, 0.9}, // p95 would leave 9.6
		{19, 19, 1},     // no percentile leaves ten: the maximum
		{4, 4, 1},
	}
	for _, c := range cases {
		if v, q := tail(seq(c.n)); v != c.v || q != c.q {
			t.Errorf("n=%d: tail = %v at q %v, want %v at %v", c.n, v, q, c.v, c.q)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
