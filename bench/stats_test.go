package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 0, -3}); !near(got, 4) {
		t.Errorf("geomean skips non-positive values: got %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The tail is p95 from 200 samples, below that the highest rank with ten
// samples beyond it, and below 20 samples the maximum.
func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		pct     float64
	}{
		{1000, 949, 95}, {200, 189, 95}, {199, 188, 100 * 189.0 / 199},
		{33, 22, 100 * 23.0 / 33}, {27, 16, 100 * 17.0 / 27}, {20, 9, 50},
		{19, 18, 100}, {7, 6, 100}, {1, 0, 100},
	} {
		rank, pct := tailRank(tc.n)
		if rank != tc.rank || !near(pct, tc.pct) {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", tc.n, rank, pct, tc.rank, tc.pct)
		}
		if tc.n >= 20 && tc.n-1-rank < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond it, want at least 10", tc.n, tc.n-1-rank)
		}
	}
	vs := make([]float64, 33)
	for i := range vs {
		vs[i] = float64(33 - i) // unsorted on purpose
	}
	if got, _ := tail(vs); got != 23 {
		t.Errorf("tail of 1..33 = %v, want 23", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which
// defines the acceptance spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 1, 5, 3}, 1.5, 6.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.vs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 105}
	for _, tc := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"same", steady, steady, true, "within"},
		{"slower", steady, shift(steady, 1.10), true, "worse"},
		{"faster", steady, shift(steady, 0.90), true, "better"},
		{"higher is better, lower reading", steady, shift(steady, 0.90), false, "worse"},
		{"small drift", steady, shift(steady, 1.02), true, "within"},
		{"noise wider than bound", noisy, shift(noisy, 1.02), true, "unresolved"},
		{"noisy but every run better", noisy, shift(steady, 0.5), true, "better"},
	} {
		if got, _ := verdict(tc.old, tc.new, tc.lower, 0.05); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	text := []byte("# HELP x\n" +
		`x_bucket{le="0.001"} 50` + "\n" +
		`x_bucket{le="0.01"} 90` + "\n" +
		`x_bucket{le="0.1"} 100` + "\n" +
		`x_bucket{le="+Inf"} 100` + "\n" +
		"x_sum 1\nx_count 100\n")
	if got := histogramQuantile(text, "x", 0.95); !near(got, 0.055) {
		t.Errorf("p95 = %v, want 0.055", got)
	}
	if got := histogramQuantile(text, "y", 0.95); got != 0 {
		t.Errorf("missing histogram = %v, want 0", got)
	}
}
