package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 9, 3, 7}, 5},
		{[]float64{10, 12, 11, 15, 9, 30, 13, 12, 11, 10}, 11.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected quartiles are statistics.quantiles(xs, n=4) of Python 3, the
// function the benchmark contract's spread is defined with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5},
		{[]float64{10, 12, 11, 15, 9, 30, 13, 12, 11, 10}, 10, 13.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one sample should be NaN")
	}
	if got := spread([]float64{10, 12, 11, 15, 9, 30, 13, 12, 11, 10}); !near(got, 3.5/11.5) {
		t.Errorf("spread = %v, want %v", got, 3.5/11.5)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, to show the input is sorted first
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  int
		want float64
		ok   bool
	}{
		{10, 0, 0, false},
		{19, 0, 0, false},
		{20, 0, 0, false}, // 10 beyond leaves only the median
		{28, 64, 18, true},
		{64, 84, 54, true},
		{100, 90, 90, true},
		{400, 97, 388, true},
		{1000, 99, 990, true},
		{5000, 99, 4950, true}, // never above p99
	} {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || pct != c.pct || !near(v, c.want) {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - int(v); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, pct)
			}
		}
	}
}

func TestDistinctAndRange(t *testing.T) {
	if got := distinct([]float64{1, 1, 2, 1, 3, 2}); got != 3 {
		t.Errorf("distinct = %d, want 3", got)
	}
	if got := rangePct([]float64{9, 10, 11}); !near(got, 20) {
		t.Errorf("rangePct = %v, want 20", got)
	}
	if got := rangePct(nil); got != 0 {
		t.Errorf("rangePct of nothing = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		span     interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"one child", interval{0, 100}, []interval{{10, 40}}, 70},
		{"disjoint children", interval{0, 100}, []interval{{60, 80}, {10, 40}}, 50},
		{"overlapping children count once", interval{0, 100}, []interval{{10, 50}, {30, 70}}, 40},
		{"nested child adds nothing", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"touching children", interval{0, 100}, []interval{{0, 50}, {50, 100}}, 0},
		{"child clipped to the span", interval{10, 100}, []interval{{0, 30}, {90, 200}}, 60},
		{"child outside the span", interval{10, 20}, []interval{{30, 40}}, 10},
		{"many concurrent tasks", interval{0, 10}, []interval{{0, 4}, {1, 5}, {2, 6}, {8, 9}}, 3},
	} {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
