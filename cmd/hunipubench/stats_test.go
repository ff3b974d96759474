package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins the quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, the spread the bounds in
// BENCHMARK.json are checked against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 7, 9, 4, 10, 2}, 2, 9},
		{[]float64{12.5, 11, 13.25, 10, 14, 11.5}, 10.75, 13.4375},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relIQR([]float64{12.5, 11, 13.25, 10, 14, 11.5}); !near(got, (13.4375-10.75)/12) {
		t.Errorf("relIQR = %g, want %g", got, (13.4375-10.75)/12)
	}
	if got := relIQR([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relIQR around a zero median = %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		isOK bool
	}{
		{0, 50, false}, {19, 50, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.isOK {
			t.Errorf("tailPercentile(%d) = p%g %v, want p%g %v", c.n, p, ok, c.p, c.isOK)
		}
	}
}
