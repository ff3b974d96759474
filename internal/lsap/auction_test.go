package lsap

import (
	"math"
	"testing"
)

// TestPrepareRejectsOverflowingRange: a cost range whose benefit
// max C − min C overflows leaves no ε schedule to run. Such a matrix
// once sent a warm bounded solve into an endless start-ε loop and
// panicked the CPU auction.
func TestPrepareRejectsOverflowingRange(t *testing.T) {
	m, err := FromRows([][]float64{{1e308, -1e308}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []AuctionDriver{
		{Solver: "cold"},
		{Solver: "warm", Epsilon: 0.05, WarmPrices: []float64{0, 0}},
	} {
		if _, _, _, err := d.Prepare(m); err == nil {
			t.Errorf("%s: Prepare accepted a benefit range of +Inf", d.Solver)
		}
	}
}

// TestRaisePrice: a winning bid always raises the price, by one ulp
// when the bid is too small to survive rounding.
func TestRaisePrice(t *testing.T) {
	for _, tc := range []struct{ p, bid, want float64 }{
		{10, 2.5, 12.5},
		{0, 1e-300, 1e-300},
		{1e16, 0.5, math.Nextafter(1e16, math.Inf(1))},
		{-1e16, 0.25, math.Nextafter(-1e16, math.Inf(1))},
	} {
		if got := RaisePrice(tc.p, tc.bid); got != tc.want || got <= tc.p {
			t.Errorf("RaisePrice(%g, %g) = %g, want %g", tc.p, tc.bid, got, tc.want)
		}
	}
}

// TestWarmStartRule: a cold schedule starts at maxB/2; only a
// warm-started bounded one whose prices lie within a finite maxB of
// each other skips to the smallest maxB/2·4⁻ᵏ at or above the floor,
// so it still ends at the cold schedule's final ε.
func TestWarmStartRule(t *testing.T) {
	warm := []float64{0, 0}
	for _, tc := range []struct {
		name        string
		warm        []float64
		eps         float64
		maxB, floor float64
		want        float64
	}{
		{"cold", nil, 0.05, 64000, 262, 32000},
		{"cold exact", nil, 0, 64000, 1.0 / 3, 32000},
		{"cold, maxB 0", nil, 0.05, 0, 262, 1},
		{"cold, maxB < 0", nil, 0.05, -8, 262, 1},
		{"warm bounded", warm, 0.05, 64000, 262, 500},
		{"warm bounded, quotient on the floor", warm, 0.05, 64000, 500, 500},
		{"warm bounded, lower floor", warm, 0.05, 64000, 262.0 / 8, 125},
		{"warm bounded, maxB 0", warm, 0.05, 0, 262, 1},
		{"warm exact", warm, 0, 64000, 1.0 / 3, 32000},
		{"warm bounded, start below the floor", warm, 0.05, 64000, 40000, 32000},
		{"warm bounded, start just above the floor", warm, 0.05, 64000, 8001, 32000},
		{"warm bounded, prices spread maxB", []float64{-30000, 34000}, 0.05, 64000, 262, 500},
		{"warm bounded, prices spread wider than maxB", []float64{-30000, 34001}, 0.05, 64000, 262, 32000},
	} {
		d := AuctionDriver{Solver: "test", Epsilon: tc.eps, WarmPrices: tc.warm}
		if got := d.StartEps(tc.maxB, tc.floor); got != tc.want {
			t.Errorf("%s: StartEps(%g, %g) = %g, want %g", tc.name, tc.maxB, tc.floor, got, tc.want)
		}
	}
}

// TestWarmStartFloor: the floor is 1/(n+1) for an exact target and
// Epsilon·(1+lb)/n, lb the sum of row minima clamped at 0, for a
// bounded one. Only an integer matrix, whose phase below 1/(n+1) is
// already exact, raises a bounded floor to 1/(n+1).
func TestWarmStartFloor(t *testing.T) {
	m, err := FromRows([][]float64{
		{40, 90, 70},
		{80, 20, 60},
		{50, 30, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := FromRows([][]float64{{-5, 1}, {2, -7}})
	if err != nil {
		t.Fatal(err)
	}
	frac, err := FromRows([][]float64{
		{0.5, 2.25, 1.75},
		{2, 0.25, 1.5},
		{1.25, 0.75, 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	fracNeg, err := FromRows([][]float64{{-0.5, 1.5}, {2.5, -1.25}})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FromRows([][]float64{{-0.5, -0.5}, {-0.5, -0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Matrix
		eps  float64
		want float64
	}{
		{"exact", m, 0, 1.0 / 4},
		{"bounded", m, 0.05, 0.05 * (1 + 40 + 20 + 30) / 3},
		{"bounded below the exact floor", m, 0.001, 1.0 / 4},
		{"negative row minima clamp lb at 0", neg, 2, 2 * (1 + 0) / 2},
		{"real-valued exact", frac, 0, 1.0 / 4},
		{"real-valued bounded below the exact floor", frac, 0.0625, 0.0625 * (1 + 0.5 + 0.25 + 0.75) / 3},
		// Benefits span maxB = 3.75; a finer floor than their price
		// resolution would only repeat phases.
		{"real-valued floor held at the prices' resolution", fracNeg, 5e-324, 3.75 * 0x1p-52},
		{"real-valued zero range that underflows stays positive", flat, 5e-324, math.SmallestNonzeroFloat64},
	} {
		d := AuctionDriver{Epsilon: tc.eps}
		_, maxB, _, err := d.Prepare(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Floor(tc.m, maxB); got != tc.want {
			t.Errorf("%s: Floor = %g, want %g", tc.name, got, tc.want)
		}
	}
}
