package ipuauction

import (
	"testing"

	"hunipu/internal/datasets"
)

// TestModeledCyclesPinned pins the auction's modeled work on the
// instances core.TestModeledCyclesPinned uses, Gaussian(n, 500,
// 1+31n+500) on the default Mk2, exact and at the bounded ε the
// serve brownout ladder uses. A warm row solves that instance's next
// frame, 2% of its entries redrawn, from −v of its own cold solve:
// a keyed stream's warm start. Refactors of the ε schedule or the
// certificate must leave cycles, supersteps and cost exactly here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		n          int
		eps        float64
		warm       bool
		cycles     int64
		supersteps int64
		cost       float64
	}{
		{64, 0, false, 822_474, 968, 281_245},
		{64, 0.05, false, 512_874, 602, 281_248},
		{128, 0, false, 1_519_354, 1_166, 812_625},
		{128, 0.05, false, 1_100_056, 842, 812_996},
		{64, 0.05, true, 199_572, 236, 277_331},
		{128, 0.05, true, 854_158, 658, 806_718},
	} {
		m, err := datasets.Gaussian(tc.n, 500, int64(1+31*tc.n+500))
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Epsilon: tc.eps}
		if tc.warm {
			o.WarmPrices = priorPrices(t, o, m)
			m = drift(t, m, 0.02, int64(2+31*tc.n+500))
		}
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatalf("n=%d ε=%g warm=%t: %v", tc.n, tc.eps, tc.warm, err)
		}
		if got := r.Stats.TotalCycles(); got != tc.cycles {
			t.Errorf("n=%d ε=%g warm=%t: TotalCycles = %d, want %d", tc.n, tc.eps, tc.warm, got, tc.cycles)
		}
		if got := r.Stats.Supersteps; got != tc.supersteps {
			t.Errorf("n=%d ε=%g warm=%t: Supersteps = %d, want %d", tc.n, tc.eps, tc.warm, got, tc.supersteps)
		}
		if got := r.Solution.Cost; got != tc.cost {
			t.Errorf("n=%d ε=%g warm=%t: cost = %g, want %g", tc.n, tc.eps, tc.warm, got, tc.cost)
		}
	}
}
