package ipuauction

import (
	"testing"

	"hunipu/internal/datasets"
)

// TestModeledCyclesPinned pins the auction's modeled work on the
// instances core.TestModeledCyclesPinned uses, Gaussian(n, 500,
// 1+31n+500) on the default Mk2, exact and at the bounded ε the
// serve brownout ladder uses. Refactors of the ε schedule or the
// certificate must leave cycles, supersteps and cost exactly here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		n          int
		eps        float64
		cycles     int64
		supersteps int64
		cost       float64
	}{
		{64, 0, 1_390_562, 1_428, 281_245},
		{64, 0.05, 871_658, 891, 281_248},
		{128, 0, 2_715_770, 1_723, 812_625},
		{128, 0.05, 1_989_576, 1_251, 812_996},
	} {
		m, err := datasets.Gaussian(tc.n, 500, int64(1+31*tc.n+500))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Epsilon: tc.eps})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatalf("n=%d ε=%g: %v", tc.n, tc.eps, err)
		}
		if got := r.Stats.TotalCycles(); got != tc.cycles {
			t.Errorf("n=%d ε=%g: TotalCycles = %d, want %d", tc.n, tc.eps, got, tc.cycles)
		}
		if got := r.Stats.Supersteps; got != tc.supersteps {
			t.Errorf("n=%d ε=%g: Supersteps = %d, want %d", tc.n, tc.eps, got, tc.supersteps)
		}
		if got := r.Solution.Cost; got != tc.cost {
			t.Errorf("n=%d ε=%g: cost = %g, want %g", tc.n, tc.eps, got, tc.cost)
		}
	}
}
