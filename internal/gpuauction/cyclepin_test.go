package gpuauction

import (
	"testing"

	"hunipu/internal/datasets"
)

// TestModeledCyclesPinned pins the auction's modeled work on the
// instances core.TestModeledCyclesPinned uses, Gaussian(n, 500,
// 1+31n+500) on the default A100, exact and at a bounded ε.
// Refactors of the ε schedule or the certificate must leave cycles,
// rounds and cost exactly here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		n      int
		eps    float64
		cycles int64
		rounds int64
		cost   float64
	}{
		{64, 0, 12_165_201, 460, 281_245},
		{64, 0.05, 5_474_524, 207, 281_245},
		{128, 0, 14_871_802, 557, 812_625},
		{128, 0.05, 6_568_548, 246, 814_245},
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
		if got := r.Stats.Cycles; got != tc.cycles {
			t.Errorf("n=%d ε=%g: Cycles = %d, want %d", tc.n, tc.eps, got, tc.cycles)
		}
		if got := r.Rounds; got != tc.rounds {
			t.Errorf("n=%d ε=%g: Rounds = %d, want %d", tc.n, tc.eps, got, tc.rounds)
		}
		if got := r.Solution.Cost; got != tc.cost {
			t.Errorf("n=%d ε=%g: cost = %g, want %g", tc.n, tc.eps, got, tc.cost)
		}
	}
}
