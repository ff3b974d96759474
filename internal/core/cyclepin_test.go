package core

import (
	"testing"

	"hunipu/internal/datasets"
)

// TestModeledCyclesPinned is the modeled-cycle determinism oracle: the
// instances Gaussian(n, 500, 1+31n+500) on the default Mk2 must cost
// exactly the pinned cycles and supersteps at any host parallelism.
// Layout or engine changes that are meant to leave the single-chip
// model alone prove it here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		n          int
		cycles     int64
		supersteps int64
	}{
		{64, 1_024_106, 2_761},
		{128, 2_392_156, 5_778},
		{256, 7_284_441, 14_826},
	} {
		if tc.n == 256 && testing.Short() {
			continue
		}
		m, err := datasets.Gaussian(tc.n, 500, int64(1+31*tc.n+500))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 0} {
			s, err := New(Options{Parallelism: par, Cache: NewProgramCache(1)})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.SolveDetailed(m)
			if err != nil {
				t.Fatalf("n=%d parallelism=%d: %v", tc.n, par, err)
			}
			if got := r.Stats.TotalCycles(); got != tc.cycles {
				t.Errorf("n=%d parallelism=%d: TotalCycles = %d, want %d", tc.n, par, got, tc.cycles)
			}
			if got := r.Stats.Supersteps; got != tc.supersteps {
				t.Errorf("n=%d parallelism=%d: Supersteps = %d, want %d", tc.n, par, got, tc.supersteps)
			}
		}
	}
}
