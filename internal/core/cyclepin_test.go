package core

import (
	"testing"

	"hunipu/internal/datasets"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// TestModeledCyclesPinned is the modeled-cycle determinism oracle: the
// instances Gaussian(n, 500, 1+31n+500) on a Mk2 fabric of the given
// chip count must cost exactly the pinned cycles, supersteps, exchange
// cycles, bytes and guard cycles. The multi-chip rows pin the IPU-Link
// term and per-chip guard checksums as well. Layout or engine changes
// that are meant to leave the model alone prove it here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		ipus       int
		n          int
		guard      poplar.GuardPolicy
		cycles     int64
		supersteps int64
		exchange   int64
		bytes      int64
		guardCyc   int64
	}{
		{1, 64, poplar.GuardOff, 1_024_106, 2_761, 137_764, 5_411_754, 0},
		{1, 128, poplar.GuardOff, 2_392_156, 5_778, 351_534, 41_032_152, 0},
		{1, 256, poplar.GuardOff, 7_284_441, 14_826, 1_193_033, 440_669_728, 0},
		{2, 64, poplar.GuardOff, 1_024_111, 2_761, 137_769, 5_411_754, 0},
		{2, 64, poplar.GuardChecksums, 7_507_905, 2_764, 137_769, 5_411_754, 6_462_398},
		{2, 128, poplar.GuardOff, 2_392_178, 5_778, 351_556, 41_032_152, 0},
		{2, 128, poplar.GuardChecksums, 48_425_278, 5_781, 351_556, 41_032_152, 46_000_664},
		{4, 64, poplar.GuardOff, 1_024_110, 2_761, 137_768, 5_411_754, 0},
		{4, 64, poplar.GuardChecksums, 7_507_904, 2_764, 137_768, 5_411_754, 6_462_398},
		{4, 128, poplar.GuardOff, 2_392_172, 5_778, 351_550, 41_032_152, 0},
		{4, 128, poplar.GuardChecksums, 48_425_272, 5_781, 351_550, 41_032_152, 46_000_664},
	} {
		if tc.n == 256 && testing.Short() {
			continue
		}
		m, err := datasets.Gaussian(tc.n, 500, int64(1+31*tc.n+500))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ipu.MK2()
		cfg.IPUs = tc.ipus
		s, err := New(Options{Config: cfg, Guard: tc.guard, Cache: NewProgramCache(1)})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatalf("K=%d n=%d guard=%s: %v", tc.ipus, tc.n, tc.guard, err)
		}
		st := r.Stats
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"TotalCycles", st.TotalCycles(), tc.cycles},
			{"Supersteps", st.Supersteps, tc.supersteps},
			{"ExchangeCycles", st.ExchangeCycles, tc.exchange},
			{"BytesExchanged", st.BytesExchanged, tc.bytes},
			{"GuardCycles", st.GuardCycles, tc.guardCyc},
		} {
			if c.got != c.want {
				t.Errorf("K=%d n=%d guard=%s: %s = %d, want %d", tc.ipus, tc.n, tc.guard, c.name, c.got, c.want)
			}
		}
	}
}
