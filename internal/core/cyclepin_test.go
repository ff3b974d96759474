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
// cycles, bytes, guard cycles and vertex dispatches (the host work the
// simulator does per solve). The multi-chip rows pin the IPU-Link term
// and per-chip guard checksums as well. Layout or engine changes that
// are meant to leave the model alone prove it here.
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
		vertices   int64
	}{
		{1, 64, poplar.GuardOff, 937_194, 2_441, 140_452, 6_766_506, 0, 126_742},
		{1, 128, poplar.GuardOff, 2_211_686, 5_169, 359_854, 49_485_272, 0, 448_429},
		{1, 256, poplar.GuardOff, 6_708_929, 13_181, 1_236_041, 528_406_048, 0, 2_307_945},
		{2, 64, poplar.GuardOff, 937_199, 2_441, 140_457, 6_766_506, 0, 126_742},
		{2, 64, poplar.GuardChecksums, 4_569_953, 2_444, 140_457, 6_766_506, 3_611_358, 132_419},
		{2, 128, poplar.GuardOff, 2_211_708, 5_169, 359_876, 49_485_272, 0, 448_429},
		{2, 128, poplar.GuardChecksums, 26_639_136, 5_172, 359_876, 49_485_272, 24_394_992, 465_854},
		{4, 64, poplar.GuardOff, 937_198, 2_441, 140_456, 6_766_506, 0, 126_742},
		{4, 64, poplar.GuardChecksums, 4_569_952, 2_444, 140_456, 6_766_506, 3_611_358, 132_419},
		{4, 128, poplar.GuardOff, 2_211_702, 5_169, 359_870, 49_485_272, 0, 448_429},
		{4, 128, poplar.GuardChecksums, 26_639_130, 5_172, 359_870, 49_485_272, 24_394_992, 465_854},
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
			{"VerticesRun", st.VerticesRun, tc.vertices},
		} {
			if c.got != c.want {
				t.Errorf("K=%d n=%d guard=%s: %s = %d, want %d", tc.ipus, tc.n, tc.guard, c.name, c.got, c.want)
			}
		}
	}
}
