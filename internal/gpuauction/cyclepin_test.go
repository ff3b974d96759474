package gpuauction

import (
	"math/rand"
	"testing"

	"hunipu/internal/datasets"
	"hunipu/internal/lsap"
)

// TestModeledCyclesPinned pins the auction's modeled work on the
// instances core.TestModeledCyclesPinned uses, Gaussian(n, 500,
// 1+31n+500) on the default A100, exact and at a bounded ε. A warm
// row solves the drifted next frame that ipuauction's warm rows solve
// from −v of this port's own cold solve: the host schedule's warm
// start. Refactors of the ε schedule or the certificate must leave
// cycles, rounds and cost exactly here.
func TestModeledCyclesPinned(t *testing.T) {
	for _, tc := range []struct {
		n      int
		eps    float64
		warm   bool
		cycles int64
		rounds int64
		cost   float64
	}{
		{64, 0, false, 12_165_201, 460, 281_245},
		{64, 0.05, false, 5_474_524, 207, 281_245},
		{128, 0, false, 14_871_802, 557, 812_625},
		{128, 0.05, false, 6_568_548, 246, 814_245},
		{64, 0.05, true, 634_631, 24, 277_331},
		{128, 0.05, true, 1_148_072, 43, 807_011},
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
		if got := r.Stats.Cycles; got != tc.cycles {
			t.Errorf("n=%d ε=%g warm=%t: Cycles = %d, want %d", tc.n, tc.eps, tc.warm, got, tc.cycles)
		}
		if got := r.Rounds; got != tc.rounds {
			t.Errorf("n=%d ε=%g warm=%t: Rounds = %d, want %d", tc.n, tc.eps, tc.warm, got, tc.rounds)
		}
		if got := r.Solution.Cost; got != tc.cost {
			t.Errorf("n=%d ε=%g warm=%t: cost = %g, want %g", tc.n, tc.eps, tc.warm, got, tc.cost)
		}
	}
}

// drift returns a copy of m with share of its entries redrawn from
// Gaussian(n, 500, seed): a tracking client's next frame, drawn as
// ipuauction's warm tests draw it.
func drift(t *testing.T, m *lsap.Matrix, share float64, seed int64) *lsap.Matrix {
	t.Helper()
	src, err := datasets.Gaussian(m.N, 500, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	next := m.Clone()
	for k := int(share*float64(m.N*m.N) + 0.5); k > 0; k-- {
		p := rng.Intn(m.N * m.N)
		next.Data[p] = src.Data[p]
	}
	return next
}

// priorPrices solves prev cold with o and returns −v of its duals, the
// prices a keyed stream carries to its next frame.
func priorPrices(t *testing.T, o Options, prev *lsap.Matrix) []float64 {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SolveDetailed(prev)
	if err != nil {
		t.Fatalf("predecessor frame: %v", err)
	}
	warm := make([]float64, prev.N)
	for j, v := range r.Solution.Potentials.V {
		warm[j] = -v
	}
	return warm
}
