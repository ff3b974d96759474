package lsap

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(100))
	}
	return m
}

func TestPriceDualsAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		m := randMatrix(rng, n)
		price := make([]float64, n)
		for j := range price {
			price[j] = rng.NormFloat64() * 50 // garbage prices on purpose
		}
		p := PriceDuals(m, price)
		if err := VerifyFeasiblePotentials(m, p, 1e-9); err != nil {
			t.Fatalf("trial %d: price-derived duals infeasible: %v", trial, err)
		}
	}
}

func TestPriceDualsBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		m := randMatrix(rng, n)
		price := make([]float64, n)
		for j := range price {
			price[j] = rng.Float64() * 20
		}
		bound := PriceDuals(m, price).DualObjective()
		ref, err := (BruteForce{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		if bound > ref.Cost+1e-9 {
			t.Fatalf("trial %d: dual bound %g exceeds optimum %g", trial, bound, ref.Cost)
		}
	}
}

func TestClampFeasibleRepairsAnyPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		m := randMatrix(rng, n)
		prior := Potentials{U: make([]float64, n), V: make([]float64, n)}
		for i := range prior.U {
			prior.U[i] = rng.NormFloat64() * 200 // wildly infeasible priors
			prior.V[i] = rng.NormFloat64() * 200
		}
		p, err := ClampFeasible(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasiblePotentials(m, p, 1e-9); err != nil {
			t.Fatalf("trial %d: clamped potentials infeasible: %v", trial, err)
		}
		// Clamping only ever lowers u.
		for i := range p.U {
			if p.U[i] > prior.U[i]+1e-12 {
				t.Fatalf("trial %d: u[%d] raised from %g to %g", trial, i, prior.U[i], p.U[i])
			}
		}
	}
}

func TestClampFeasibleKeepsExactCertificate(t *testing.T) {
	// A genuine optimal dual certificate must survive clamping intact:
	// re-solving with it as a warm start then loses nothing.
	m, _ := FromRows([][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	prior := Potentials{U: []float64{3, 2, 3}, V: []float64{0, -2, -1}}
	if err := VerifyOptimalWithBound(m, Assignment{1, 0, 2}, prior, 1e-9); err != nil {
		t.Fatalf("test fixture is not a certificate: %v", err)
	}
	p, err := ClampFeasible(m, prior)
	if err != nil {
		t.Fatal(err)
	}
	if p.DualObjective() < prior.DualObjective()-1e-9 {
		t.Fatalf("clamping weakened an already-feasible certificate: %g < %g",
			p.DualObjective(), prior.DualObjective())
	}
}

func TestClampFeasibleRejectsBadPriors(t *testing.T) {
	m := NewMatrix(2)
	if _, err := ClampFeasible(m, Potentials{U: []float64{1}, V: []float64{0, 0}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ClampFeasible(m, Potentials{U: []float64{math.NaN(), 0}, V: []float64{0, 0}}); err == nil {
		t.Fatal("NaN prior accepted")
	}
	if _, err := ClampFeasible(m, Potentials{U: []float64{0, 0}, V: []float64{math.Inf(1), 0}}); err == nil {
		t.Fatal("Inf prior accepted")
	}
}

func TestNormalizedGap(t *testing.T) {
	if g := NormalizedGap(10, 10); g != 0 {
		t.Fatalf("tight gap = %g, want 0", g)
	}
	if g := NormalizedGap(9, 10); g != 0 {
		t.Fatalf("below-bound gap = %g, want 0 (clamped)", g)
	}
	if g := NormalizedGap(12, 10); math.Abs(g-2.0/11) > 1e-12 {
		t.Fatalf("gap = %g, want %g", g, 2.0/11)
	}
	if g := NormalizedGap(178, math.Inf(1)); !math.IsInf(g, 1) {
		t.Fatalf("gap against an infinite bound = %g, want +Inf", g)
	}
}

// TestBoundSummedAlongMatching: potentials near 1e100 that certify a
// matching costing 195 cancel to noise in Σu + Σv (3.9e84 here); the
// bound summed along the matching keeps its precision and refuses the
// matching, whose optimum is 176.
func TestBoundSummedAlongMatching(t *testing.T) {
	m, err := FromRows([][]float64{
		{4.561762187747854e+99, 31, 8},
		{88, 6.650058750349893e+99, 5.634144750713216e+99},
		{6.188487526699514e+99, 80, 76},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Potentials{
		U: []float64{8.86674500046653e+99, 1.4500889751179744e+100, 8.86674500046653e+99},
		V: []float64{-1.4500889751179744e+100, -8.86674500046653e+99, -8.86674500046653e+99},
	}
	a := Assignment{1, 0, 2} // cost 31+88+76 = 195
	if b := p.DualObjective(); b < 195 {
		t.Fatalf("Σu + Σv = %g no longer cancels above the cost; pick new potentials", b)
	}
	if err := VerifyOptimalWithBound(m, a, p, 0.05); err == nil {
		t.Fatal("a matching 11% above the optimum was certified within 0.05")
	}
}

// TestVerifiersRejectNonFinite: NaN compares false with everything, so
// a NaN or infinite potential could pass every edge check and the
// bound check. An overflowed auction once certified a wrong answer at
// gap 0 with U = [+Inf, +Inf] and V = [−Inf, −Inf]; both verifiers
// must refuse such certificates.
func TestVerifiersRejectNonFinite(t *testing.T) {
	m, err := FromRows([][]float64{{4, 1}, {2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	a := Assignment{1, 0}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		p    Potentials
	}{
		{"NaN u", Potentials{U: []float64{nan, 0}, V: []float64{0, 0}}},
		{"NaN v", Potentials{U: []float64{0, 0}, V: []float64{0, nan}}},
		{"+Inf u, −Inf v", Potentials{U: []float64{inf, inf}, V: []float64{-inf, -inf}}},
		{"−Inf u", Potentials{U: []float64{-inf, 0}, V: []float64{0, 0}}},
		{"+Inf v", Potentials{U: []float64{0, 0}, V: []float64{inf, 0}}},
	} {
		if err := VerifyFeasiblePotentials(m, tc.p, 1e-9); err == nil {
			t.Errorf("%s: VerifyFeasiblePotentials accepted %v", tc.name, tc.p)
		}
		if err := VerifyOptimalWithBound(m, a, tc.p, 0.05); err == nil {
			t.Errorf("%s: VerifyOptimalWithBound accepted %v", tc.name, tc.p)
		}
	}
	// Finite, feasible potentials whose matched sums overflow leave no
	// finite bound.
	p := Potentials{U: []float64{-math.MaxFloat64, -math.MaxFloat64}, V: []float64{-math.MaxFloat64, -math.MaxFloat64}}
	if err := VerifyFeasiblePotentials(m, p, 1e-9); err != nil {
		t.Fatalf("feasible finite potentials rejected: %v", err)
	}
	if err := VerifyOptimalWithBound(m, a, p, 0.05); err == nil {
		t.Errorf("VerifyOptimalWithBound accepted an overflowed bound")
	}
}

func TestGapErrorTyped(t *testing.T) {
	var err error = &GapError{Solver: "X", Epsilon: 0.01, Gap: 0.5}
	var ge *GapError
	if !errors.As(err, &ge) || ge.Epsilon != 0.01 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if ge.Error() == "" {
		t.Fatal("empty message")
	}
}
