package lsap

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAssignmentValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Assignment
		n    int
		ok   bool
	}{
		{"identity", Assignment{0, 1, 2}, 3, true},
		{"permutation", Assignment{2, 0, 1}, 3, true},
		{"empty", Assignment{}, 0, true},
		{"wrong length", Assignment{0, 1}, 3, false},
		{"duplicate column", Assignment{0, 0, 1}, 3, false},
		{"out of range high", Assignment{0, 1, 3}, 3, false},
		{"out of range negative", Assignment{0, -1, 2}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.a.Validate(tc.n)
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%v, %d) error = %v, want ok=%v", tc.a, tc.n, err, tc.ok)
			}
		})
	}
}

func TestAssignmentCost(t *testing.T) {
	m, err := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Assignment{2, 1, 0}.Cost(m)
	if got != 3+5+7 {
		t.Fatalf("cost = %g, want 15", got)
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(7)
	for i := range m.Data {
		m.Data[i] = math.Floor(rng.Float64() * 1000)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != m.N {
		t.Fatalf("size = %d, want %d", got.N, m.N)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("entry %d = %g, want %g", i, got.Data[i], m.Data[i])
		}
	}
}

func TestReadMatrixErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"abc\n",
		"0\n",
		"2\n1 2\n",
		"2\n1 2 3\n4 5 6\n",
		"2\n1 x\n3 4\n",
	} {
		if _, err := ReadMatrix(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadMatrix(%q) succeeded, want error", in)
		}
	}
}

func TestPadToPow2(t *testing.T) {
	m := NewMatrix(5)
	for i := range m.Data {
		m.Data[i] = 1
	}
	p := m.PadToPow2(0)
	if p.N != 8 {
		t.Fatalf("padded size = %d, want 8", p.N)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if i < 5 && j < 5 {
				want = 1
			}
			if p.At(i, j) != want {
				t.Fatalf("padded (%d,%d) = %g, want %g", i, j, p.At(i, j), want)
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 512: 512, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestUnpad(t *testing.T) {
	a := Assignment{3, 0, 1, 2} // computed on padded 4×4, original n=3
	got := Unpad(a, 3)
	want := Assignment{-1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Unpad = %v, want %v", got, want)
		}
	}
}

func TestNegate(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 5}, {3, 2}})
	neg := m.Negate()
	want := [][]float64{{4, 0}, {2, 3}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if neg.At(i, j) != want[i][j] {
				t.Fatalf("Negate (%d,%d) = %g, want %g", i, j, neg.At(i, j), want[i][j])
			}
		}
	}
}

func TestBruteForceKnown(t *testing.T) {
	m, _ := FromRows([][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	sol, err := (BruteForce{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 5 { // 1 + 2 + 2
		t.Fatalf("cost = %g, want 5", sol.Cost)
	}
	if err := sol.Assignment.Validate(3); err != nil {
		t.Fatal(err)
	}
}

// TestBruteForceNegativeCosts is a fuzz-found regression: pruning on
// the bare partial cost discarded prefixes that negative later edges
// would have turned into the optimum.
func TestBruteForceNegativeCosts(t *testing.T) {
	m, _ := FromRows([][]float64{
		{0, 0, 0},
		{0, 0, -1},
		{0, -7, -1},
	})
	sol, err := (BruteForce{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != -8 { // 0 + (-1) + (-7)
		t.Fatalf("cost = %g, want -8", sol.Cost)
	}
	if err := sol.Assignment.Validate(3); err != nil {
		t.Fatal(err)
	}
}

// TestBruteForceRejectsNonFinite: the oracle refuses a matrix with an
// infinite or NaN entry, and one whose every matching overflows to
// +Inf. Comparisons cannot rank such costs, so any matching it
// returned would be unchecked.
func TestBruteForceRejectsNonFinite(t *testing.T) {
	for _, rows := range [][][]float64{
		{{math.Inf(1), 1}, {math.Inf(1), 2}},
		{{1e308, 1e308}, {1e308, 1e308}},
		{{math.NaN(), 1}, {2, 3}},
	} {
		m, _ := FromRows(rows)
		if sol, err := (BruteForce{}).Solve(m); err == nil {
			t.Fatalf("%v: accepted, assignment %v at cost %g", rows, sol.Assignment, sol.Cost)
		}
	}
}

func TestBruteForceSizeLimit(t *testing.T) {
	if _, err := (BruteForce{}).Solve(NewMatrix(MaxBruteForceN + 1)); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestVerifyOptimalAcceptsCertificate(t *testing.T) {
	// C = [[2,3],[3,5]]; optimal matching is (0→1, 1→0) with cost 6.
	m, _ := FromRows([][]float64{{2, 3}, {3, 5}})
	a := Assignment{1, 0}
	p := Potentials{U: []float64{3, 3}, V: []float64{0, 0}}
	// u+v: row0 = 3 ≤ C00=2? No — infeasible certificate must be rejected.
	if err := VerifyOptimal(m, a, p, 1e-9); err == nil {
		t.Fatal("accepted infeasible potentials")
	}
	// A feasible, tight certificate.
	p = Potentials{U: []float64{3, 3}, V: []float64{0, 0}}
	p.U = []float64{0, 0}
	p.V = []float64{3, 3}
	// u+v = 3 > C00 = 2 → still infeasible; construct the real one:
	// u = [1, 3], v = [0, 2]: checks 1≤2, 3≤3*, 3≤3*, 5≤5.
	p = Potentials{U: []float64{1, 3}, V: []float64{0, 2}}
	if err := VerifyOptimal(m, a, p, 1e-9); err != nil {
		t.Fatalf("rejected valid certificate: %v", err)
	}
}

func TestVerifyOptimalRejectsLooseMatch(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 3}, {3, 5}})
	a := Assignment{0, 1} // suboptimal matching, cost 7
	p := Potentials{U: []float64{1, 3}, V: []float64{0, 2}}
	if err := VerifyOptimal(m, a, p, 1e-9); err == nil {
		t.Fatal("accepted non-tight matched edge")
	}
}

// Property: brute force output is always a valid perfect matching, and no
// permutation sampled at random beats it.
func TestBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := NewMatrix(n)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(100))
		}
		sol, err := (BruteForce{}).Solve(m)
		if err != nil || sol.Assignment.Validate(n) != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(n)
			if Assignment(perm).Cost(m) < sol.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMatrixSizeCap(t *testing.T) {
	// A hostile size header must not trigger an n² allocation.
	if _, err := ReadMatrix(bytes.NewBufferString("3000000\n0\n")); err == nil {
		t.Fatal("oversized header accepted")
	}
}
