package conformance

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/lsap"
)

// maxFuzzN bounds fuzzed instance sizes: large enough to reach the
// multi-tile and padding paths, small enough for high fuzz throughput.
const maxFuzzN = 12

// fuzzMatrix parses the lsap text format (sharing FuzzReadMatrix's
// corpus shape) and normalises the instance for differential solving:
// sizes capped at maxFuzzN, every entry rounded to an integer and
// clamped to ±10^9 so all solvers — including the ε-scaling auctions —
// are exact.
func fuzzMatrix(in string) (*lsap.Matrix, bool) {
	m, err := lsap.ReadMatrix(strings.NewReader(in))
	if err != nil || m.N == 0 || m.N > maxFuzzN {
		return nil, false
	}
	for i, v := range m.Data {
		if math.IsNaN(v) {
			v = 0
		}
		v = math.Round(v)
		if v > 1e9 {
			v = 1e9
		}
		if v < -1e9 {
			v = -1e9
		}
		m.Data[i] = v
	}
	return m, true
}

// hunipuFuzz is a process-wide HunIPU instance for the fuzz targets:
// the compiled-graph cache is per size, so fuzzing pays compilation
// once per distinct n instead of once per input.
var hunipuFuzz = struct {
	once sync.Once
	s    *core.Solver
	err  error
}{}

func hunipuForFuzz() (*core.Solver, error) {
	hunipuFuzz.once.Do(func() {
		hunipuFuzz.s, hunipuFuzz.err = core.New(core.Options{Config: smallIPU()})
	})
	return hunipuFuzz.s, hunipuFuzz.err
}

// FuzzDifferentialSolve cross-checks the CPU solvers and HunIPU on
// arbitrary parsed matrices: all must agree on the optimal cost, and
// every result must pass the dual-certificate oracle. Seeds reuse the
// FuzzReadMatrix corpus format.
func FuzzDifferentialSolve(f *testing.F) {
	f.Add("2\n1 2\n3 4\n")
	f.Add("3\n2 2 2\n2 2 2\n2 2 2\n")                // total tie degeneracy
	f.Add("3\n1 2 3\n1 2 3\n5 5 5\n")                // degenerate rows
	f.Add("4\n1 1 2 2\n2 1 1 2\n2 2 1 1\n1 2 2 1\n") // many optimal matchings
	f.Add("2\n1000000000 1\n1 1000000000\n")         // near-inf magnitudes
	f.Add("3\n5 6 7\n8 9 10\n11 11 11\n")            // rectangular-padding shape
	f.Add("1\n-7\n")                                 // negative costs
	f.Add("5\n3 1 4 1 5\n9 2 6 5 3\n5 8 9 7 9\n3 2 3 8 4\n6 2 6 4 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, ok := fuzzMatrix(in)
		if !ok {
			return
		}
		ct := NewCertifier()
		ref, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			t.Fatalf("JV failed on fuzzed matrix: %v", err)
		}
		if err := ct.Certify(m, ref); err != nil {
			t.Fatalf("JV certificate: %v", err)
		}
		solvers := []lsap.Solver{cpuhung.Munkres{}, cpuhung.Auction{}}
		if m.N <= lsap.MaxBruteForceN {
			solvers = append(solvers, lsap.BruteForce{})
		}
		if hs, err := hunipuForFuzz(); err == nil {
			solvers = append(solvers, hs)
		}
		for _, s := range solvers {
			sol, err := s.Solve(m.Clone())
			if err != nil {
				t.Fatalf("%s failed where JV succeeded: %v", s.Name(), err)
			}
			if err := ct.Certify(m, sol); err != nil {
				t.Fatalf("%s certificate: %v", s.Name(), err)
			}
			if sol.Cost != ref.Cost {
				t.Fatalf("%s cost %g, JV cost %g", s.Name(), sol.Cost, ref.Cost)
			}
		}
	})
}

// FuzzMetamorphic applies a fuzzer-chosen metamorphic property to a
// fuzzed matrix and checks the cost relation on both a certifying
// solver (JV) and a non-certifying one (Munkres, certified through the
// borrowed-dual bound).
func FuzzMetamorphic(f *testing.F) {
	f.Add("2\n1 2\n3 4\n", uint8(0))
	f.Add("3\n2 2 2\n2 2 2\n2 2 2\n", uint8(3))
	f.Add("4\n1 1 2 2\n2 1 1 2\n2 2 1 1\n1 2 2 1\n", uint8(5))
	f.Add("2\n1000000000 1\n1 1000000000\n", uint8(4))
	f.Add("3\n1 2 3\n1 2 3\n5 5 5\n", uint8(6))
	f.Fuzz(func(t *testing.T, in string, sel uint8) {
		m, ok := fuzzMatrix(in)
		if !ok {
			return
		}
		props := Properties()
		p := props[int(sel)%len(props)]
		ct := NewCertifier()
		base, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			t.Fatalf("JV failed on fuzzed matrix: %v", err)
		}
		if err := ct.Certify(m, base); err != nil {
			t.Fatalf("base certificate: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(sel) + int64(m.N)<<8))
		for _, s := range []lsap.Solver{cpuhung.JV{}, cpuhung.Munkres{}} {
			if err := CheckProperty(s, p, m, base.Cost, ct, rand.New(rand.NewSource(rng.Int63()))); err != nil {
				t.Fatal(err)
			}
		}
	})
}
