package conformance

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hunipu/internal/cpuhung"
	"hunipu/internal/lsap"
)

// TestCrossSolverConformance is the headline check: every registered
// solver, every generator family, every result certified optimal from
// feasible duals and cross-checked against the certified reference
// cost. Run with -race; the per-solver goroutines in Run exercise the
// solvers' internal concurrency.
func TestCrossSolverConformance(t *testing.T) {
	cfg := DefaultConfig()
	if testing.Short() {
		cfg = ShortConfig()
	}
	report, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("conformance table (certified/solves per solver × family):\n%s", report.Table())
	for _, d := range report.Divergences {
		t.Errorf("divergence: %s", d)
	}
	// Every solver must actually have been exercised on every family.
	for _, s := range report.Solvers {
		for _, f := range report.Families {
			c := report.Cells[s+"/"+f]
			if c == nil || c.Solves == 0 {
				t.Errorf("%s never ran on family %s", s, f)
			} else if c.Certified == 0 {
				t.Errorf("%s produced no certified result on family %s", s, f)
			}
		}
	}
}

// TestMetamorphicProperties drives every solver through every
// metamorphic relation on representative adversarial instances.
func TestMetamorphicProperties(t *testing.T) {
	sizes := []int{4, 7, 9}
	if testing.Short() {
		sizes = []int{4, 7}
	}
	baseFamilies := map[string]bool{"uniform": true, "tied": true, "max-flipped": true}
	props := Properties()
	if len(props) < 5 {
		t.Fatalf("only %d metamorphic properties registered, want ≥ 5", len(props))
	}
	ct := NewCertifier()
	jv := cpuhung.JV{}

	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s, err := e.New()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range Families() {
				if !baseFamilies[g.Name] {
					continue
				}
				for _, n := range sizes {
					if e.MaxN > 0 && n > e.MaxN {
						continue
					}
					rng := rand.New(rand.NewSource(int64(n)*100 + 7))
					c := g.Gen(rng, n)
					base, err := jv.Solve(c)
					if err != nil {
						t.Fatal(err)
					}
					if err := ct.Certify(c, base); err != nil {
						t.Fatalf("base certificate %s n=%d: %v", g.Name, n, err)
					}
					for _, p := range props {
						// Pad-dummy can push BruteForce past its size cap.
						if e.MaxN > 0 && p.Name == "pad-dummy" && n+2 > e.MaxN {
							continue
						}
						if err := CheckProperty(s, p, c, base.Cost, ct, rng); err != nil {
							t.Errorf("family %s n=%d: %v", g.Name, n, err)
						}
					}
				}
			}
		})
	}
}

// TestRegistryComplete pins the exact solver set. Dropping a solver
// from the registry (and thereby from all conformance coverage) is
// loud, and so is adding one: a solver stays only if an exhibit or
// ablation times it, a ladder rung serves with it, or it is an oracle
// (DESIGN §5a).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"CPU-JV", "CPU-Munkres", "CPU-Auction",
		"HunIPU", "HunIPU-nocompress", "HunIPU-2D",
		"HunIPU-shard2", "HunIPU-shard4",
		"FastHA", "IPU-Auction", "GPU-Auction", "BruteForce",
	}
	wanted := map[string]bool{}
	for _, name := range want {
		wanted[name] = true
	}
	got := map[string]bool{}
	for _, e := range Registry() {
		got[e.Name] = true
		if !wanted[e.Name] {
			t.Errorf("solver %s registered but not in want: does it earn its place?", e.Name)
		}
		s, err := e.New()
		if err != nil {
			t.Errorf("%s: constructor failed: %v", e.Name, err)
			continue
		}
		if s.Name() != e.Name {
			t.Errorf("registry name %q but solver reports %q", e.Name, s.Name())
		}
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("solver %s missing from registry", name)
		}
	}
	if _, err := Lookup("CPU-JV"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("no-such-solver"); err == nil {
		t.Error("Lookup of unknown solver succeeded")
	}
}

// TestGeneratorsDeterministicAndInteger: same seed ⇒ same matrix, and
// every family emits integers of magnitude at most 2⁵³, which float64
// holds exactly (the exactness contract the auction solvers rely on).
func TestGeneratorsDeterministicAndInteger(t *testing.T) {
	for _, g := range Families() {
		for _, n := range []int{1, 2, 5, 8} {
			a := g.Gen(rand.New(rand.NewSource(42)), n)
			b := g.Gen(rand.New(rand.NewSource(42)), n)
			if a.N != n || b.N != n {
				t.Fatalf("%s: size %d/%d, want %d", g.Name, a.N, b.N, n)
			}
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("%s n=%d: not deterministic at %d", g.Name, n, i)
				}
				v := a.Data[i]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s n=%d: non-finite entry %g", g.Name, n, v)
				}
				if math.Abs(v) > 1<<53 {
					t.Fatalf("%s n=%d: entry %g beyond ±2⁵³, where float64 integers stop being exact", g.Name, n, v)
				}
				if v != math.Trunc(v) {
					t.Fatalf("%s n=%d: non-integer entry %g", g.Name, n, v)
				}
			}
		}
	}
}

// TestOracleRejectsBadSolutions is the oracle's own falsification test:
// corrupted assignments, wrong costs, and suboptimal matchings must all
// fail certification.
func TestOracleRejectsBadSolutions(t *testing.T) {
	c, _ := lsap.FromRows([][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	ct := NewCertifier()
	good, err := (cpuhung.JV{}).Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Certify(c, good); err != nil {
		t.Fatalf("optimal solution rejected: %v", err)
	}

	// Suboptimal matching without potentials: the borrowed-dual bound
	// must reject it.
	bad := &lsap.Solution{Assignment: lsap.Assignment{0, 1, 2}}
	bad.Cost = bad.Assignment.Cost(c)
	if err := ct.Certify(c, bad); err == nil {
		t.Error("suboptimal matching certified")
	}

	// Right matching, lying about the cost.
	lying := &lsap.Solution{Assignment: append(lsap.Assignment(nil), good.Assignment...), Cost: good.Cost - 1}
	if err := ct.Certify(c, lying); err == nil {
		t.Error("mismatched reported cost certified")
	}

	// Not a matching at all.
	invalid := &lsap.Solution{Assignment: lsap.Assignment{0, 0, 0}, Cost: 9}
	if err := ct.Certify(c, invalid); err == nil {
		t.Error("non-matching certified")
	}

	// Own potentials that are infeasible must fail even with an
	// optimal matching.
	forged := &lsap.Solution{
		Assignment: append(lsap.Assignment(nil), good.Assignment...),
		Cost:       good.Cost,
		Potentials: &lsap.Potentials{U: []float64{100, 100, 100}, V: []float64{0, 0, 0}},
	}
	if err := ct.Certify(c, forged); err == nil {
		t.Error("infeasible own-potentials certified")
	}

	if err := ct.Certify(c, nil); err == nil {
		t.Error("nil solution certified")
	}
}

// TestReportTable smoke-checks the divergence table rendering.
func TestReportTable(t *testing.T) {
	r := &Report{
		Solvers:  []string{"A", "Longer-Name"},
		Families: []string{"uniform", "tied"},
		Cells:    map[string]*Cell{},
	}
	r.cell("A", "uniform").Solves = 3
	r.cell("A", "uniform").Certified = 3
	c := r.cell("Longer-Name", "tied")
	c.Solves, c.Certified, c.Divergences = 2, 1, 1
	tab := r.Table()
	for _, want := range []string{"solver", "uniform", "tied", "3/3", "1/2!"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}
