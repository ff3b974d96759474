package ipuauction

import (
	"math/rand"
	"testing"

	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
)

// drift returns a copy of m with share of its entries redrawn from
// Gaussian(n, 500, seed): the next frame of a tracking client.
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
	sol, err := s.Solve(prev)
	if err != nil {
		t.Fatalf("predecessor frame: %v", err)
	}
	warm := make([]float64, prev.N)
	for j, v := range sol.Potentials.V {
		warm[j] = -v
	}
	return warm
}

// deviceEps runs s on m and returns its result with the program's ε
// and ε floor tensors as the last run left them.
func deviceEps(t *testing.T, s *Solver, m *lsap.Matrix) (r *Result, eps, floor float64) {
	t.Helper()
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.program(m.N)
	if err != nil {
		t.Fatal(err)
	}
	return r, p.b.eps.ScalarValue(), p.b.epsMin.ScalarValue()
}

// TestWarmStartEndsAtColdEps: a warm bounded run on a drifted frame
// skips the coarse phases but ends at the cold run's final ε, so its
// certificate is as strong, in strictly fewer supersteps.
func TestWarmStartEndsAtColdEps(t *testing.T) {
	for _, n := range []int{32, 64} {
		prev, err := datasets.Gaussian(n, 500, int64(7+n))
		if err != nil {
			t.Fatal(err)
		}
		next := drift(t, prev, 0.02, int64(8+n))
		o := testOptions()
		o.Epsilon = 0.05
		cold, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		rc, coldEps, floor := deviceEps(t, cold, next)
		o.WarmPrices = priorPrices(t, Options{Config: o.Config, Epsilon: o.Epsilon}, prev)
		warm, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		rw, warmEps, _ := deviceEps(t, warm, next)
		if warmEps != coldEps || coldEps >= floor {
			t.Errorf("n=%d: final ε warm %g, cold %g, floor %g; want equal and below the floor", n, warmEps, coldEps, floor)
		}
		if rw.Stats.Supersteps >= rc.Stats.Supersteps {
			t.Errorf("n=%d: warm run took %d supersteps, cold %d; want strictly fewer", n, rw.Stats.Supersteps, rc.Stats.Supersteps)
		}
		if err := lsap.VerifyOptimalWithBound(next, rw.Solution.Assignment, *rw.Solution.Potentials, o.Epsilon); err != nil {
			t.Errorf("n=%d: warm answer uncertified: %v", n, err)
		}
		t.Logf("n=%d: final ε %g (floor %g), supersteps cold %d → warm %d, cycles %d → %d, gap %.4f → %.4f",
			n, coldEps, floor, rc.Stats.Supersteps, rw.Stats.Supersteps, rc.Stats.TotalCycles(), rw.Stats.TotalCycles(), rc.Solution.Gap, rw.Solution.Gap)
	}
}

// TestWarmStartUnderFaults: transient exchange faults placed on the
// auction phases that read or carry ε stay within the retry budget and
// must not change a warm-started bounded run's outcome: checkpoint
// recovery certifies every run within ε of an independent JV optimum,
// with lsap's floor still in eps_min and the warm start in eps_start.
// The small real-valued frames at a tight ε certify in the program's
// one run, at a floor scaled to ε. Random schedules over cold and warm
// frames are conformance.BoundedSweep's.
func TestWarmStartUnderFaults(t *testing.T) {
	type frame struct {
		next *lsap.Matrix
		eps  float64
		warm []float64
	}
	var frames []frame
	// Integer Gaussian frames at the stream's ε, and small real-valued
	// ones at a tight ε.
	for k := 0; k < 2; k++ {
		prev, err := datasets.Gaussian(16, 500, int64(60+k))
		if err != nil {
			t.Fatal(err)
		}
		o := testOptions()
		o.Epsilon = 0.05
		frames = append(frames, frame{next: drift(t, prev, 0.02, int64(70+k)), eps: 0.05, warm: priorPrices(t, o, prev)})
	}
	for k := 0; k < 2; k++ {
		rng := rand.New(rand.NewSource(int64(2 + k)))
		prev := lsap.NewMatrix(10)
		for i := range prev.Data {
			prev.Data[i] = 3 * rng.Float64()
		}
		next := prev.Clone()
		for i := 0; i < 4; i++ {
			next.Data[rng.Intn(len(next.Data))] = 3 * rng.Float64()
		}
		frames = append(frames, frame{next: next, eps: 0.001, warm: priorPrices(t, testOptions(), prev)})
	}

	var schedules []*faultinject.Schedule
	for _, spec := range []string{
		"exchange phase=auc_initeps",
		"exchange phase=auc_bid times=2",
		"exchange phase=auc_epscheck",
		"exchange phase=auc_resolve",
	} {
		fault, err := faultinject.ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		schedules = append(schedules, fault)
	}

	for sched, fault := range schedules {
		f := frames[sched%len(frames)]
		ref, err := (cpuhung.JV{}).Solve(f.next)
		if err != nil {
			t.Fatal(err)
		}
		o := testOptions()
		o.Epsilon, o.WarmPrices, o.MaxRetries, o.Fault = f.eps, f.warm, 2, fault
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveDetailed(f.next)
		if err != nil {
			t.Fatalf("schedule %d (%s): %v", sched, fault, err)
		}
		sol := r.Solution
		if err := lsap.VerifyOptimalWithBound(f.next, sol.Assignment, *sol.Potentials, f.eps); err != nil {
			t.Fatalf("schedule %d (%s): uncertified answer: %v", sched, o.Fault, err)
		}
		if g := lsap.NormalizedGap(sol.Cost, ref.Cost); g > f.eps+1e-12 {
			t.Fatalf("schedule %d (%s): cost %g is %g above the JV optimum %g, want ≤ %g", sched, o.Fault, sol.Cost, g, ref.Cost, f.eps)
		}
		if r.Recovery.Retries == 0 {
			t.Fatalf("schedule %d (%s): certified without a recovery retry (%d fired)", sched, fault, fault.Fired())
		}
		// The program that just served is the cache's most recent entry.
		p, err := s.program(f.next.N)
		if err != nil {
			t.Fatal(err)
		}
		_, maxB, _, _ := s.auction.Prepare(f.next)
		floor := p.b.epsMin.ScalarValue()
		if want := s.auction.Floor(f.next, maxB); floor != want {
			t.Fatalf("schedule %d (%s): eps_min %g after recovery, want lsap's floor %g", sched, fault, floor, want)
		}
		if got, want := p.b.epsStart.ScalarValue(), s.auction.StartEps(maxB, floor); got != want {
			t.Fatalf("schedule %d (%s): eps_start %g after recovery, want the warm start %g", sched, fault, got, want)
		}
	}
}
