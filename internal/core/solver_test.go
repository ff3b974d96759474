package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hunipu/internal/cpuhung"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
)

// testOptions shrinks the device for fast unit tests while keeping the
// Mk2 proportions (6 threads, 624 KiB tiles).
func testOptions() Options {
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 64
	return Options{Config: cfg}
}

func newSolver(t *testing.T, o Options) *Solver {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomIntMatrix(rng *rand.Rand, n, hi int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(hi))
	}
	return m
}

// certifyOptimal proves sol is optimal for m from LP duals: unguarded
// HunIPU does not surface potentials (only guarded solves attest with
// their own device-side duals, see guard.go), so feasible duals are
// borrowed from JV and the weak-duality bound certifies sol's matching
// independently of JV's own (possibly tie-differing) matching.
func certifyOptimal(t *testing.T, m *lsap.Matrix, sol *lsap.Solution) {
	t.Helper()
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatalf("reference dual solve: %v", err)
	}
	if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *ref.Potentials, 1e-9); err != nil {
		t.Fatalf("optimality certificate failed: %v", err)
	}
}

func TestSolveTiny(t *testing.T) {
	m, _ := lsap.FromRows([][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	s := newSolver(t, testOptions())
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 5 {
		t.Fatalf("cost = %g, want 5", sol.Cost)
	}
}

func TestSolveSizeOne(t *testing.T) {
	m, _ := lsap.FromRows([][]float64{{42}})
	s := newSolver(t, testOptions())
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 42 || sol.Assignment[0] != 0 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSolveEmpty(t *testing.T) {
	s := newSolver(t, testOptions())
	sol, err := s.Solve(lsap.NewMatrix(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assignment) != 0 {
		t.Fatal("non-empty assignment")
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newSolver(t, testOptions())
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(7)
		m := randomIntMatrix(rng, n, 30)
		want, err := (lsap.BruteForce{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("trial %d n=%d: cost = %g, want %g", trial, n, got.Cost, want.Cost)
		}
		certifyOptimal(t, m, got)
	}
}

func TestSolveMatchesJVMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newSolver(t, testOptions())
	for _, n := range []int{16, 33, 64} {
		for _, hi := range []int{5, 100, 10 * n} {
			m := randomIntMatrix(rng, n, hi)
			want, err := (cpuhung.JV{}).Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Solve(m)
			if err != nil {
				t.Fatalf("n=%d hi=%d: %v", n, hi, err)
			}
			if err := got.Assignment.Validate(n); err != nil {
				t.Fatalf("n=%d hi=%d: %v", n, hi, err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("n=%d hi=%d: cost = %g, want %g", n, hi, got.Cost, want.Cost)
			}
			// Certificate, not just cost agreement: JV's duals are tight
			// and feasible, so they bound-certify HunIPU's matching too.
			if err := lsap.VerifyOptimal(m, want.Assignment, *want.Potentials, 1e-9); err != nil {
				t.Fatalf("n=%d hi=%d: reference certificate: %v", n, hi, err)
			}
			if err := lsap.VerifyOptimalWithBound(m, got.Assignment, *want.Potentials, 1e-9); err != nil {
				t.Fatalf("n=%d hi=%d: HunIPU certificate: %v", n, hi, err)
			}
		}
	}
}

func TestSolveAllEqualMatrix(t *testing.T) {
	s := newSolver(t, testOptions())
	n := 12
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = 7
	}
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != float64(7*n) {
		t.Fatalf("cost = %g", sol.Cost)
	}
}

func TestSolveAdversarialProducts(t *testing.T) {
	// C[i][j] = (i+1)(j+1): unique optimum is the anti-diagonal.
	s := newSolver(t, testOptions())
	n := 10
	m := lsap.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, float64((i+1)*(j+1)))
		}
	}
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range sol.Assignment {
		if j != n-1-i {
			t.Fatalf("row %d → %d, want %d", i, j, n-1-i)
		}
	}
}

func TestSolveRejectsNonFinite(t *testing.T) {
	s := newSolver(t, testOptions())
	m := lsap.NewMatrix(2)
	m.Set(0, 0, math.Inf(1))
	if _, err := s.Solve(m); err == nil {
		t.Fatal("expected error for +Inf entry")
	}
}

func TestSolveDetailedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newSolver(t, testOptions())
	m := randomIntMatrix(rng, 32, 100)
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Supersteps == 0 || r.Stats.ComputeCycles == 0 {
		t.Fatalf("missing device stats: %+v", r.Stats)
	}
	if r.Modeled <= 0 {
		t.Fatal("modeled time not positive")
	}
	if r.MaxTileBytes <= 0 || r.MaxTileBytes > 624*1024 {
		t.Fatalf("MaxTileBytes = %d", r.MaxTileBytes)
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomIntMatrix(rng, 24, 50)
	s := newSolver(t, testOptions())
	r1, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.TotalCycles() != r2.Stats.TotalCycles() {
		t.Fatalf("cycle counts differ: %d vs %d", r1.Stats.TotalCycles(), r2.Stats.TotalCycles())
	}
	for i := range r1.Solution.Assignment {
		if r1.Solution.Assignment[i] != r2.Solution.Assignment[i] {
			t.Fatal("assignments differ between runs")
		}
	}
}

func TestAblationNoCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	o := testOptions()
	o.DisableCompression = true
	s := newSolver(t, o)
	ref := newSolver(t, testOptions())
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.Intn(25)
		m := randomIntMatrix(rng, n, 10*n)
		got, err := s.Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("trial %d: cost %g vs %g", trial, got.Cost, want.Cost)
		}
	}
}

func TestAblationNoCompressionCostsMoreCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomIntMatrix(rng, 96, 960)
	on := newSolver(t, testOptions())
	o := testOptions()
	o.DisableCompression = true
	off := newSolver(t, o)
	rOn, err := on.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := off.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if rOff.Stats.ComputeCycles <= rOn.Stats.ComputeCycles {
		t.Fatalf("compression should reduce compute: on=%d off=%d",
			rOn.Stats.ComputeCycles, rOff.Stats.ComputeCycles)
	}
}

func TestAblation2D(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	o := testOptions()
	o.Use2D = true
	s := newSolver(t, o)
	m := randomIntMatrix(rng, 20, 60)
	want, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("2D cost = %g, want %g", got.Cost, want.Cost)
	}
}

func TestAblation2DExchangesMore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomIntMatrix(rng, 32, 320)
	s1 := newSolver(t, testOptions())
	o := testOptions()
	o.Use2D = true
	s2 := newSolver(t, o)
	r1, err := s1.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.BytesExchanged <= r1.Stats.BytesExchanged {
		t.Fatalf("2D should exchange more: 1D=%d 2D=%d",
			r1.Stats.BytesExchanged, r2.Stats.BytesExchanged)
	}
}

func TestColSegmentVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randomIntMatrix(rng, 40, 200)
	want, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{8, 16, 32, 64, 128} {
		o := testOptions()
		o.ColSegment = seg
		s := newSolver(t, o)
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("seg=%d: %v", seg, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("seg=%d: cost %g, want %g", seg, got.Cost, want.Cost)
		}
	}
}

func TestThreadsPerRowVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randomIntMatrix(rng, 30, 90)
	want, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{1, 2, 3, 6} {
		o := testOptions()
		o.ThreadsPerRow = th
		s := newSolver(t, o)
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("threads=%d: cost %g, want %g", th, got.Cost, want.Cost)
		}
	}
}

// TestTooManyRowsForDevice: the 2D ablation splits every row group
// over 4 column-block tiles, so a 2-tile chip cannot hold even one
// group and the builder refuses the layout.
func TestTooManyRowsForDevice(t *testing.T) {
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 2
	s := newSolver(t, Options{Config: cfg, Use2D: true})
	m := lsap.NewMatrix(8)
	for i := range m.Data {
		m.Data[i] = float64(i%7 + 1)
	}
	_, err := s.Solve(m)
	if err == nil || !strings.Contains(err.Error(), "needs 4 tiles per chip, a chip has 2") {
		t.Fatalf("err = %v, want the per-chip tile check", err)
	}
}

// Property: HunIPU agrees with JV on random integer matrices of random
// sizes, and the assignment is always a permutation.
func TestSolveProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	s := newSolver(t, testOptions())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		hi := 2 + rng.Intn(20*n)
		m := randomIntMatrix(rng, n, hi)
		want, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			return false
		}
		got, err := s.Solve(m)
		if err != nil {
			return false
		}
		return got.Assignment.Validate(n) == nil && got.Cost == want.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The slack matrix must stay non-negative through every Step-6 update;
// a final solve on a matrix engineered to need many updates checks the
// invariant indirectly through optimality, and directly via re-solve.
func TestManySlackUpdates(t *testing.T) {
	// Distinct large values force repeated augment/update rounds.
	n := 24
	m := lsap.NewMatrix(n)
	v := 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, v)
			v += 3
		}
	}
	s := newSolver(t, testOptions())
	got, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("cost = %g, want %g", got.Cost, want.Cost)
	}
}

func TestSolveProfileBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := testOptions()
	o.Profile = true
	s := newSolver(t, o)
	m := randomIntMatrix(rng, 24, 120)
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profile) == 0 {
		t.Fatal("no profile collected")
	}
	// The profile is the run's: a second solve on the same program
	// reports the same profile, not the sum of both.
	again, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !reflect.DeepEqual(again.Profile, r.Profile) {
		t.Fatalf("second solve (Cached = %v) profile\n%+v\nwant the first's\n%+v", again.Cached, again.Profile, r.Profile)
	}
	names := map[string]bool{}
	for _, p := range r.Profile {
		names[p.Name] = true
		if p.Executions <= 0 {
			t.Fatalf("profile entry %q has no executions", p.Name)
		}
	}
	// The six-step structure must be visible in the breakdown.
	for _, want := range []string{"s4_status", "compress", "s2_resolve", "s6_update"} {
		if !names[want] {
			t.Fatalf("compute set %q missing from profile (have %v)", want, names)
		}
	}
	// Sorted by descending compute.
	for i := 1; i < len(r.Profile); i++ {
		if r.Profile[i].ComputeCycles > r.Profile[i-1].ComputeCycles {
			t.Fatal("profile not sorted by compute cycles")
		}
	}
}

func TestSolveSuperstepBackstop(t *testing.T) {
	o := testOptions()
	o.MaxSupersteps = 10 // far too few to finish
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(1))
	r, err := s.SolveDetailed(randomIntMatrix(rng, 16, 160))
	if err == nil {
		t.Fatal("superstep backstop never triggered")
	}
	// The failed solve still reports what it spent on the device.
	if r == nil || r.Solution != nil || r.Modeled <= 0 {
		t.Fatalf("failed solve returned %+v, want its Result with Modeled > 0 and no Solution", r)
	}
}

func TestSolveTraceWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf bytes.Buffer
	o := testOptions()
	o.TraceWriter = &buf
	s := newSolver(t, o)
	m := randomIntMatrix(rng, 12, 60)
	if _, err := s.Solve(m); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 10 {
		t.Fatalf("trace has only %d events", len(parsed.TraceEvents))
	}
	// The trace is the run's: a second solve on the same program writes
	// the same timeline, not both runs'.
	first := append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if _, err := s.Solve(m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), first) {
		t.Fatalf("second solve wrote a %d-byte trace, want the first's %d bytes", buf.Len(), len(first))
	}
}

func TestSolveFloatMatrixWithEpsilon(t *testing.T) {
	// Real-valued costs: exact zero tests would loop or misscount, the
	// epsilon tolerance handles them.
	rng := rand.New(rand.NewSource(27))
	o := testOptions()
	o.Epsilon = 1e-9
	s := newSolver(t, o)
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(25)
		m := lsap.NewMatrix(n)
		for i := range m.Data {
			m.Data[i] = rng.Float64() * 100
		}
		want, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if err := got.Assignment.Validate(n); err != nil {
			t.Fatal(err)
		}
		if diff := got.Cost - want.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d n=%d: cost %g, want %g", trial, n, got.Cost, want.Cost)
		}
	}
}

func TestOptionsRejectNegativeEpsilon(t *testing.T) {
	o := testOptions()
	o.Epsilon = -1
	if _, err := New(o); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestEngineReuseAcrossSolves(t *testing.T) {
	// The compiled graph is cached per size: the second solve must not
	// recompile, and results stay correct with fresh inputs.
	rng := rand.New(rand.NewSource(31))
	s := newSolver(t, testOptions())
	m1 := randomIntMatrix(rng, 20, 100)
	m2 := randomIntMatrix(rng, 20, 100)
	r1, err := s.SolveDetailed(m1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SolveDetailed(m2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CompileHost > r1.CompileHost/10 && r2.CompileHost > time.Millisecond {
		t.Fatalf("second solve recompiled: %v vs %v", r2.CompileHost, r1.CompileHost)
	}
	for _, pair := range []struct {
		m *lsap.Matrix
		r *Result
	}{{m1, r1}, {m2, r2}} {
		want, err := (cpuhung.JV{}).Solve(pair.m)
		if err != nil {
			t.Fatal(err)
		}
		if pair.r.Solution.Cost != want.Cost {
			t.Fatalf("cached-engine cost %g, want %g", pair.r.Solution.Cost, want.Cost)
		}
	}
	// A different size compiles its own graph and still works.
	m3 := randomIntMatrix(rng, 31, 93)
	r3, err := s.SolveDetailed(m3)
	if err != nil {
		t.Fatal(err)
	}
	want3, _ := (cpuhung.JV{}).Solve(m3)
	if r3.Solution.Cost != want3.Cost {
		t.Fatalf("new-size cost %g, want %g", r3.Solution.Cost, want3.Cost)
	}
}

func TestSolverConcurrentUse(t *testing.T) {
	// Solves serialize on the shared device but must be goroutine-safe.
	s := newSolver(t, testOptions())
	rng := rand.New(rand.NewSource(41))
	mats := make([]*lsap.Matrix, 8)
	wants := make([]float64, len(mats))
	for i := range mats {
		mats[i] = randomIntMatrix(rng, 16, 160)
		w, err := (cpuhung.JV{}).Solve(mats[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w.Cost
	}
	var wg sync.WaitGroup
	errs := make([]error, len(mats))
	for i := range mats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, err := s.Solve(mats[i])
			if err != nil {
				errs[i] = err
				return
			}
			if sol.Cost != wants[i] {
				errs[i] = fmt.Errorf("cost %g, want %g", sol.Cost, wants[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestInvariantsHoldOnRandomSolves checks the final device state of
// each solve's cached program: non-negative slack, stars on zeros and
// consistent star tables.
func TestInvariantsHoldOnRandomSolves(t *testing.T) {
	o := testOptions()
	o.Cache = NewProgramCache(1)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(40)
		sol, err := s.Solve(randomIntMatrix(rng, n, 5+rng.Intn(30*n)))
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		cp, built, err := s.cache.Acquire(s.keyFor(n, 0), func() (*CompiledProgram, error) {
			return nil, fmt.Errorf("no cached program for n=%d", n)
		})
		if err != nil || built {
			t.Fatalf("trial %d n=%d: cached program lookup: built=%v err=%v", trial, n, built, err)
		}
		if err := cp.b.checkInvariants(sol.Assignment); err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
	}
}

func TestSolveZeroMatrix(t *testing.T) {
	// All-zero costs solve in the initial matching with no augmentation.
	n := 18
	m := lsap.NewMatrix(n)
	s := newSolver(t, testOptions())
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solution.Cost != 0 {
		t.Fatalf("cost = %g", r.Solution.Cost)
	}
}

func TestSolveHiddenPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 22
	perm := rng.Perm(n)
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = 5
	}
	for i, j := range perm {
		m.Set(i, j, 1)
	}
	s := newSolver(t, testOptions())
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range sol.Assignment {
		if j != perm[i] {
			t.Fatalf("row %d → %d, want %d", i, j, perm[i])
		}
	}
}

func TestModeledTimeGrowsWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	s := newSolver(t, testOptions())
	var prev time.Duration
	for _, n := range []int{16, 32, 64} {
		r, err := s.SolveDetailed(randomIntMatrix(rng, n, 10*n))
		if err != nil {
			t.Fatal(err)
		}
		if r.Modeled <= prev {
			t.Fatalf("modeled time did not grow: n=%d %v ≤ %v", n, r.Modeled, prev)
		}
		prev = r.Modeled
	}
}

func TestTileMemoryRejection(t *testing.T) {
	// A device with tiny tile SRAM must refuse to compile (C2) — the
	// same mechanism that caps Mk1 below the paper's largest sizes.
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 8
	cfg.TileMemory = 4 * 1024
	s := newSolver(t, Options{Config: cfg})
	m := lsap.NewMatrix(64)
	for i := range m.Data {
		m.Data[i] = float64(i%13 + 1)
	}
	if _, err := s.Solve(m); err == nil {
		t.Fatal("tile-memory overflow not rejected")
	}
}
