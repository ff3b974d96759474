package hunipu

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"hunipu/internal/lsap"
)

func randomCosts(rng *rand.Rand, rows, cols, hi int) [][]float64 {
	costs := make([][]float64, rows)
	for i := range costs {
		costs[i] = make([]float64, cols)
		for j := range costs[i] {
			costs[i][j] = float64(1 + rng.Intn(hi))
		}
	}
	return costs
}

func TestParseQualityRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Quality
	}{
		{"exact", Exact()},
		{" exact ", Exact()},
		{"bounded(0)", Bounded(0)},
		{"bounded(0.05)", Bounded(0.05)},
		{"bounded(1e-3)", Bounded(0.001)},
		{"bounded(2)", Bounded(2)},
	}
	for _, c := range cases {
		got, err := ParseQuality(c.in)
		if err != nil {
			t.Fatalf("ParseQuality(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseQuality(%q) = %v, want %v", c.in, got, c.want)
		}
		back, err := ParseQuality(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip %q -> %q -> %v (%v)", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "exactly", "bounded", "bounded()", "bounded(-1)", "bounded(NaN)", "bounded(Inf)", "bounded(0.05", "approx(0.1)"} {
		if _, err := ParseQuality(bad); !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("ParseQuality(%q) = %v, want ErrInvalidOption", bad, err)
		}
	}
}

// FuzzParseQuality mirrors FuzzParseSchedule: ParseQuality never
// panics, and every accepted spec round-trips through String to the
// identical Quality.
func FuzzParseQuality(f *testing.F) {
	seeds := []string{
		"", "exact", " exact", "bounded(0)", "bounded(0.05)", "bounded(1e-3)",
		"bounded(-0.1)", "bounded(nan)", "bounded(+Inf)", "bounded()", "bounded(",
		"bounded(1))", "bounded(0x1p-2)", "EXACT", "bounded( 0.1 )", "bounded(1e400)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		q, err := ParseQuality(spec)
		if err != nil {
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("ParseQuality(%q): rejection %v does not wrap ErrInvalidOption", spec, err)
			}
			return
		}
		if !q.valid() {
			t.Fatalf("ParseQuality(%q) accepted invalid quality %v", spec, q)
		}
		back, err := ParseQuality(q.String())
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", q.String(), spec, err)
		}
		if back != q {
			t.Fatalf("round trip changed quality: %q -> %v -> %v", spec, q, back)
		}
	})
}

// TestSolveBoundedCertified: the public bounded path delivers on every
// device, reports Quality and a Gap within ε, and the answer's cost is
// within the promised bound of the exact optimum.
func TestSolveBoundedCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, opt := range []Option{OnIPU(), OnGPU(), OnCPU()} {
		for trial := 0; trial < 5; trial++ {
			costs := randomCosts(rng, 12, 12, 500)
			exact, err := Solve(costs, OnCPU())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(costs, opt, WithQuality(Bounded(0.05)))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !res.Quality.IsBounded() || res.Gap > 0.05 {
				t.Fatalf("trial %d: quality %v gap %g", trial, res.Quality, res.Gap)
			}
			if res.Duals == nil {
				t.Fatalf("trial %d: bounded solve returned no duals", trial)
			}
			// Normalized-gap contract, relative to the dual bound that
			// res.Gap was certified against: bound ≥ exact − gap·(1+…).
			if res.Cost < exact.Cost {
				t.Fatalf("trial %d: bounded cost %g below optimum %g", trial, res.Cost, exact.Cost)
			}
			if res.Cost-exact.Cost > 0.05*(1+exact.Cost)+1e-9 {
				t.Fatalf("trial %d: bounded cost %g vs optimum %g breaks ε", trial, res.Cost, exact.Cost)
			}
		}
	}
}

// TestSolveBoundedRealValued: on real-valued costs every device serves
// a bounded request at the requested tier in one attempt, within ε of
// the exact optimum. The schedule ends at a floor scaled to ε; a floor
// held at the integer-exact 1/(n+1) left ε-slackness a gap of up to
// n/(n+1), far above ε·(1+opt), so every port refused such requests.
func TestSolveBoundedRealValued(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{8, 24, 40} {
		costs := make([][]float64, n)
		for i := range costs {
			costs[i] = make([]float64, n)
			for j := range costs[i] {
				costs[i][j] = 3 * rng.Float64()
			}
		}
		exact, err := Solve(costs, OnCPU())
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.001, 0.01} {
			for _, d := range allDevices {
				q := Bounded(eps)
				res, err := Solve(costs, OnDevice(d), WithQuality(q))
				if err != nil {
					t.Fatalf("n=%d %v %v: %v", n, q, d, err)
				}
				if res.Quality != q || len(res.Report.Attempts) != 1 || res.Gap > eps {
					t.Errorf("n=%d %v %v: quality %v, %d attempt(s), gap %g; want %v in one attempt within ε",
						n, q, d, res.Quality, len(res.Report.Attempts), res.Gap, q)
				}
				if g := lsap.NormalizedGap(res.Cost, exact.Cost); res.Cost < exact.Cost-1e-9 || g > eps {
					t.Errorf("n=%d %v %v: cost %g against the optimum %g (normalized gap %g), want within ε",
						n, q, d, res.Cost, exact.Cost, g)
				}
			}
		}
	}
}

// TestSolveBoundedBelowResolution: a bounded ε far below what float64
// prices can resolve ends the auction's schedule at the benefit range's
// resolution, not hundreds of phases below it that only repeat one
// another before the certificate refuses and the exact rung serves.
// With the floor held at ε(1+lb)/n alone, this GPU request spent about
// 100 ms of modeled device time.
func TestSolveBoundedBelowResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := make([][]float64, 64)
	for i := range costs {
		costs[i] = make([]float64, 64)
		for j := range costs[i] {
			costs[i][j] = 3 * rng.Float64()
		}
	}
	exact, err := Solve(costs, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs, OnGPU(), WithQuality(Bounded(5e-324)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-exact.Cost) > 1e-9 {
		t.Fatalf("cost %g, want the optimum %g", res.Cost, exact.Cost)
	}
	if res.Modeled >= 30*time.Millisecond {
		t.Fatalf("Result.Modeled = %v over %d attempt(s), want under 30ms", res.Modeled, len(res.Report.Attempts))
	}
}

// TestSolveBoundedRectangularAndMaximize: the ladder composes with the
// rectangular padding and max→min conversion of the public API.
func TestSolveBoundedRectangularAndMaximize(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	costs := randomCosts(rng, 6, 9, 100)
	res, err := Solve(costs, WithQuality(Bounded(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 6 {
		t.Fatalf("assignment has %d rows", len(res.Assignment))
	}
	exact, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost-exact.Cost > 0.1*(1+exact.Cost)+1e-9 {
		t.Fatalf("rectangular bounded cost %g vs optimum %g", res.Cost, exact.Cost)
	}

	mres, err := Solve(costs, Maximize(), WithQuality(Bounded(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	mexact, err := Solve(costs, Maximize())
	if err != nil {
		t.Fatal(err)
	}
	if mres.Cost > mexact.Cost {
		t.Fatalf("maximize bounded value %g above optimum %g", mres.Cost, mexact.Cost)
	}
}

// TestSolveBoundedZeroEpsilonIsExact: Bounded(0) is the degenerate rung
// that keeps today's exact invariant.
func TestSolveBoundedZeroEpsilonIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	costs := randomCosts(rng, 10, 10, 100)
	res, err := Solve(costs, WithQuality(Bounded(0)))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(costs, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != exact.Cost {
		t.Fatalf("Bounded(0) cost %g ≠ exact %g", res.Cost, exact.Cost)
	}
	if res.Gap != 0 {
		t.Fatalf("Bounded(0) reported gap %g", res.Gap)
	}
}

// TestWarmStartExactPath: Result.Duals round-trips into WithWarmStart;
// the warm re-solve stays optimal and its duals are again a valid
// certificate for the matrix.
func TestWarmStartExactPath(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, opts := range [][]Option{
		{OnIPU(), WithGuard(GuardChecksums)}, // guard-mode graphs maintain duals
		{OnCPU()},
	} {
		costs := randomCosts(rng, 12, 12, 300)
		first, err := Solve(costs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if first.Duals == nil {
			t.Fatal("exact solve returned no duals")
		}
		warm, err := Solve(costs, append(opts, WithWarmStart(first.Duals.U, first.Duals.V))...)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cost != first.Cost {
			t.Fatalf("warm cost %g ≠ cold cost %g", warm.Cost, first.Cost)
		}
		if !warm.Report.Attempts[0].WarmStarted {
			t.Fatal("attempt not marked warm-started")
		}
		m, _ := lsap.FromRows(costs)
		pots := lsap.Potentials{U: warm.Duals.U, V: warm.Duals.V}
		if err := lsap.VerifyOptimal(m, lsap.Assignment(warm.Assignment), pots, 1e-6); err != nil {
			t.Fatalf("translated warm duals are not a certificate: %v", err)
		}
	}
}

// TestWarmStartBoundedPath: warm duals feed the auction prices; a
// stale (perturbed-matrix) prior must still yield a certified answer.
func TestWarmStartBoundedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	costs := randomCosts(rng, 10, 10, 300)
	first, err := Solve(costs, WithQuality(Bounded(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the matrix a little, as a tracking workload would.
	for i := range costs {
		for j := range costs[i] {
			costs[i][j] += float64(rng.Intn(5))
		}
	}
	warm, err := Solve(costs, WithQuality(Bounded(0.05)), WithWarmStart(first.Duals.U, first.Duals.V))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(costs, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost-exact.Cost > 0.05*(1+exact.Cost)+1e-9 {
		t.Fatalf("stale-warm bounded cost %g vs optimum %g breaks ε", warm.Cost, exact.Cost)
	}
	if warm.Gap > 0.05 {
		t.Fatalf("stale-warm gap %g exceeds ε", warm.Gap)
	}
}

// TestWarmBoundedOverflowingRangeEnds: a matrix whose cost range
// overflows float64 (max − min = +Inf), warm-started bounded from an
// ordinary frame's duals, is refused as invalid input on every port
// before any solve starts. It once spun in the host's start rule and
// then, on the IPU, ran to its deadline.
func TestWarmBoundedOverflowingRangeEnds(t *testing.T) {
	prev, err := Solve([][]float64{{4, 1}, {2, 0}}, WithQuality(Bounded(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	costs := [][]float64{{1e308, -1e308}, {0, 0}}
	for _, d := range []Device{DeviceCPU, DeviceGPU, DeviceIPU} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := SolveContext(ctx, costs, OnDevice(d), WithQuality(Bounded(0.05)),
			WithWarmStart(prev.Duals.U, prev.Duals.V))
		cancel()
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%v: err = %v, want ErrInvalidInput", d, err)
		}
	}
}

func TestQualityAndWarmStartValidation(t *testing.T) {
	costs := randomCosts(rand.New(rand.NewSource(56)), 4, 4, 10)
	if _, err := Solve(costs, WithQuality(Bounded(math.NaN()))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("NaN ε: %v", err)
	}
	if _, err := Solve(costs, WithQuality(Bounded(0.1)), WithShards(2)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("bounded+shards: %v", err)
	}
	if _, err := Solve(costs, WithWarmStart([]float64{1}, []float64{1, 2, 3, 4})); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("short warm u: %v", err)
	}
	if _, err := Solve(costs, WithWarmStart([]float64{1, 2, 3, 4}, []float64{math.Inf(1), 0, 0, 0})); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Inf warm v: %v", err)
	}
}

// TestBoundedFallbackChain: bounded quality rides the device ladder —
// a primary that hard-faults degrades to a fallback that still honours
// the same ε.
func TestBoundedFallbackChain(t *testing.T) {
	costs := randomCosts(rand.New(rand.NewSource(57)), 8, 8, 100)
	res, err := Solve(costs,
		WithQuality(Bounded(0.05)),
		WithFaultSchedule("reset at=1"),
		WithFallback(DeviceCPU))
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != DeviceCPU || !res.Report.FellBack {
		t.Fatalf("served by %v, fellback=%v", res.Device, res.Report.FellBack)
	}
	if res.Gap > 0.05 {
		t.Fatalf("fallback gap %g", res.Gap)
	}
	if got := res.Report.Attempts[0].Quality; !got.IsBounded() {
		t.Fatalf("failed attempt recorded quality %v", got)
	}
}

// TestBoundedAttemptReportsRecovery: a bounded IPU attempt that
// survives a transient fault reports the retry and the checkpoint
// restore it took, as an exact attempt does.
func TestBoundedAttemptReportsRecovery(t *testing.T) {
	costs := randomCosts(rand.New(rand.NewSource(58)), 24, 24, 1000)
	for _, q := range []Quality{Exact(), Bounded(0.05)} {
		res, err := Solve(costs, OnIPU(), WithQuality(q),
			WithRecovery(2), WithFaultSchedule("seed=1; exchange at=40"))
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		att := res.Report.Attempts[0]
		if att.Faults != 1 || att.Retries < 1 || att.CheckpointsSaved < 1 || att.CheckpointsRestored < 1 {
			t.Fatalf("%v attempt: faults %d, retries %d, checkpoints saved %d restored %d; want the survived fault's retry and restore",
				q, att.Faults, att.Retries, att.CheckpointsSaved, att.CheckpointsRestored)
		}
	}
}
