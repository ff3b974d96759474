package hunipu

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"hunipu/internal/core"
	"hunipu/internal/lsap"
)

var allDevices = []Device{DeviceCPU, DeviceGPU, DeviceIPU}

// TestOverflowingCostRangeRejected: a matrix whose arithmetic overflows
// float64 is invalid input on every device and tier, refused before a
// solve starts. Each of these once hung a bounded IPU solve, panicked
// the CPU auction, or came back from the GPU auction wrong and
// "certified" at gap 0.
func TestOverflowingCostRangeRejected(t *testing.T) {
	for _, costs := range [][][]float64{
		{{1e308, -1e308}, {0, 0}},
		{{1e308, 86}, {92, -1e308}},
		{{9e307, 0, 5}, {3, -9e307, 7}, {1, 2, 9e307}},
	} {
		for _, d := range allDevices {
			for _, q := range []Quality{Exact(), Bounded(0.05)} {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := SolveContext(ctx, costs, OnDevice(d), WithQuality(q))
				cancel()
				if !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%v %v %v: err = %v, want ErrInvalidInput", costs, d, q, err)
				}
			}
		}
	}
}

// signedInts draws an n×n matrix of integers ±[0, scale) with random
// signs, exact in float64 below 2⁵³.
func signedInts(rng *rand.Rand, n int, scale float64) [][]float64 {
	costs := make([][]float64, n)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			v := math.Floor(rng.Float64() * scale)
			if rng.Intn(2) == 0 {
				v = -v
			}
			costs[i][j] = v
		}
	}
	return costs
}

// TestTinyBidsRaisePrices: on 1e15-scale integer costs an auction bid
// can fall below half an ulp of its price. The price then stayed put
// and the Mk2 auction bid past 10⁷ supersteps on this instance. Every
// port now raises such a price by one ulp, and the instance ends
// certified cold and warm.
func TestTinyBidsRaisePrices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	costs := make([][]float64, 8)
	for i := range costs {
		costs[i] = make([]float64, 8)
		for j := range costs[i] {
			v := float64(rng.Int63n(1e15))
			if rng.Intn(2) == 0 {
				v = -v
			}
			costs[i][j] = v
		}
	}
	ref, err := Solve(costs, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	backstop := WithIPUOptions(core.Options{MaxSupersteps: 100000})
	for _, d := range allDevices {
		cold, err := Solve(costs, OnDevice(d), WithQuality(Bounded(0.05)), backstop)
		if err != nil {
			t.Fatalf("%v cold: %v", d, err)
		}
		warm, err := Solve(costs, OnDevice(d), WithQuality(Bounded(0.05)), backstop,
			WithWarmStart(cold.Duals.U, cold.Duals.V))
		if err != nil {
			t.Fatalf("%v warm: %v", d, err)
		}
		for _, r := range []*Result{cold, warm} {
			if g := lsap.NormalizedGap(r.Cost, ref.Cost); g > 0.05 || r.Gap > 0.05 {
				t.Errorf("%v: cost %g, optimum %g: true gap %g, certified %g", d, r.Cost, ref.Cost, g, r.Gap)
			}
		}
	}
}

// TestUncertifiedBoundedServedExact: a small optimum hidden among huge
// entries leaves the auction's prices at the huge scale, where they
// round the small costs away and no bounded answer can be certified
// within ε. Each of these ended in a typed *lsap.GapError on every
// device (best certified gaps 80 and 93); the ladder now serves them
// at Exact on the same device. The refused run's device time counts:
// on the simulated devices Result.Modeled sums both attempts.
func TestUncertifiedBoundedServedExact(t *testing.T) {
	for _, tc := range []struct {
		costs [][]float64
		opt   float64
	}{
		{[][]float64{{49, 5.118756612462703e+24}, {-3.333543481544804e+24, 31}}, 80},
		{[][]float64{{6, 63}, {30, 6.930513375081903e+302}}, 93},
	} {
		m, err := lsap.FromRows(tc.costs)
		if err != nil {
			t.Fatal(err)
		}
		if bf, err := (lsap.BruteForce{}).Solve(m); err != nil || bf.Cost != tc.opt {
			t.Fatalf("%v: brute force %v, %v; want %g", tc.costs, bf, err, tc.opt)
		}
		for _, d := range allDevices {
			res, err := Solve(tc.costs, OnDevice(d), WithQuality(Bounded(0.05)))
			if err != nil {
				t.Errorf("%v %v: %v", tc.costs, d, err)
				continue
			}
			if res.Cost != tc.opt || res.Quality != Exact() || res.Gap != 0 || res.Device != d {
				t.Errorf("%v %v: cost %g quality %v gap %g device %v, want %g exact 0 %v",
					tc.costs, d, res.Cost, res.Quality, res.Gap, res.Device, tc.opt, d)
			}
			atts := res.Report.Attempts
			var ge *lsap.GapError
			if len(atts) != 2 || !errors.As(atts[0].Err, &ge) || atts[0].Quality != Bounded(0.05) ||
				atts[1].Err != nil || atts[1].Quality != Exact() {
				t.Errorf("%v %v: attempts %+v, want a refused bounded one, then exact", tc.costs, d, atts)
				continue
			}
			if d == DeviceCPU {
				continue
			}
			if sum := atts[0].Modeled + atts[1].Modeled; res.Modeled != sum || res.Modeled <= atts[1].Modeled {
				t.Errorf("%v %v: modeled %v, attempts %v + %v; want their sum, above the exact attempt's",
					tc.costs, d, res.Modeled, atts[0].Modeled, atts[1].Modeled)
			}
		}
	}
}

// TestMagnitudeLadder: from 10³ up to the overflow bound, every device
// and tier ends each run within its ε of brute force or refuses the
// matrix as invalid input, inside a 10⁵-superstep backstop.
func TestMagnitudeLadder(t *testing.T) {
	backstop := WithIPUOptions(core.Options{MaxSupersteps: 100000})
	for _, e := range []int{3, 6, 9, 12, 15, 18, 20, 30, 50, 100, 200, 300, 305, 306} {
		scale := math.Pow(10, float64(e))
		for _, n := range []int{2, 3, 8} {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(int64(100*e+n) + 7919*seed))
				for _, mixed := range []bool{false, true} {
					costs := signedInts(rng, n, scale)
					if mixed {
						for i := range costs {
							costs[i][rng.Intn(n)] = float64(rng.Intn(100))
						}
					}
					ladderRun(t, costs, backstop)
				}
			}
		}
	}
}

// ladderRun solves costs on every device and tier and judges each run
// against brute force.
func ladderRun(t *testing.T, costs [][]float64, backstop Option) {
	t.Helper()
	m, err := lsap.FromRows(costs)
	if err != nil {
		t.Fatal(err)
	}
	opt, optErr := (lsap.BruteForce{}).Solve(m)
	for _, d := range allDevices {
		for _, q := range []Quality{Exact(), Bounded(0.05)} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res, err := SolveContext(ctx, costs, OnDevice(d), WithQuality(q), backstop)
			cancel()
			switch {
			case errors.Is(err, ErrInvalidInput):
			case err != nil:
				t.Errorf("%v %v %v: %v", costs, d, q, err)
			case optErr != nil:
				t.Errorf("%v %v %v: solved a matrix brute force cannot (%v)", costs, d, q, optErr)
			default:
				if g := lsap.NormalizedGap(res.Cost, opt.Cost); g > q.Epsilon()+1e-9 {
					t.Errorf("%v %v %v: cost %g, optimum %g: gap %g", costs, d, q, res.Cost, opt.Cost, g)
				}
			}
		}
	}
}
