package hunipu

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"hunipu/internal/faultinject"
)

// testCosts draws a deterministic dense instance large enough that the
// solve spans many supersteps (so mid-run faults have somewhere to
// land) while staying fast.
func testCosts(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	costs := make([][]float64, n)
	for i := range costs {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(rng.Intn(1000))
		}
		costs[i] = row
	}
	return costs
}

func TestSolveContextMatchesSolve(t *testing.T) {
	costs := testCosts(16, 1)
	want, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveContext(context.Background(), costs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("SolveContext cost = %g, Solve cost = %g", got.Cost, want.Cost)
	}
	if got.Report == nil || got.Report.Served != DeviceIPU || got.Report.FellBack {
		t.Fatalf("unexpected report for clean solve: %+v", got.Report)
	}
}

// TestTransientFaultSurvived is the ISSUE acceptance scenario: a
// transient exchange corruption mid-solve, recovery enabled, and the
// answer must equal the fault-free optimum with Retries > 0.
func TestTransientFaultSurvived(t *testing.T) {
	costs := testCosts(16, 2)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs,
		WithFaultSchedule("seed=3; exchange after=5 every=1 times=1 phase=s1_*"),
		WithRecovery(3),
	)
	if err != nil {
		t.Fatalf("solve did not survive transient fault: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("recovered cost = %g, fault-free cost = %g", res.Cost, clean.Cost)
	}
	if res.Report == nil {
		t.Fatal("Result.Report missing")
	}
	if got := res.Report.Retries(); got == 0 {
		t.Fatalf("Report.Retries() = 0, want > 0 (fault should have fired)")
	}
	if res.Report.FellBack {
		t.Fatalf("transient fault must not trigger fallback: %+v", res.Report)
	}
	att := res.Report.Attempts[0]
	if att.Faults == 0 || att.CheckpointsRestored == 0 {
		t.Fatalf("attempt = %+v, want injected fault and checkpoint restore", att)
	}
}

// TestHardFaultFallsBackToGPU is the second acceptance scenario: a
// device reset kills every IPU retry, and WithFallback(DeviceGPU,
// DeviceCPU) serves the correct answer from the GPU with the
// degradation recorded in the Report. The reset fires either at once,
// recurring in IPU phases, or late in the run, once the IPU attempt
// has spent device time and taken checkpoints that its report must
// still show.
func TestHardFaultFallsBackToGPU(t *testing.T) {
	late, err := faultinject.ParseSchedule("reset at=200")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		costs [][]float64
		fault Option
		late  bool
	}{
		{"recurring in step 1", testCosts(16, 3), WithFaultSchedule("reset every=1 times=-1 phase=s1_*"), false},
		{"at superstep 200", testCosts(32, 3), WithInjector(DeviceIPU, late), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := Solve(tc.costs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(tc.costs, tc.fault, WithRecovery(2), WithFallback(DeviceGPU, DeviceCPU))
			if err != nil {
				t.Fatalf("fallback chain did not rescue the solve: %v", err)
			}
			if res.Cost != clean.Cost {
				t.Fatalf("fallback cost = %g, fault-free cost = %g", res.Cost, clean.Cost)
			}
			r := res.Report
			if r == nil || !r.FellBack || r.Served != DeviceGPU || r.Primary != DeviceIPU {
				t.Fatalf("report = %+v, want fallback served by GPU", r)
			}
			if res.Device != DeviceGPU {
				t.Fatalf("Result.Device = %v, want GPU", res.Device)
			}
			if len(r.Attempts) != 2 {
				t.Fatalf("attempts = %d, want 2 (IPU fail, GPU serve)", len(r.Attempts))
			}
			ipuAtt := r.Attempts[0]
			if ipuAtt.Device != DeviceIPU || ipuAtt.Err == nil {
				t.Fatalf("first attempt = %+v, want failed IPU", ipuAtt)
			}
			var fe *faultinject.FaultError
			if !errors.As(ipuAtt.Err, &fe) || fe.Class != faultinject.DeviceReset {
				t.Fatalf("IPU attempt error = %v, want DeviceReset fault", ipuAtt.Err)
			}
			if ipuAtt.Faults == 0 {
				t.Fatalf("IPU attempt records no injected faults: %+v", ipuAtt)
			}
			if tc.late && (ipuAtt.Modeled <= 0 || ipuAtt.CheckpointsSaved == 0) {
				t.Fatalf("failed IPU attempt reports Modeled %v and %d checkpoints saved, want both > 0", ipuAtt.Modeled, ipuAtt.CheckpointsSaved)
			}
			if gpuAtt := r.Attempts[1]; gpuAtt.Device != DeviceGPU || gpuAtt.Err != nil {
				t.Fatalf("second attempt = %+v, want clean GPU serve", gpuAtt)
			}
			if sum := ipuAtt.Modeled + r.Attempts[1].Modeled; res.Modeled != sum {
				t.Fatalf("Result.Modeled = %v, want the attempts' sum %v", res.Modeled, sum)
			}
		})
	}
}

// TestHardFaultFallsBackToCPU: an unrestricted recurring reset takes
// down both simulated devices; the native CPU solver (never injected)
// is the last line of defence.
func TestHardFaultFallsBackToCPU(t *testing.T) {
	costs := testCosts(16, 4)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs,
		WithFaultSchedule("reset every=1 times=-1"),
		WithFallback(DeviceGPU, DeviceCPU),
	)
	if err != nil {
		t.Fatalf("CPU fallback did not rescue the solve: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("fallback cost = %g, fault-free cost = %g", res.Cost, clean.Cost)
	}
	r := res.Report
	if r.Served != DeviceCPU || len(r.Attempts) != 3 {
		t.Fatalf("report = %+v, want 3 attempts served by CPU", r)
	}
	for _, att := range r.Attempts[:2] {
		if att.Err == nil {
			t.Fatalf("attempt %+v should have failed", att)
		}
	}
}

// TestExhaustedChainReturnsTypedError: when every device in the chain
// fails, the last typed fault comes back rather than a nil result.
func TestExhaustedChainReturnsTypedError(t *testing.T) {
	_, err := Solve(testCosts(8, 5),
		WithFaultSchedule("reset every=1 times=-1"),
		WithFallback(DeviceGPU),
	)
	if err == nil {
		t.Fatal("want error when every device in the chain faults")
	}
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a typed *faultinject.FaultError", err)
	}
}

// TestCancellationNotMaskedByFallback: ctx expiry is the caller's
// decision; the chain must not degrade past it.
func TestCancellationNotMaskedByFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, testCosts(16, 6),
		WithFallback(DeviceGPU, DeviceCPU),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (no fallback on cancellation)", err)
	}
}

func TestSolveContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, testCosts(16, 7), WithFallback(DeviceCPU))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestWithFaultScheduleParseError(t *testing.T) {
	_, err := Solve(testCosts(4, 8), WithFaultSchedule("flux_capacitor at=3"))
	if err == nil {
		t.Fatal("want parse error for unknown fault class")
	}
}

// TestFaultScheduleClonePerDevice: a one-shot rule consumed by the
// primary attempt must fire again on the fallback, because each device
// gets a fresh clone of the schedule.
func TestFaultScheduleClonePerDevice(t *testing.T) {
	res, err := Solve(testCosts(16, 9),
		// Fires on any device's first superstep; fatal, no recovery.
		WithFaultSchedule("reset every=1 times=1"),
		WithFallback(DeviceGPU, DeviceCPU),
	)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Served != DeviceCPU {
		t.Fatalf("served = %v, want CPU (one-shot must refire on GPU clone)", r.Served)
	}
	for _, att := range r.Attempts[:2] {
		if att.Faults != 1 {
			t.Fatalf("attempt %v fired %d faults, want exactly 1 from its own clone", att.Device, att.Faults)
		}
	}
}

// TestOptionValidation: malformed reliability options must surface a
// typed error from Solve/SolveContext, never be silently accepted.
func TestOptionValidation(t *testing.T) {
	costs := testCosts(4, 20)
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative retries", []Option{WithRecovery(-1)}},
		{"duplicate fallback", []Option{WithFallback(DeviceGPU, DeviceGPU)}},
		{"fallback repeats primary", []Option{OnGPU(), WithFallback(DeviceCPU, DeviceGPU)}},
		{"duplicate across calls", []Option{WithFallback(DeviceGPU), WithFallback(DeviceGPU)}},
		{"unknown fallback device", []Option{WithFallback(Device(42))}},
		{"unknown primary device", []Option{OnDevice(Device(7))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Solve(costs, tc.opts...)
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
		})
	}
	// The happy path must stay accepted.
	if _, err := Solve(costs, WithRecovery(0), WithFallback(DeviceGPU, DeviceCPU)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestChainErrorCarriesReport: a fully failed chain returns a
// *ChainError whose Report lists every attempt — the signal a serving
// layer's circuit breakers consume.
func TestChainErrorCarriesReport(t *testing.T) {
	_, err := Solve(testCosts(8, 21),
		WithFaultSchedule("reset every=1 times=-1"),
		WithFallback(DeviceGPU),
	)
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChainError", err)
	}
	if len(ce.Report.Attempts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(ce.Report.Attempts))
	}
	for _, att := range ce.Report.Attempts {
		if att.Err == nil {
			t.Fatalf("attempt %+v should carry its failure", att)
		}
	}
}

// TestSharedInjectorDrainsAcrossSolves: WithInjector shares one
// stateful schedule across solves (no per-attempt clone), so a
// times-bounded fault budget drains with traffic — the mechanism a
// serving layer uses to model a sick device that later recovers.
func TestSharedInjectorDrainsAcrossSolves(t *testing.T) {
	costs := testCosts(16, 22)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultinject.NewSchedule(1, faultinject.Rule{
		Class: faultinject.DeviceReset, At: -1, Every: 1, Times: 2,
	})
	inj := WithInjector(DeviceIPU, sched)
	for i := 0; i < 2; i++ {
		res, err := Solve(costs, inj, WithFallback(DeviceCPU))
		if err != nil || res.Report.Served != DeviceCPU {
			t.Fatalf("solve %d: err=%v served=%v, want CPU fallback", i, err, res.Report.Served)
		}
	}
	// Budget exhausted: the IPU serves again.
	res, err := Solve(costs, inj, WithFallback(DeviceCPU))
	if err != nil || res.Report.Served != DeviceIPU {
		t.Fatalf("post-drain: err=%v report=%+v, want IPU serve", err, res.Report)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("post-drain cost = %g, want %g", res.Cost, clean.Cost)
	}
}

// TestAttemptWallAndDetail: attempts record wall time, and successful
// simulated-device attempts expose their device profile.
func TestAttemptWallAndDetail(t *testing.T) {
	res, err := Solve(testCosts(16, 23))
	if err != nil {
		t.Fatal(err)
	}
	att := res.Report.Attempts[0]
	if att.Wall <= 0 {
		t.Fatalf("attempt wall = %v, want > 0", att.Wall)
	}
	if att.IPUDetail == nil || att.IPUDetail.Stats.Supersteps == 0 {
		t.Fatalf("IPU attempt detail missing: %+v", att.IPUDetail)
	}
	res, err = Solve(testCosts(16, 23), OnGPU())
	if err != nil {
		t.Fatal(err)
	}
	if att := res.Report.Attempts[0]; att.GPUDetail == nil || att.GPUDetail.Stats.Kernels == 0 {
		t.Fatalf("GPU attempt detail missing: %+v", att.GPUDetail)
	}
}

// TestValidationSharedAcrossEntryPoints: a front end that refuses with
// ValidateCosts refuses exactly what Solve would.
func TestValidationSharedAcrossEntryPoints(t *testing.T) {
	for _, bad := range [][][]float64{{{1, 2}, {3, math.Inf(1)}}, {{1, 2}, {3}}} {
		if _, err := Solve(bad); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Solve(%v) = %v, want ErrInvalidInput", bad, err)
		}
		if err := ValidateCosts(bad); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("ValidateCosts(%v) = %v, want ErrInvalidInput", bad, err)
		}
	}
}
