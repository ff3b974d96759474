package hunipu_test

// Concurrency conformance for the public reliability API: many
// simultaneous SolveContext calls across mixed devices, fault
// schedules, recovery, fallback, and mid-flight cancellation must not
// interfere with each other — every request gets the optimal answer
// for ITS matrix or a clean cancellation error — and must not strand
// goroutines. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hunipu"
	"hunipu/internal/conformance"
)

// lcgMatrix generates a deterministic n×n matrix unique to seed, so
// concurrent requests can each carry their own expected answer.
func lcgMatrix(n int, seed uint64) [][]float64 {
	s := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>33%1000) + 1
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = next()
		}
	}
	return m
}

func TestConcurrentSolveContextNoInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak")
	}
	before := runtime.NumGoroutine()

	const requests = 48
	sizes := []int{8, 13, 32}

	// Precompute each request's ground truth serially on the CPU
	// solver: distinct matrices mean a cross-request mixup cannot
	// produce a matching cost by accident.
	type job struct {
		costs [][]float64
		want  float64
	}
	jobs := make([]job, requests)
	for i := range jobs {
		costs := lcgMatrix(sizes[i%len(sizes)], uint64(i)+1)
		ref, err := hunipu.Solve(costs, hunipu.OnCPU())
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		jobs[i] = job{costs: costs, want: ref.Cost}
	}

	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runOne(i, jobs[i].costs, jobs[i].want)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	conformance.CheckNoLeak(t, before)
}

// ladderExcluding builds a fallback chain of every device except the
// primary, so the rotating scenarios never duplicate a chain entry.
func ladderExcluding(primary hunipu.Device) []hunipu.Device {
	var out []hunipu.Device
	for _, d := range []hunipu.Device{hunipu.DeviceGPU, hunipu.DeviceCPU, hunipu.DeviceIPU} {
		if d != primary {
			out = append(out, d)
		}
	}
	return out
}

// runOne drives one concurrent request through a scenario chosen by
// its index and checks the outcome against that request's own truth.
func runOne(i int, costs [][]float64, want float64) error {
	ctx := context.Background()
	primary := hunipu.Device(i % 3)
	opts := []hunipu.Option{hunipu.OnDevice(primary)}
	cancelled := false

	switch i % 5 {
	case 0: // plain solve on the rotating device
	case 1: // transient faults healed by checkpoint recovery (IPU-only feature)
		opts = []hunipu.Option{
			hunipu.OnIPU(),
			hunipu.WithFaultSchedule(fmt.Sprintf("seed=%d; exchange every=3 p=0.5 times=2", i)),
			hunipu.WithRecovery(4),
		}
	case 2: // hard resets pushed down the fallback ladder
		opts = append(opts,
			hunipu.WithFaultSchedule("reset every=1 times=1"),
			hunipu.WithFallback(ladderExcluding(primary)...))
	case 3: // cancelled mid-flight
		cancelled = true
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		go func() {
			time.Sleep(time.Duration(50+i*20) * time.Microsecond)
			cancel()
		}()
	case 4: // recovery AND fallback layered together
		opts = append(opts,
			hunipu.WithFaultSchedule(fmt.Sprintf("seed=%d; memory every=5 p=0.3 times=3", i)),
			hunipu.WithRecovery(2),
			hunipu.WithFallback(ladderExcluding(primary)...))
	}

	res, err := hunipu.SolveContext(ctx, costs, opts...)
	if err != nil {
		if cancelled && errors.Is(err, context.Canceled) {
			return nil // clean cancellation is a valid outcome
		}
		return fmt.Errorf("unexpected error: %w", err)
	}
	if math.Abs(res.Cost-want) > 1e-9 {
		return fmt.Errorf("cost = %g, want %g (cross-request interference?)", res.Cost, want)
	}
	if len(res.Assignment) != len(costs) {
		return fmt.Errorf("assignment len = %d, want %d", len(res.Assignment), len(costs))
	}
	return nil
}

// TestConcurrentSharedScheduleIsolated: two goroutines using the SAME
// schedule string must each get an independent clone — one request's
// fault budget must not be consumed by the other.
func TestConcurrentSharedScheduleIsolated(t *testing.T) {
	costs := lcgMatrix(8, 7)
	ref, err := hunipu.Solve(costs, hunipu.OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := hunipu.SolveContext(context.Background(), costs,
				hunipu.WithFaultSchedule("exchange every=2 times=1"),
				hunipu.WithRecovery(2))
			if err != nil {
				t.Errorf("solve: %v", err)
				return
			}
			if res.Cost != ref.Cost {
				t.Errorf("cost = %g, want %g", res.Cost, ref.Cost)
			}
			if res.Report.Retries() == 0 {
				t.Error("schedule did not fire: clone isolation broken?")
			}
		}()
	}
	wg.Wait()
}
