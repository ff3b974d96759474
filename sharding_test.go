package hunipu

import (
	"errors"
	"testing"

	"hunipu/internal/core"
)

// TestShardedSolveMatchesSingleDevice pins the public sharded path:
// WithShards(k) must return the same optimum as the default
// single-device solve, with the Report routed through the fabric.
func TestShardedSolveMatchesSingleDevice(t *testing.T) {
	costs := testCosts(24, 5)
	want, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		got, err := Solve(costs, WithShards(k))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", k, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("WithShards(%d) cost = %g, single-device cost = %g", k, got.Cost, want.Cost)
		}
		att := got.Report.Attempts[0]
		if att.ShardDetail == nil {
			t.Fatalf("WithShards(%d): Attempt.ShardDetail missing", k)
		}
		if att.ShardDetail.Devices != k || att.ShardDetail.Survivors != k {
			t.Fatalf("WithShards(%d): fabric %d/%d survivors", k, att.ShardDetail.Devices, att.ShardDetail.Survivors)
		}
		if k > 1 && got.Modeled <= 0 {
			t.Fatalf("WithShards(%d): Modeled = %v, want > 0", k, got.Modeled)
		}
	}
}

// TestShardedDeviceLossRecorded loses one chip of a 4-chip fabric
// mid-solve: the answer must stay optimal and the public Attempt must
// record the lost device and the re-shard.
func TestShardedDeviceLossRecorded(t *testing.T) {
	costs := testCosts(24, 6)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs,
		WithShards(4),
		WithFaultSchedule("deviceloss at=12 device=2"),
	)
	if err != nil {
		t.Fatalf("fabric did not survive chip loss: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("post-loss cost = %g, fault-free cost = %g", res.Cost, clean.Cost)
	}
	f := res.Report.Attempts[0].ShardDetail
	if f == nil {
		t.Fatal("Attempt.ShardDetail missing")
	}
	if len(f.Lost) != 1 || f.Lost[0] != 2 {
		t.Fatalf("ShardDetail.Lost = %v, want [2]", f.Lost)
	}
	if f.Reshards != 1 {
		t.Fatalf("ShardDetail.Reshards = %d, want 1", f.Reshards)
	}
	if f.Survivors != 3 {
		t.Fatalf("ShardDetail.Survivors = %d, want 3", f.Survivors)
	}
}

// TestShardedFabricCollapseFallsBack drops the fabric below the
// configured minimum: the IPU attempt fails typed and the chain
// degrades to the CPU, with the failed attempt still carrying the
// fabric report.
func TestShardedFabricCollapseFallsBack(t *testing.T) {
	costs := testCosts(24, 7)
	res, err := Solve(costs,
		WithShards(2),
		WithMinShardFabric(2),
		WithFaultSchedule("deviceloss at=8 device=1"),
		WithFallback(DeviceCPU),
	)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	if res.Device != DeviceCPU || !res.Report.FellBack {
		t.Fatalf("served by %v (FellBack=%v), want CPU fallback", res.Device, res.Report.FellBack)
	}
	att := res.Report.Attempts[0]
	var fe *core.FabricError
	if !errors.As(att.Err, &fe) {
		t.Fatalf("IPU attempt error = %v, want *core.FabricError", att.Err)
	}
	if f := att.ShardDetail; f == nil || len(f.Lost) != 1 || f.Lost[0] != 1 {
		t.Fatalf("failed attempt lost report: ShardDetail=%+v, want Lost [1]", f)
	}
}

// TestShardOptionValidation pins the typed rejections of the sharding
// options.
func TestShardOptionValidation(t *testing.T) {
	costs := testCosts(4, 8)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"negative shards", []Option{WithShards(-1)}},
		{"zero shards", []Option{WithShards(0)}},
		{"min without shards", []Option{WithMinShardFabric(2)}},
		{"min above shards", []Option{WithShards(2), WithMinShardFabric(3)}},
		{"min below one", []Option{WithShards(2), WithMinShardFabric(-1)}},
	} {
		if _, err := Solve(costs, tc.opts...); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
}

// TestShardedSilentSurvived pins the guarded sharded path end to end:
// a silent link flip landing in state held on chip 1 is caught by the
// per-chip checksums and rolled back under the sharded default policy
// (GuardChecksums, no WithGuard needed), the answer stays optimal, and
// the public Attempt carries the guard accounting. Superstep 40 is one
// whose writes reach chip 1, so the flip has state to land on.
func TestShardedSilentSurvived(t *testing.T) {
	costs := testCosts(24, 9)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs,
		WithShards(2),
		WithFaultSchedule("linkflip at=40 device=1"),
	)
	if err != nil {
		t.Fatalf("guarded fabric did not absorb the frame flip: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("post-flip cost = %g, fault-free cost = %g", res.Cost, clean.Cost)
	}
	att := res.Report.Attempts[0]
	if att.GuardTrips == 0 {
		t.Fatal("Attempt.GuardTrips = 0, want the detection counted")
	}
	if att.GuardCycles == 0 {
		t.Fatal("Attempt.GuardCycles = 0, want the guard overhead priced")
	}
	if f := att.ShardDetail; f == nil || len(f.Quarantined) != 0 {
		t.Fatalf("ShardDetail = %+v, want a fabric report with no quarantine for one repaired frame", f)
	}
}

// TestShardedQuarantineRecorded drives a chip Byzantine (state held on
// it is corrupted every superstep) on a fabric pinned at its minimum:
// the attempt fails typed and the failed Attempt still carries the
// quarantine, mirroring the loss-report guarantee.
func TestShardedQuarantineRecorded(t *testing.T) {
	costs := testCosts(24, 10)
	res, err := Solve(costs,
		WithShards(2),
		WithMinShardFabric(2),
		WithFaultSchedule("linkflip every=1 device=1"),
		WithFallback(DeviceCPU),
	)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	if res.Device != DeviceCPU {
		t.Fatalf("served by %v, want CPU fallback", res.Device)
	}
	att := res.Report.Attempts[0]
	var fe *core.FabricError
	if !errors.As(att.Err, &fe) {
		t.Fatalf("IPU attempt error = %v, want *core.FabricError", att.Err)
	}
	if _, ok := AsCorruption(att.Err); !ok {
		t.Fatalf("fabric failure does not unwrap to the corruption: %v", att.Err)
	}
	if f := att.ShardDetail; f == nil || len(f.Quarantined) != 1 || f.Quarantined[0] != 1 {
		t.Fatalf("failed attempt ShardDetail = %+v, want Quarantined [1]", f)
	}
}

// TestShardedGuardOptOut pins the escape hatch: WithGuard(GuardOff) on
// a sharded solve disarms the whole layer, so the same link flip that
// the default catches and rolls back lands unobserved.
func TestShardedGuardOptOut(t *testing.T) {
	costs := testCosts(24, 9)
	res, err := Solve(costs,
		WithShards(2),
		WithGuard(GuardOff),
		WithFaultSchedule("linkflip at=40 device=1"),
	)
	if err != nil {
		t.Fatalf("unguarded solve errored: %v", err)
	}
	att := res.Report.Attempts[0]
	if att.GuardTrips != 0 {
		t.Fatalf("GuardOff still tripped: trips=%d", att.GuardTrips)
	}
	if att.Faults == 0 {
		t.Fatal("flip never fired")
	}
}
