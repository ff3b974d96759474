package serve

import (
	"context"
	"testing"

	"hunipu"
	"hunipu/internal/faultinject"
)

// TestShardedServingCountsFabricEvents runs the server with a 4-chip
// fabric and a schedule that kills one chip mid-solve: the request must
// still serve from the IPU, and the fabric events must surface in the
// shard metrics and the expvar tree.
func TestShardedServingCountsFabricEvents(t *testing.T) {
	sched, err := faultinject.ParseSchedule("deviceloss at=12 device=2")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Workers: 1,
		Shards:  4,
		Inject:  map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched},
	})
	res, err := s.Submit(context.Background(), Request{Costs: testCosts(24, 9)})
	if err != nil {
		t.Fatalf("sharded submit failed: %v", err)
	}
	if res.Device != hunipu.DeviceIPU {
		t.Fatalf("served by %v, want IPU (fabric should survive one loss)", res.Device)
	}
	m := s.Metrics()
	if m.ShardSolves.Load() != 1 {
		t.Errorf("ShardSolves = %d, want 1", m.ShardSolves.Load())
	}
	if m.DevicesLost.Load() != 1 || m.Reshards.Load() != 1 {
		t.Errorf("DevicesLost = %d, Reshards = %d, want 1 and 1",
			m.DevicesLost.Load(), m.Reshards.Load())
	}
	shardVars, ok := s.Vars()["shard"].(map[string]int64)
	if !ok {
		t.Fatal("expvar tree missing shard subtree")
	}
	if shardVars["devices_lost"] != 1 || shardVars["reshards"] != 1 || shardVars["solves"] != 1 {
		t.Errorf("shard expvars = %v, want one solve, one loss, one reshard", shardVars)
	}
}

// TestShardedFabricCollapseDegrades kills the fabric below its minimum:
// the IPU attempt fails typed, the ladder serves from the CPU, and the
// failed attempt's fabric events are still counted.
func TestShardedFabricCollapseDegrades(t *testing.T) {
	sched, err := faultinject.ParseSchedule("deviceloss at=8 device=1")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Devices:         []hunipu.Device{hunipu.DeviceIPU, hunipu.DeviceCPU},
		Workers:         1,
		Shards:          2,
		MinShardDevices: 2,
		Inject:          map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched},
	})
	res, err := s.Submit(context.Background(), Request{Costs: testCosts(24, 10)})
	if err != nil {
		t.Fatalf("submit failed: %v", err)
	}
	if res.Device != hunipu.DeviceCPU || !res.Report.FellBack {
		t.Fatalf("served by %v (FellBack=%v), want CPU after fabric collapse", res.Device, res.Report.FellBack)
	}
	m := s.Metrics()
	if m.ShardSolves.Load() != 1 || m.DevicesLost.Load() != 1 {
		t.Errorf("ShardSolves = %d, DevicesLost = %d, want 1 and 1 from the failed attempt",
			m.ShardSolves.Load(), m.DevicesLost.Load())
	}
	if m.Reshards.Load() != 0 {
		t.Errorf("Reshards = %d, want 0 (collapse, not re-shard)", m.Reshards.Load())
	}
}

// TestShardConfigValidation pins the construction-time rejections.
func TestShardConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative shards", Config{Shards: -1}},
		{"min without shards", Config{MinShardDevices: 2}},
		{"min above shards", Config{Shards: 2, MinShardDevices: 3}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
}

// TestShardedGuardTripCountedOnce: a failed sharded attempt's recovery
// report counts every detection, the terminal one included, whether
// the engine guard tripped (a checksum caught a link flip) or the
// solver's own structural check did (dropped writes broke the
// matching). The guard expvars must equal the attempt's counts.
func TestShardedGuardTripCountedOnce(t *testing.T) {
	for _, spec := range []string{"linkflip every=1 device=1", "stale every=2 times=6"} {
		t.Run(spec, func(t *testing.T) {
			sched, err := faultinject.ParseSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, Config{
				Devices:         []hunipu.Device{hunipu.DeviceIPU, hunipu.DeviceCPU},
				Workers:         1,
				Shards:          2,
				MinShardDevices: 2,
				Inject:          map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched},
			})
			res, err := s.Submit(context.Background(), Request{Costs: testCosts(24, 10)})
			if err != nil {
				t.Fatalf("submit failed: %v", err)
			}
			att := res.Report.Attempts[0]
			if att.Device != hunipu.DeviceIPU || att.ShardDetail == nil {
				t.Fatalf("first attempt on %v (ShardDetail %v), want a sharded IPU attempt", att.Device, att.ShardDetail)
			}
			if _, ok := faultinject.AsCorruption(att.Err); !ok {
				t.Fatalf("IPU attempt error = %v, want a typed corruption", att.Err)
			}
			if att.GuardTrips == 0 {
				t.Fatal("failed sharded attempt reports no guard trips")
			}
			g := guardVars(t, s)
			if g["guard_trips"] != int64(att.GuardTrips) || g["rollback_epochs"] != int64(att.RollbackEpochs) {
				t.Errorf("guard_trips = %d, rollback_epochs = %d; the attempt reports %d and %d",
					g["guard_trips"], g["rollback_epochs"], att.GuardTrips, att.RollbackEpochs)
			}
		})
	}
}
