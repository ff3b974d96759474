package serve

import (
	"testing"
	"time"

	"hunipu"
)

// TestCostModelSeedReplacedThenBlended pins what the admission model
// does with its seed: the seed prices a (device, tier) slot only until
// the slot's first observation, which replaces it outright; every later
// observation is blended in with weight ewmaAlpha. So one fast solve
// erases a conservative SeedCostPerCell, which is what lets a cold
// server admit rather than shed.
func TestCostModelSeedReplacedThenBlended(t *testing.T) {
	const n = 3 // 9 cells
	m := newCostModel(time.Millisecond)
	near := func(what string, got, want time.Duration) {
		t.Helper()
		if d := got - want; d < -1 || d > 1 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}

	near("IPU exact from the seed", m.Estimate(hunipu.DeviceIPU, n, false), 9*time.Millisecond)

	// One fast solve: 9 µs over 9 cells is 1 µs per cell, and it
	// replaces the 1 ms seed; averaging would have kept ~0.7 ms.
	m.Observe(hunipu.DeviceIPU, n, 9*time.Microsecond, false)
	near("IPU exact after one solve", m.Estimate(hunipu.DeviceIPU, n, false), 9*time.Microsecond)

	// The second observation (10 µs per cell) blends:
	// 0.7·1 µs + 0.3·10 µs = 3.7 µs per cell.
	m.Observe(hunipu.DeviceIPU, n, 90*time.Microsecond, false)
	near("IPU exact after two solves", m.Estimate(hunipu.DeviceIPU, n, false), 9*3700*time.Nanosecond)

	// Other slots are untouched: the GPU still prices from the seed,
	// and an unobserved bounded tier at exact×¼ of its own device.
	near("GPU exact", m.Estimate(hunipu.DeviceGPU, n, false), 9*time.Millisecond)
	near("GPU bounded", m.Estimate(hunipu.DeviceGPU, n, true), 9*time.Millisecond/4)
	near("IPU bounded before its first solve", m.Estimate(hunipu.DeviceIPU, n, true), 9*925*time.Nanosecond)

	// A bounded slot's first observation replaces its guess the same way.
	m.Observe(hunipu.DeviceIPU, n, 18*time.Microsecond, true)
	near("IPU bounded after one solve", m.Estimate(hunipu.DeviceIPU, n, true), 18*time.Microsecond)
	near("IPU exact unmoved by a bounded solve", m.Estimate(hunipu.DeviceIPU, n, false), 9*3700*time.Nanosecond)
}
