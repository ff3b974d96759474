package serve

import (
	"sync/atomic"

	"hunipu"
)

// Metrics are the serving layer's counters, exported live via
// Server.Vars (hunipud publishes them at /debug/vars). All fields are
// monotonic except the gauges noted.
type Metrics struct {
	// Admitted counts requests accepted into the queue.
	Admitted atomic.Int64
	// Shed* count rejections by reason.
	ShedOverloaded atomic.Int64
	ShedDeadline   atomic.Int64
	ShedDraining   atomic.Int64
	ShedNoDevice   atomic.Int64
	// Failed counts requests that returned an error: admitted ones
	// whose solve failed, and ones refused as invalid input before
	// admission (see Server.Submit).
	Failed atomic.Int64
	// Served counts successful responses per device (indexed by
	// hunipu.Device).
	Served [3]atomic.Int64
	// Breaker transition counts per device.
	BreakerOpened     [3]atomic.Int64
	BreakerHalfOpened [3]atomic.Int64
	BreakerClosed     [3]atomic.Int64
	// QueueHWM is the queue-depth high-water mark (gauge-ish: only
	// ever rises).
	QueueHWM atomic.Int64
	// InFlight is the number of solves currently executing (gauge).
	InFlight atomic.Int64
	// Guard telemetry (see Config.Guard and hunipu.WithGuard):
	// GuardTrips counts silent-corruption detections across all solves
	// (recovered or terminal, each once), AttestationFailures counts final output
	// attestations that rejected a result, and RollbackEpochs counts
	// checkpoint epochs discarded as poisoned during certified rollback.
	GuardTrips          atomic.Int64
	AttestationFailures atomic.Int64
	RollbackEpochs      atomic.Int64
	// Fabric telemetry (see Config.Shards and hunipu.WithShards):
	// ShardSolves counts IPU attempts that ran sharded, DevicesLost
	// counts chips lost mid-solve across all attempts, Reshards counts
	// moves onto the survivors, ShardRollbacks counts checkpoint
	// restores for transient faults and guard trips on sharded
	// attempts, and Quarantined counts chips dropped because the guard
	// kept catching them corrupting state.
	ShardSolves    atomic.Int64
	DevicesLost    atomic.Int64
	Reshards       atomic.Int64
	ShardRollbacks atomic.Int64
	Quarantined    atomic.Int64
	// Degradation-ladder telemetry (see Config.BrownoutTiers and
	// hunipu.WithQuality): Brownouts counts requests served at a looser
	// quality tier than they asked for, BoundedSolves counts responses
	// served at Bounded(ε>0), WarmStarts counts solves seeded from the
	// per-key dual cache, and GapSumMicros accumulates the certified
	// normalized gaps of bounded responses in micro-units (divide by
	// 1e6·BoundedSolves for the mean delivered gap).
	Brownouts     atomic.Int64
	BoundedSolves atomic.Int64
	WarmStarts    atomic.Int64
	GapSumMicros  atomic.Int64
}

// devIdx guards the fixed-size per-device arrays against out-of-range
// Device values (which validation upstream should have rejected).
func devIdx(d hunipu.Device) int {
	if i := int(d); i >= 0 && i < 3 {
		return i
	}
	return 0
}

// observeBreaker counts one breaker transition.
func (m *Metrics) observeBreaker(d hunipu.Device, to BreakerState) {
	switch to {
	case BreakerOpen:
		m.BreakerOpened[devIdx(d)].Add(1)
	case BreakerHalfOpen:
		m.BreakerHalfOpened[devIdx(d)].Add(1)
	case BreakerClosed:
		m.BreakerClosed[devIdx(d)].Add(1)
	}
}

// raiseHWM lifts the high-water mark to depth if it is higher.
func (m *Metrics) raiseHWM(depth int64) {
	for {
		cur := m.QueueHWM.Load()
		if depth <= cur || m.QueueHWM.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// snapshot renders the counters as an expvar-friendly tree.
func (m *Metrics) snapshot() map[string]any {
	served := map[string]int64{}
	breakers := map[string]map[string]int64{}
	for d := hunipu.DeviceIPU; d <= hunipu.DeviceCPU; d++ {
		i := devIdx(d)
		served[d.String()] = m.Served[i].Load()
		breakers[d.String()] = map[string]int64{
			"opened":      m.BreakerOpened[i].Load(),
			"half_opened": m.BreakerHalfOpened[i].Load(),
			"closed":      m.BreakerClosed[i].Load(),
		}
	}
	return map[string]any{
		"admitted": m.Admitted.Load(),
		"shed": map[string]int64{
			"overloaded":         m.ShedOverloaded.Load(),
			"deadline_too_short": m.ShedDeadline.Load(),
			"draining":           m.ShedDraining.Load(),
			"no_device":          m.ShedNoDevice.Load(),
		},
		"failed":              m.Failed.Load(),
		"served":              served,
		"breaker_transitions": breakers,
		"queue_high_water":    m.QueueHWM.Load(),
		"in_flight":           m.InFlight.Load(),
		"guard": map[string]int64{
			"guard_trips":          m.GuardTrips.Load(),
			"attestation_failures": m.AttestationFailures.Load(),
			"rollback_epochs":      m.RollbackEpochs.Load(),
		},
		"shard": map[string]int64{
			"solves":       m.ShardSolves.Load(),
			"devices_lost": m.DevicesLost.Load(),
			"reshards":     m.Reshards.Load(),
			"rollbacks":    m.ShardRollbacks.Load(),
			"quarantined":  m.Quarantined.Load(),
		},
		"bounded": map[string]any{
			"brownouts":      m.Brownouts.Load(),
			"bounded_solves": m.BoundedSolves.Load(),
			"warm_starts":    m.WarmStarts.Load(),
			"gap_sum":        float64(m.GapSumMicros.Load()) / 1e6,
		},
	}
}
