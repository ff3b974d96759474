package hunipu

import (
	"hunipu/internal/core"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// defaultShardRetries is the checkpoint-rollback budget of a sharded
// attempt when neither WithRecovery nor WithIPUOptions sets one: a
// fabric has k chips' worth of fault surface, so its transient faults
// and first guard trips are absorbed by default.
const defaultShardRetries = 16

// WithShards runs the IPU attempt on a fabric of k simulated chips
// instead of a single device: HunIPU's six-step program is compiled
// over the k-chip tile space, row groups are spread evenly over the
// chips, and every byte that crosses chips is charged against the
// modeled IPU-Link bandwidth. Losing a chip mid-solve is a recoverable
// event — the solve moves to the program compiled for the survivors
// and resumes from its newest checkpoint (see DESIGN.md, "Multi-chip
// execution").
//
//	hunipu.Solve(costs, hunipu.WithShards(4),
//		hunipu.WithFaultSchedule("deviceloss at=12 device=2"))
//
// k must be ≥ 1; WithShards(1) runs the multi-chip path on one chip.
// The sharded path covers the IPU attempt only — GPU and CPU fallbacks
// are unaffected.
//
// WithGuard composes with WithShards, and sharded attempts default to
// GuardChecksums rather than off: checksums are kept per chip, so a
// guard trip names the chip holding the corrupted state, and a chip
// caught again after a clean rollback is quarantined — dropped like a
// lost chip. The unguarded mode is an explicit opt-out
// (WithGuard(GuardOff), or guard=off in the schedule spec). A guarded
// sharded solve either returns the certified optimum or fails with a
// typed error — never a silently wrong answer.
func WithShards(k int) Option {
	return func(c *config) {
		c.shards = k
		c.sharded = true
	}
}

// WithMinShardFabric sets the smallest fabric a sharded solve may
// continue on after chip losses (default 1, i.e. the solve survives
// down to a single chip). Once survivors drop below min the IPU attempt
// fails with a typed *core.FabricError and the fallback chain, if any,
// takes over. Requires WithShards; min must be in [1, k].
func WithMinShardFabric(min int) Option {
	return func(c *config) { c.minFabric = min }
}

// shardOptions turns the IPU attempt's options into a c.shards-chip
// solve that survives chip losses down to the WithMinShardFabric floor.
func (c *config) shardOptions(o core.Options) core.Options {
	if o.Config.Tiles() == 0 {
		o.Config = ipu.MK2()
	}
	o.Config.IPUs = c.shards
	o.MinIPUs = max(c.minFabric, 1)
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultShardRetries
	}
	// WithGuard or a schedule's guard= clause still win (resolveGuard
	// precedence), but the configured fallback is never silently off on
	// a fabric.
	if o.Guard == poplar.GuardOff {
		o.Guard = poplar.GuardChecksums
	}
	return o
}
