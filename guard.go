package hunipu

import (
	"hunipu/internal/faultinject"
	"hunipu/internal/poplar"
)

// GuardPolicy selects the silent-data-corruption defense level for the
// IPU solver: incremental tensor checksums, algorithm-level invariant
// probes over HunIPU's dual potentials, certified checkpoint rollback,
// and mandatory output attestation (see DESIGN.md §5d). The GPU and CPU
// baselines ignore it.
type GuardPolicy int

// Guard levels, in increasing protection and overhead. Every level
// above GuardOff ends with output attestation: the returned matching is
// certified optimal against the original cost matrix, or the solve
// fails with a typed *faultinject.CorruptionError — never a silently
// wrong answer.
const (
	// GuardOff (default): no detection, no overhead. Silent corruption
	// propagates into the result.
	GuardOff GuardPolicy = iota
	// GuardChecksums: per-tensor checksums verified at checkpoint
	// cadence. Catches in-memory bit flips.
	GuardChecksums
	// GuardInvariants: checksums plus algorithm-level probes (dual
	// identity, compression consistency, monotone dual objective).
	// Catches byte-consistent corruption such as dropped writes.
	GuardInvariants
	// GuardParanoid: checksums and probes on a tight fixed cadence for
	// minimum detection latency at maximum overhead.
	GuardParanoid
)

// The public levels are defined to mirror the engine's; a change in
// either enum breaks this compile-time pin.
var _ = [1]struct{}{}[int(GuardParanoid)-int(poplar.GuardParanoid)]
var _ = [1]struct{}{}[int(GuardChecksums)-int(poplar.GuardChecksums)]

// String implements fmt.Stringer using the schedule-grammar tokens.
func (g GuardPolicy) String() string { return poplar.GuardPolicy(g).String() }

// ParseGuardPolicy maps "off", "checksums", "invariants" or "paranoid"
// to its policy — the same tokens the fault-schedule grammar's guard=
// clause uses.
func ParseGuardPolicy(name string) (GuardPolicy, error) {
	p, err := poplar.ParseGuardPolicy(name)
	return GuardPolicy(p), err
}

// WithGuard selects the IPU solver's silent-corruption guard policy.
// When not used, a fault schedule's own guard= clause (see
// WithFaultSchedule) supplies the default, so a replayable schedule
// spec captures the full experiment including its defense level.
//
// On a sharded attempt (WithShards) the same engine guard keeps its
// checksums per chip, so a trip names the chip holding the corrupted
// state, and a chip caught again after a clean rollback is quarantined
// out of the fabric. Sharded attempts that would otherwise resolve to
// GuardOff run at GuardChecksums; WithGuard(GuardOff) (or guard=off in
// the schedule) is the explicit opt-out that disables the layer,
// attestation included.
func WithGuard(g GuardPolicy) Option {
	return func(c *config) {
		c.guard = g
		c.guardSet = true
	}
}

// AsCorruption unwraps err to the silent-corruption report a guarded
// solve produced, if any: which guard tripped (a checksum, an
// invariant probe, "attestation", "watchdog"), the detection
// superstep, the injection-to-detection latency, and how many
// checkpoint epochs rollback discarded as poisoned. The concrete type
// is *faultinject.CorruptionError; callers outside this module use the
// returned value's exported fields directly.
func AsCorruption(err error) (*faultinject.CorruptionError, bool) {
	return faultinject.AsCorruption(err)
}

// valid reports whether g is a defined policy.
func (g GuardPolicy) valid() bool { return g >= GuardOff && g <= GuardParanoid }

// resolveGuard decides the engine policy for an IPU attempt: an
// explicit WithGuard wins; otherwise a guard= clause carried by the
// attempt's schedule-backed injector; otherwise whatever
// WithIPUOptions configured (zero value: off).
func (c *config) resolveGuard(configured poplar.GuardPolicy, inj interface{}) poplar.GuardPolicy {
	if c.guardSet {
		return poplar.GuardPolicy(c.guard)
	}
	if s, ok := inj.(*faultinject.Schedule); ok && s != nil && s.Guard != "" {
		if p, err := poplar.ParseGuardPolicy(s.Guard); err == nil {
			return p
		}
	}
	return configured
}
