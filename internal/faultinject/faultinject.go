// Package faultinject provides deterministic, replayable fault
// injection for the simulated accelerators. Real IPU deployments treat
// transient device faults — a corrupted exchange payload caught by the
// fabric CRC, tile-memory pressure from runtime buffers, a wedged host
// transfer, a hard device reset — as routine events; this package lets
// the repository *provoke* exactly those failures on demand so the
// recovery machinery (superstep checkpointing, bounded retry, device
// fallback) can be exercised and its invariants enforced.
//
// Faults are described by a Schedule: a seed plus a list of rules, each
// binding a fault Class to predicates over the execution point at which
// it fires (superstep number, phase name, periodicity, probability).
// Schedules are replayable: the same spec string produces the same
// faults at the same points, every run. Probabilistic rules derive
// their coin flips from a hash of (seed, rule, superstep, phase), never
// from a global RNG, so concurrency cannot change the outcome.
package faultinject

import (
	"errors"
	"fmt"
)

// Class is a category of injected device fault.
type Class int

// The modeled fault classes.
const (
	// ExchangeCorruption is a corrupted exchange payload detected on
	// receive (fabric CRC mismatch). Transient: the superstep's data is
	// discarded and the solve can resume from the last checkpoint.
	ExchangeCorruption Class = iota
	// TileMemoryPressure is a runtime tile-SRAM overflow (C2 violated
	// at execution time, e.g. by exchange buffers). Fatal for the
	// device: the graph cannot continue; callers should fall back.
	TileMemoryPressure
	// DeviceReset is a hard device reset: all tile memory is lost and
	// the engine's state is gone. Fatal; callers should fall back.
	DeviceReset
	// HostTransferStall is a stalled or timed-out host↔device transfer.
	// Transient: the transfer can simply be retried.
	HostTransferStall
	// SilentTileBitflip flips data in tile SRAM in place. No error is
	// returned at the injection point: the corruption is visible only to
	// a guard layer (checksums, algorithm invariants) or to final output
	// attestation.
	SilentTileBitflip
	// SilentExchangeBitflip corrupts an exchange payload in flight
	// *after* any sender-side integrity data was computed, modeling an
	// undetected fabric bit flip. Silent: no error at the point.
	SilentExchangeBitflip
	// SilentStaleRead models a tile reading a stale copy of remote data:
	// the superstep's writes are silently dropped while its cost is still
	// charged. Checksum-invisible (no bytes change); only algorithm
	// invariants or attestation can catch it.
	SilentStaleRead
	// DeviceLoss is the permanent loss of one chip in a multi-device
	// fabric: the device stops responding and its tile memory is
	// unrecoverable. Fatal for the device — but a multi-chip solve can
	// move to the program compiled for the survivors (see core's loss
	// loop), which is why this is a distinct class from DeviceReset: a
	// reset device comes back, a lost device does not.
	DeviceLoss
	// LinkLoss is a dropped or flapping inter-IPU link: the exchange
	// that crossed it is lost, but the devices on both ends survive.
	// Transient: after the link recovers, the fabric resumes from the
	// last globally consistent checkpoint.
	LinkLoss
	// SilentLinkBitflip flips a bit in data a superstep delivers to one
	// chip of a fabric, past any fabric-level CRC: the exbitflip effect,
	// landed on state held on the chip the fault fires on. Silent: only
	// the guard's per-chip checksums see it.
	SilentLinkBitflip
	// SilentShardBitflip flips a bit in one chip's tile memory: the
	// bitflip effect, landed on state held on the chip the fault fires
	// on. Silent: only the per-chip checksums or the invariant probes can
	// see it.
	SilentShardBitflip

	numClasses
)

// classNames, classTransient and classSilent are indexed by Class so
// that adding a class without extending them fails to compile (the
// array literals below are exactly numClasses long) — see also the
// exhaustiveness pin at the bottom of this block.
var classNames = [numClasses]string{
	ExchangeCorruption:    "exchange",
	TileMemoryPressure:    "memory",
	DeviceReset:           "reset",
	HostTransferStall:     "stall",
	SilentTileBitflip:     "bitflip",
	SilentExchangeBitflip: "exbitflip",
	SilentStaleRead:       "stale",
	DeviceLoss:            "deviceloss",
	LinkLoss:              "linkloss",
	SilentLinkBitflip:     "linkflip",
	SilentShardBitflip:    "shardflip",
}

var classTransient = [numClasses]bool{
	ExchangeCorruption:    true,
	TileMemoryPressure:    false,
	DeviceReset:           false,
	HostTransferStall:     true,
	SilentTileBitflip:     true,
	SilentExchangeBitflip: true,
	SilentStaleRead:       true,
	DeviceLoss:            false,
	LinkLoss:              true,
	SilentLinkBitflip:     true,
	SilentShardBitflip:    true,
}

var classSilent = [numClasses]bool{
	SilentTileBitflip:     true,
	SilentExchangeBitflip: true,
	SilentStaleRead:       true,
	SilentLinkBitflip:     true,
	SilentShardBitflip:    true,
}

// Compile-time exhaustiveness pin: bump the constant when (and only
// when) a new Class is added, after extending the tables above and
// Rule.appliesTo. TestClassExhaustiveness enforces the rest.
var _ = [1]struct{}{}[numClasses-11]

// String implements fmt.Stringer using the spec-grammar keywords.
func (c Class) String() string {
	if c >= 0 && c < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Transient reports whether faults of this class are retryable: the
// device survives and execution can resume from a checkpoint. Fatal
// classes require a new device (or a fallback to another one). All
// silent classes are transient — once detected, re-execution from a
// clean checkpoint is the recovery path.
func (c Class) Transient() bool {
	return c >= 0 && c < numClasses && classTransient[c]
}

// Silent reports whether faults of this class corrupt state without
// surfacing an error at the injection point. Silent faults are only
// observable through the guard layer (checksums, invariant probes) or
// final output attestation.
func (c Class) Silent() bool {
	return c >= 0 && c < numClasses && classSilent[c]
}

// Kind identifies the kind of execution point a fault check guards.
type Kind int

// The instrumented point kinds.
const (
	// KindSuperstep guards one BSP superstep (a compute set or an
	// exchange-only copy) about to execute.
	KindSuperstep Kind = iota
	// KindHostWrite guards a host→device input transfer.
	KindHostWrite
	// KindHostRead guards a device→host result transfer.
	KindHostRead
	// KindAlloc guards a tile-memory allocation (graph compilation).
	KindAlloc
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSuperstep:
		return "superstep"
	case KindHostWrite:
		return "host-write"
	case KindHostRead:
		return "host-read"
	case KindAlloc:
		return "alloc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Point is one instrumented execution point: the device asks its
// injector whether a fault fires here.
type Point struct {
	// Superstep is the device's completed-superstep count (for host and
	// alloc points, the count at the time of the transfer/allocation).
	Superstep int64
	// Phase names the execution phase: the compute-set name for
	// supersteps, "copy:<tensor>" for exchange copies, "host:write" /
	// "host:read" for transfers, "alloc" for allocations.
	Phase string
	// Kind is the point kind.
	Kind Kind
	// Device is the index of the chip this point executes on within a
	// multi-device fabric. Single-device execution always reports 0, so
	// schedules written before fabrics existed replay unchanged.
	Device int
}

// FaultError is the typed error every injected fault surfaces as.
// Callers classify it with errors.As and Transient; the conformance
// chaos invariant requires that every faulted run ends in either a
// certified-optimal solution or an error matchable to this type.
type FaultError struct {
	// Class is the injected fault class.
	Class Class
	// Point is where the fault fired.
	Point Point
	// Rule is the index of the schedule rule that fired (-1 when the
	// fault came from a non-Schedule injector).
	Rule int
}

// Error implements error. A superstep point reads "at superstep 3",
// any other kind "at host-write, superstep 3".
func (e *FaultError) Error() string {
	at, dev := "", ""
	if e.Point.Kind != KindSuperstep {
		at = e.Point.Kind.String() + ", "
	}
	if e.Point.Device > 0 {
		dev = fmt.Sprintf(", device %d", e.Point.Device)
	}
	return fmt.Sprintf("faultinject: %s fault at %ssuperstep %d (phase %q%s)",
		e.Class, at, e.Point.Superstep, e.Point.Phase, dev)
}

// Transient reports whether the fault is retryable (see Class.Transient).
func (e *FaultError) Transient() bool { return e.Class.Transient() }

// Silent reports whether the fault corrupted state without an error at
// the injection point (see Class.Silent).
func (e *FaultError) Silent() bool { return e.Class.Silent() }

// AsFault unwraps err to its injected fault, if any.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// IsTransient reports whether err is (or wraps) a transient injected
// fault — the retry-from-checkpoint eligibility test.
func IsTransient(err error) bool {
	fe, ok := AsFault(err)
	return ok && fe.Transient()
}

// Injector decides, at each instrumented execution point, whether a
// fault fires. Implementations must be safe for concurrent use and
// deterministic given the same sequence of points.
type Injector interface {
	// Check returns the fault to inject at p, or nil.
	Check(p Point) *FaultError
}

// CorruptionError is the typed error surfaced when the guard layer
// detects silent data corruption (a checksum mismatch, a violated
// algorithm invariant, a failed output attestation) that recovery could
// not repair. Like FaultError it is the contract with callers: under
// silent-fault chaos every solve must end in a certified-optimal
// solution or an error matchable to this type — never a silently wrong
// assignment.
type CorruptionError struct {
	// Guard names the detector that tripped: "checksum:<tensor>", an
	// invariant probe name, "attestation", or "watchdog".
	Guard string
	// Detected is the superstep count at which the guard tripped.
	Detected int64
	// Injected is the superstep of the earliest undetected silent
	// injection pending at detection time (-1 if unknown).
	Injected int64
	// Latency is Detected − Injected in supersteps (-1 if unknown).
	Latency int64
	// PoisonedEpochs counts checkpoint epochs discarded as corrupted
	// during certified rollback.
	PoisonedEpochs int
	// Device is the fabric index of the chip the detection attributes
	// the corruption to (-1 when unattributed: single-chip engines,
	// invariant probes, output attestation). A multi-chip solve uses the
	// attribution to quarantine a chip that keeps corrupting state.
	Device int
	// Err is the underlying detector report.
	Err error
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("faultinject: silent corruption detected by %s at superstep %d (latency %d supersteps, %d poisoned epochs): %v",
		e.Guard, e.Detected, e.Latency, e.PoisonedEpochs, e.Err)
}

// Unwrap exposes the underlying detector report to errors.Is/As.
func (e *CorruptionError) Unwrap() error { return e.Err }

// AsCorruption unwraps err to its corruption report, if any.
func AsCorruption(err error) (*CorruptionError, bool) {
	var ce *CorruptionError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}
