package poplar

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hunipu/internal/faultinject"
)

// GuardPolicy selects how aggressively the engine defends against
// silent data corruption (undetected bit flips in tile SRAM or on the
// exchange fabric, stale exchange reads). Every level's work is charged
// to the device cycle model as GuardCycles, so the detection/throughput
// trade-off is measurable rather than hidden.
type GuardPolicy int

const (
	// GuardOff runs no defense: silent corruption propagates into the
	// result undetected (final attestation at the solver layer, if any,
	// is the only net).
	GuardOff GuardPolicy = iota
	// GuardChecksums maintains an incremental per-tensor checksum,
	// updated over each superstep's declared write regions, and fully
	// re-verified at checkpoint cadence. Catches in-memory bit flips;
	// blind to dropped writes (stale reads), which change no bytes the
	// checksum doesn't already agree with.
	GuardChecksums
	// GuardInvariants adds algorithm-level invariant probes registered
	// by the solver (dual feasibility, compressed-matrix consistency,
	// monotone dual objective), run at the same cadence. Catches what
	// checksums cannot: corruption that is byte-consistent but
	// algorithmically impossible.
	GuardInvariants
	// GuardParanoid runs checksums and probes on a tight fixed cadence
	// (every guardParanoidEvery steps) for minimum detection latency at
	// maximum overhead.
	GuardParanoid
)

// guardParanoidEvery is the verification cadence under GuardParanoid.
const guardParanoidEvery = 8

// guardRingSize bounds how many checkpoint epochs certified rollback
// can reach back through.
const guardRingSize = 4

// guardMaxStrikes is how many guard trips one chip of a multi-chip
// engine may cause before the engine stops rolling back and surfaces
// the corruption, so the caller can drop the chip (see core's loss
// loop): a chip that corrupts state again after a clean rollback is
// treated as faulty, not unlucky.
const guardMaxStrikes = 2

// guardNames is indexed by GuardPolicy and must agree with
// faultinject.GuardPolicyNames, the schedule-grammar tokens.
var guardNames = [...]string{"off", "checksums", "invariants", "paranoid"}

// String implements fmt.Stringer using the schedule-grammar tokens.
func (g GuardPolicy) String() string {
	if g >= 0 && int(g) < len(guardNames) {
		return guardNames[g]
	}
	return fmt.Sprintf("guard(%d)", int(g))
}

// ParseGuardPolicy maps a schedule-grammar token to its policy.
func ParseGuardPolicy(name string) (GuardPolicy, error) {
	for i, n := range guardNames {
		if n == name {
			return GuardPolicy(i), nil
		}
	}
	return GuardOff, fmt.Errorf("poplar: unknown guard policy %q (want off|checksums|invariants|paranoid)", name)
}

// WithGuard selects the engine's silent-corruption guard policy.
func WithGuard(g GuardPolicy) EngineOption {
	return func(e *Engine) { e.guard = g }
}

// GuardPolicy returns the engine's configured guard policy.
func (e *Engine) GuardPolicy() GuardPolicy { return e.guard }

// InvariantProbe is an algorithm-level consistency check a solver
// registers against its own tensors. Probes are the ABFT half of the
// guard layer: they catch corruption whose bytes are self-consistent
// (e.g. a silently dropped write) but which no correct execution could
// produce.
type InvariantProbe struct {
	// Name identifies the probe in CorruptionError.Guard.
	Name string
	// Cost is the modeled cycle charge per evaluation.
	Cost int64
	// ArmAfter suppresses the probe until this many leaf steps have
	// executed, so partially initialised state is not misread as
	// corruption. Checkpoint epochs younger than ArmAfter skip the probe
	// during rollback validation for the same reason.
	ArmAfter int64
	// Check returns nil when the invariant holds.
	Check func() error
	// Reset (optional) clears cross-step probe state; called at run
	// start and after every checkpoint restore.
	Reset func()
}

// RegisterInvariant installs a probe, evaluated under GuardInvariants
// and GuardParanoid at the guard cadence and during rollback epoch
// validation.
func (e *Engine) RegisterInvariant(p InvariantProbe) {
	e.probes = append(e.probes, p)
}

// errBudget marks superstep-budget exhaustion so recovery can tell a
// wedged loop (possibly a silently corrupted predicate) from other
// failures.
var errBudget = errors.New("superstep budget exhausted")

// sumContribution is one element's contribution to its tensor's
// commutative checksum: a splitmix64 mix of the value bits and the
// element index, summed (mod 2^64) over the tensor. Incremental
// maintenance subtracts the old contribution and adds the new one over
// each superstep's declared write regions; a silent flip leaves a
// nonzero residual that no later legitimate overwrite can cancel.
func sumContribution(v float64, idx int) uint64 {
	h := math.Float64bits(v) ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// tensorSum computes a tensor's full checksum from scratch.
func tensorSum(t *Tensor) uint64 {
	var s uint64
	for i, v := range t.data {
		s += sumContribution(v, i)
	}
	return s
}

// freshSums recomputes t's checksums from scratch into out: the whole
// tensor's on a single-chip engine, one partial sum per chip on a
// multi-chip engine, so a mismatch names the chip holding the bad
// element.
func (e *Engine) freshSums(t *Tensor, out []uint64) {
	if e.chips == 1 {
		out[0] = tensorSum(t)
		return
	}
	clear(out)
	cfg := e.graph.cfg
	for _, r := range t.mapping {
		var s uint64
		for i := r.Start; i < r.End; i++ {
			s += sumContribution(t.data[i], i)
		}
		out[cfg.IPUOf(r.Tile)] += s
	}
}

// foldChipSums adds r's contributions to the per-chip sums of its
// tensor, or subtracts them when neg is set (multi-chip engines only).
func (e *Engine) foldChipSums(r Ref, neg bool) {
	t, cfg := r.T, e.graph.cfg
	m := t.mapping
	i := sort.Search(len(m), func(k int) bool { return m[k].End > r.Start })
	for ; i < len(m) && m[i].Start < r.End; i++ {
		var s uint64
		for j := max(m[i].Start, r.Start); j < min(m[i].End, r.End); j++ {
			s += sumContribution(t.data[j], j)
		}
		if neg {
			s = -s
		}
		e.sums[t.id*e.chips+cfg.IPUOf(m[i].Tile)] += s
	}
}

// initGuard baselines all tensor checksums and resets probe state at
// the start of a run (and after rollback re-baselining).
func (e *Engine) initGuard() {
	if e.guard == GuardOff {
		return
	}
	if len(e.sums) != len(e.graph.tensors)*e.chips {
		e.sums = make([]uint64, len(e.graph.tensors)*e.chips)
	}
	var n int64
	for i, t := range e.graph.tensors {
		e.freshSums(t, e.sums[i*e.chips:(i+1)*e.chips])
		n += int64(len(t.data))
	}
	e.dev.ChargeGuard(n)
}

// resetProbes clears cross-step probe state (run start and restores).
func (e *Engine) resetProbes() {
	for _, p := range e.probes {
		if p.Reset != nil {
			p.Reset()
		}
	}
}

// guardPreStep subtracts the about-to-be-overwritten regions'
// contributions from their tensors' checksums.
func (e *Engine) guardPreStep(writes []Ref) {
	if e.guard == GuardOff {
		return
	}
	var n int64
	for _, w := range writes {
		n += int64(w.End - w.Start)
		if e.chips > 1 {
			e.foldChipSums(w, true)
			continue
		}
		t := w.T
		d := t.data
		for i := w.Start; i < w.End; i++ {
			e.sums[t.id] -= sumContribution(d[i], i)
		}
	}
	e.dev.ChargeGuard(n)
}

// guardPostStep adds the freshly written regions' contributions.
func (e *Engine) guardPostStep(writes []Ref) {
	if e.guard == GuardOff {
		return
	}
	var n int64
	for _, w := range writes {
		n += int64(w.End - w.Start)
		if e.chips > 1 {
			e.foldChipSums(w, false)
			continue
		}
		t := w.T
		d := t.data
		for i := w.Start; i < w.End; i++ {
			e.sums[t.id] += sumContribution(d[i], i)
		}
	}
	e.dev.ChargeGuard(n)
}

// guardCadence returns how often (in leaf steps) the guard verifies:
// checkpoint cadence normally, tightened to guardParanoidEvery under
// GuardParanoid (never loosened — paranoid must verify at least as
// often as any lower policy).
func (e *Engine) guardCadence() int64 {
	if e.guard == GuardOff {
		return 0
	}
	c := e.cpLive
	if c <= 0 {
		c = DefaultCheckpointEvery
	}
	if e.guard == GuardParanoid && guardParanoidEvery < c {
		c = guardParanoidEvery
	}
	return c
}

// guardVerify recomputes every tensor checksum against the maintained
// accumulator and, under GuardInvariants and above, evaluates all armed
// probes. A mismatch surfaces as a typed *faultinject.CorruptionError.
func (e *Engine) guardVerify() error {
	if e.guard == GuardOff {
		return nil
	}
	var n int64
	fresh := e.chipSums
	for i, t := range e.graph.tensors {
		n += int64(len(t.data))
		e.freshSums(t, fresh)
		for chip, sum := range fresh {
			if sum == e.sums[i*e.chips+chip] {
				continue
			}
			e.dev.ChargeGuard(n)
			ce := e.guardTrip("checksum:"+t.Name,
				fmt.Errorf("poplar: tensor %q checksum mismatch at step %d", t.Name, e.steps))
			if e.chips > 1 {
				ce.Device = chip
			}
			return ce
		}
	}
	e.dev.ChargeGuard(n)
	if e.guard >= GuardInvariants {
		for _, p := range e.probes {
			if e.steps < p.ArmAfter {
				continue
			}
			e.dev.ChargeGuard(p.Cost)
			if err := p.Check(); err != nil {
				return e.guardTrip(p.Name, err)
			}
		}
	}
	return nil
}

// guardTrip records a detection and builds the typed corruption error,
// charging detection latency against the earliest undetected silent
// injection.
func (e *Engine) guardTrip(guard string, err error) *faultinject.CorruptionError {
	ce := e.NewCorruptionError(guard, err)
	if ce.Latency > e.report.DetectionLatency {
		e.report.DetectionLatency = ce.Latency
	}
	e.pendingSince = -1 // the pending injections are now accounted for
	return ce
}

// NewCorruptionError counts a detection in the run report and assembles
// its typed corruption error at the current execution position.
// Exposed so solver layers can wrap their own detections (output
// attestation, structural validation) with the same bookkeeping.
func (e *Engine) NewCorruptionError(guard string, err error) *faultinject.CorruptionError {
	e.report.GuardTrips++
	detected := e.dev.Stats().Supersteps
	ce := &faultinject.CorruptionError{
		Guard:    guard,
		Detected: detected,
		Injected: -1,
		Latency:  -1,
		Device:   -1,
		Err:      err,
	}
	if e.pendingSince >= 0 {
		ce.Injected = e.pendingSince
		ce.Latency = detected - e.pendingSince
	}
	return ce
}

// noteSilent records a silent injection for latency and watchdog
// accounting.
func (e *Engine) noteSilent(fe *faultinject.FaultError) {
	e.report.SilentFaults++
	e.silentSeen++
	if e.pendingSince < 0 {
		e.pendingSince = fe.Point.Superstep
	}
}

// flipBit applies a deterministic single-bit flip (mantissa bits 44–51,
// so the value stays finite but shifts by up to ~50%) to one element of
// the region, modeling an SRAM or in-fabric upset.
func flipBit(r Ref, fe *faultinject.FaultError) {
	if r.Len() == 0 {
		return
	}
	d := r.Data()
	idx := int((uint64(fe.Point.Superstep)*31 + uint64(fe.Rule) + 1) % uint64(len(d)))
	bit := uint(44 + fe.Point.Superstep%8)
	d[idx] = math.Float64frombits(math.Float64bits(d[idx]) ^ (1 << bit))
	r.T.dirty = true
}

// applySilentFault mutates live state for a silent fault class and
// reports whether the superstep's body must be skipped (stale read:
// the writes are silently dropped). Tile bit flips (bitflip, and
// shardflip, its multi-chip name) land on the step's read set before
// compute (corrupted SRAM feeds the vertices); when the step reads
// nothing, they land on the write set after it, like an exchange flip.
// Exchange flips (exbitflip, and linkflip, its multi-chip name) are
// applied by the caller *after* the post-step checksum update, modeling
// corruption past the sender-side integrity computation. On a
// multi-chip engine every flip lands on state held on the chip the
// fault fired on.
func (e *Engine) applySilentFault(fe *faultinject.FaultError, reads, writes []Ref) (skipBody bool) {
	e.noteSilent(fe)
	switch fe.Class {
	case faultinject.SilentStaleRead:
		return true
	case faultinject.SilentTileBitflip, faultinject.SilentShardBitflip:
		for _, r := range reads {
			if e.flipOnChip(r, fe) {
				return false
			}
		}
		// No reads: defer to the write set post-step via the caller.
		fe.Class = faultinject.SilentExchangeBitflip
	}
	return false
}

// applyLateSilentFault lands an exchange bit flip on the step's write
// set after checksum maintenance has run: the flip is invisible to the
// incremental update and only a full verify can see it.
func (e *Engine) applyLateSilentFault(fe *faultinject.FaultError, writes []Ref) {
	if fe.Class != faultinject.SilentExchangeBitflip && fe.Class != faultinject.SilentLinkBitflip {
		return
	}
	for _, w := range writes {
		if e.flipOnChip(w, fe) {
			return
		}
	}
}

// flipOnChip flips one bit of r — restricted, on a multi-chip engine,
// to its first region held on the chip fe fired on — and reports
// whether anything was there to flip.
func (e *Engine) flipOnChip(r Ref, fe *faultinject.FaultError) bool {
	if e.chips > 1 {
		cfg, on := e.graph.cfg, Ref{}
		r.T.regionsIn(r.Start, r.End, func(s, end, tile int) {
			if on.T == nil && cfg.IPUOf(tile) == fe.Point.Device {
				on = Ref{T: r.T, Start: s, End: end}
			}
		})
		r = on
	}
	if r.Len() == 0 {
		return false
	}
	flipBit(r, fe)
	return true
}

// rebaselineChecksums recomputes all checksums from (just-restored)
// tensor data, trusting it pending probe validation.
func (e *Engine) rebaselineChecksums() {
	if e.guard == GuardOff {
		return
	}
	var n int64
	for i, t := range e.graph.tensors {
		e.freshSums(t, e.sums[i*e.chips:(i+1)*e.chips])
		n += int64(len(t.data))
	}
	e.dev.ChargeGuard(n)
}

// validateEpoch runs the armed probes against a restored checkpoint;
// nil means the epoch looks clean. Probes not yet armed at the epoch's
// step count are skipped (epoch 0 is therefore always acceptable).
func (e *Engine) validateEpoch(cp *checkpoint) error {
	if e.guard < GuardInvariants {
		return nil
	}
	for _, p := range e.probes {
		if cp.steps < p.ArmAfter {
			continue
		}
		e.dev.ChargeGuard(p.Cost)
		if err := p.Check(); err != nil {
			return err
		}
	}
	return nil
}

// rollbackPastPoison is certified rollback: walk the checkpoint ring
// newest→oldest, restore each epoch, re-baseline checksums, and accept
// the first epoch whose armed probes pass — discarding poisoned epochs
// instead of blindly resuming from the most recent one. Returns nil
// when a clean epoch was restored; otherwise ce (annotated with the
// poisoned-epoch count) when every reachable epoch is suspect.
func (e *Engine) rollbackPastPoison(ce *faultinject.CorruptionError) error {
	for len(e.cps) > 0 {
		cp := e.cps[len(e.cps)-1]
		e.restoreCheckpoint(cp)
		e.rebaselineChecksums()
		e.resetProbes()
		if e.validateEpoch(cp) == nil {
			e.report.RollbackEpochs += ce.PoisonedEpochs
			return nil
		}
		ce.PoisonedEpochs++
		e.drop(len(e.cps) - 1)
	}
	e.report.RollbackEpochs += ce.PoisonedEpochs
	return ce
}
