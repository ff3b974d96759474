package poplar

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"hunipu/internal/faultinject"
)

// DefaultCheckpointEvery is the checkpoint cadence (in leaf program
// steps) used when recovery is active but no explicit cadence was set.
const DefaultCheckpointEvery = 32

// WithRetry enables transient-fault recovery: up to n retries, each
// resuming from the last checkpoint at once. Faults fire on the
// superstep clock, not the wall clock, so waiting before a retry would
// change no outcome and only spend the caller's deadline.
func WithRetry(n int) EngineOption {
	return func(e *Engine) {
		if n >= 0 {
			e.retries = n
		}
	}
}

// WithCheckpointEvery sets the checkpoint cadence in leaf program
// steps (compute sets and copies). Zero keeps the default: no
// checkpointing unless retries or a device injector make recovery
// active, in which case DefaultCheckpointEvery applies.
func WithCheckpointEvery(n int64) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.cpEvery = n
		}
	}
}

// RunReport describes what recovery machinery did during a run.
type RunReport struct {
	// Retries counts transient faults survived (checkpoint restores for
	// superstep faults, plus host-transfer retry attempts).
	Retries int
	// CheckpointsSaved counts state snapshots taken.
	CheckpointsSaved int
	// CheckpointsRestored counts resumes from a snapshot.
	CheckpointsRestored int
	// GuardTrips counts silent-corruption detections: checksum
	// mismatches, invariant probe failures and watchdog verdicts, plus
	// the solver layer's own checks (NewCorruptionError).
	GuardTrips int
	// SilentFaults counts silent injections applied to live state.
	SilentFaults int
	// RollbackEpochs counts checkpoint epochs discarded as poisoned
	// during certified rollback.
	RollbackEpochs int
	// DetectionLatency is the worst observed gap, in supersteps, between
	// a silent injection and the guard trip that caught it (0 when no
	// trip occurred).
	DetectionLatency int64
}

// Report returns the recovery report accumulated since the engine was
// created or ResetReport was last called. Host-transfer retries happen
// outside RunContext, so the run itself never clears the report;
// callers reusing an engine across solves reset it per solve.
func (e *Engine) Report() RunReport { return e.report }

// ResetReport starts a new solve's report: it clears the recovery
// report, the profile counts and, while recording is on, the trace.
func (e *Engine) ResetReport() {
	e.report = RunReport{}
	for i := range e.profile {
		e.profile[i] = CSProfile{Name: e.profile[i].Name}
	}
	if e.trace != nil {
		e.trace.events = e.trace.events[:0]
	}
}

// checkpoint is a superstep-granularity snapshot of all solver state:
// every tensor's backing data (duals, matching, compressed offsets,
// control predicates — everything lives in tensors) plus the program
// position, encoded as the count of executed leaf steps and the length
// of the control-flow decision log at the time of the snapshot.
// Consecutive snapshots share the buffer of every tensor that did not
// change between them, so one buffer is held by a contiguous run of
// ring entries.
type checkpoint struct {
	data      [][]float64
	steps     int64
	decisions int
}

// saveCheckpoint snapshots all tensor state at the current position
// into the checkpoint ring (capacity guardRingSize, oldest evicted).
// Only tensors written since the previous snapshot are copied, into
// buffers recycled from the engine's free lists; a clean tensor shares
// the previous snapshot's buffer, so every snapshot equals a full copy.
// Keeping a ring rather than a single snapshot is what makes certified
// rollback possible: when a guard trip reveals that recent epochs are
// poisoned, recovery can reach back past them.
func (e *Engine) saveCheckpoint() {
	var cp *checkpoint
	if len(e.cps) >= guardRingSize {
		cp = e.drop(0)
	} else {
		cp = &checkpoint{data: make([][]float64, len(e.graph.tensors))}
	}
	var prev *checkpoint
	if len(e.cps) > 0 {
		prev = e.cps[len(e.cps)-1]
	}
	for i, t := range e.graph.tensors {
		if prev != nil && !t.dirty {
			cp.data[i] = prev.data[i]
			continue
		}
		var buf []float64
		if f := e.free[i]; len(f) > 0 {
			buf, e.free[i] = f[len(f)-1], f[:len(f)-1]
		}
		cp.data[i] = append(buf[:0], t.data...)
		t.dirty = false
	}
	cp.steps = e.steps
	cp.decisions = len(e.decisions)
	e.cps = append(e.cps, cp)
	e.report.CheckpointsSaved++
}

// drop removes the oldest (k = 0) or the newest ring entry and returns
// its buffers to the per-tensor free lists, except those its remaining
// neighbour shares: sharing only runs between neighbours, so no other
// entry can hold them.
func (e *Engine) drop(k int) *checkpoint {
	cp := e.cps[k]
	e.cps = slices.Delete(e.cps, k, k+1)
	var near *checkpoint
	if len(e.cps) > 0 {
		near = e.cps[min(k, len(e.cps)-1)]
	}
	for i, d := range cp.data {
		if len(d) > 0 && (near == nil || &near.data[i][0] != &d[0]) {
			e.free[i] = append(e.free[i], d)
		}
	}
	return cp
}

// restoreCheckpoint rewinds tensor state to the given snapshot and arms
// replay mode. Execution re-walks the program tree from the root:
// leaf steps are skipped (not executed, not charged) and control-flow
// decisions are consumed from the truncated log instead of being
// re-evaluated, until the walk reaches the exact snapshot position —
// at which point live execution resumes seamlessly. Device stats are
// deliberately NOT restored: retried work costs modeled time, and the
// monotone superstep clock keeps one-shot fault rules from refiring on
// the replayed prefix.
func (e *Engine) restoreCheckpoint(cp *checkpoint) {
	for i, t := range e.graph.tensors {
		copy(t.data, cp.data[i])
		t.dirty = false
	}
	e.decisions = e.decisions[:cp.decisions]
	e.replayDecIdx = 0
	e.replaySkip = cp.steps
	e.steps = 0
	e.replaying = cp.steps > 0 || cp.decisions > 0
	e.report.CheckpointsRestored++
}

// skipStep consumes one leaf step of the replayed prefix.
func (e *Engine) skipStep() error {
	if e.replaySkip <= 0 {
		return fmt.Errorf("poplar: checkpoint replay diverged (step count exhausted)")
	}
	e.replaySkip--
	e.steps++
	if e.replaySkip == 0 && e.replayDecIdx == len(e.decisions) {
		e.replaying = false
	}
	return nil
}

// replayDecision consumes one control-flow decision of the replayed
// prefix. The prefix always ends on a leaf step (checkpoints are taken
// right after one), so the log can never run dry while steps remain.
func (e *Engine) replayDecision() (bool, error) {
	if e.replayDecIdx >= len(e.decisions) {
		return false, fmt.Errorf("poplar: checkpoint replay diverged (decision log exhausted)")
	}
	d := e.decisions[e.replayDecIdx]
	e.replayDecIdx++
	return d, nil
}

// recordDecision appends a live control-flow decision to the log.
// Recording only happens while recovery is active; without it the log
// stays empty and replay is never armed.
func (e *Engine) recordDecision(branch bool) {
	if e.cpLive > 0 {
		e.decisions = append(e.decisions, branch)
	}
}

// afterStep advances the live step counter, verifies the guard on its
// cadence, and takes a checkpoint on the checkpoint cadence. The guard
// runs first so a snapshot is only taken from state the guard just
// vouched for: a detectable corruption can never be saved into an
// epoch (only probe-invisible corruption can poison one, which is what
// rollback validation is for).
func (e *Engine) afterStep() error {
	e.steps++
	if c := e.guardCadence(); c > 0 && e.steps%c == 0 {
		if err := e.guardVerify(); err != nil {
			return err
		}
	}
	if e.cpLive > 0 && e.steps%e.cpLive == 0 {
		e.saveCheckpoint()
	}
	return nil
}

// interrupted reports a context cancellation or deadline expiry. It is
// consulted once per leaf step and per live predicate sync, so a
// cancelled solve stops within one superstep.
func (e *Engine) interrupted() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// applyFaultEffect mutates device state the way the injected hardware
// fault would: exchange corruption scribbles NaN over the superstep's
// destination regions (a corrupted payload), a hard reset wipes every
// tensor (tile SRAM is gone). The scribble is what makes the chaos
// invariant meaningful — recovery must restore, not just retry.
func (e *Engine) applyFaultEffect(fe *faultinject.FaultError, writes []Ref) {
	switch fe.Class {
	case faultinject.ExchangeCorruption:
		for _, w := range writes {
			d := w.Data()
			for i := range d {
				d[i] = math.NaN()
			}
			w.T.dirty = true
		}
	case faultinject.DeviceReset:
		e.ZeroState()
	}
}

// Checkpoint is a snapshot a solve can carry from one engine to
// another compiled from the same program shape: tensor values in graph
// order, the count of executed leaf steps, and the control-flow
// decision log. None of it depends on tile placement, so a multi-chip
// solve that loses a chip resumes on the re-laid-out program exactly
// where it stopped.
type Checkpoint struct {
	data      [][]float64
	steps     int64
	decisions []bool
}

// RunContext executes the program once with cancellation, fault
// injection, and — when retries are configured or the device has an
// injector — superstep checkpointing and transient-fault recovery.
// Fatal faults (memory pressure, device reset) and exhausted retries
// surface as the typed *faultinject.FaultError; guard detections that
// recovery could not repair surface as *faultinject.CorruptionError;
// cancellation surfaces as ctx.Err().
func (e *Engine) RunContext(ctx context.Context) error {
	_, err := e.run(ctx, nil, false)
	return err
}

// Resume is RunContext starting from cp (nil: from the current tensor
// state). When the run fails it also hands back the run's newest
// checkpoint — taken, like every ring epoch, right after a passing
// guard verify — so the caller can move the solve onto another engine
// compiled from the same program shape. A cp whose tensors do not
// match this graph is rejected.
func (e *Engine) Resume(ctx context.Context, cp *Checkpoint) (*Checkpoint, error) {
	return e.run(ctx, cp, true)
}

func (e *Engine) run(ctx context.Context, from *Checkpoint, handBack bool) (out *Checkpoint, err error) {
	e.ctx = ctx
	e.decisions = e.decisions[:0]
	e.steps = 0
	e.replaying = false
	e.cps = e.cps[:0]
	e.pendingSince = -1
	e.silentSeen = 0
	clear(e.strikes)
	defer func() {
		var kept *checkpoint
		if err != nil && handBack && len(e.cps) > 0 {
			kept = e.cps[len(e.cps)-1]
			out = &Checkpoint{data: kept.data, steps: kept.steps, decisions: append([]bool(nil), e.decisions[:kept.decisions]...)}
		}
		// Snapshots are per-run, but their buffers stay with the engine
		// for the next run — except the handed-back one's, now the
		// caller's.
		for len(e.cps) > 0 && e.cps[0] != kept {
			e.drop(0)
		}
		e.cps = nil
	}()

	e.cpLive = e.cpEvery
	if e.cpLive == 0 && (from != nil || e.retries > 0 || e.dev.Injector() != nil) {
		e.cpLive = DefaultCheckpointEvery
	}
	if from != nil {
		if err := e.load(from); err != nil {
			return nil, err
		}
	}
	e.initGuard()
	e.resetProbes()
	if e.cpLive > 0 {
		e.saveCheckpoint() // checkpoint 0: the initial (or moved-in) state
		if from != nil {
			// Replay the program tree up to the moved-in position.
			e.restoreCheckpoint(e.cps[0])
		}
	}

	for attempt := 0; ; attempt++ {
		err := e.program.exec(e)
		if err == nil && e.guard != GuardOff {
			// Tail verify: corruption after the last cadence boundary must
			// not ride out on a "clean" completion.
			err = e.guardVerify()
		}
		if err == nil {
			return nil, nil
		}
		if errors.Is(err, errBudget) && e.guard != GuardOff && e.silentSeen > 0 {
			// A wedged loop with silent injections pending is most likely a
			// corrupted control predicate. The superstep clock is monotone
			// across restores, so re-execution cannot fit in the exhausted
			// budget: surface the typed corruption verdict directly.
			return nil, e.NewCorruptionError("watchdog", err)
		}
		if ce, ok := faultinject.AsCorruption(err); ok {
			if e.struckOut(ce) || attempt >= e.retries || len(e.cps) == 0 {
				return nil, err
			}
			e.report.Retries++
			// Certified rollback: discard poisoned epochs, resume from the
			// newest one that still validates.
			if rbErr := e.rollbackPastPoison(ce); rbErr != nil {
				return nil, rbErr
			}
			continue
		}
		if !faultinject.IsTransient(err) || attempt >= e.retries || len(e.cps) == 0 {
			return nil, err
		}
		e.report.Retries++
		e.restoreCheckpoint(e.cps[len(e.cps)-1])
		e.rebaselineChecksums()
		e.resetProbes()
	}
}

// load installs a moved-in checkpoint's tensor values and program
// position.
func (e *Engine) load(cp *Checkpoint) error {
	if len(cp.data) != len(e.graph.tensors) {
		return fmt.Errorf("poplar: checkpoint holds %d tensors, graph has %d", len(cp.data), len(e.graph.tensors))
	}
	for i, t := range e.graph.tensors {
		if len(cp.data[i]) != len(t.data) {
			return fmt.Errorf("poplar: checkpoint tensor %d has %d elements, %q has %d", i, len(cp.data[i]), t.Name, len(t.data))
		}
	}
	for i, t := range e.graph.tensors {
		copy(t.data, cp.data[i])
		t.dirty = true
	}
	e.decisions = append(e.decisions[:0], cp.decisions...)
	e.steps = cp.steps
	return nil
}

// struckOut counts a guard trip against the chip it names and reports
// whether that chip has reached guardMaxStrikes. Only multi-chip
// engines attribute trips, so single-chip recovery never strikes out.
func (e *Engine) struckOut(ce *faultinject.CorruptionError) bool {
	if ce.Device < 0 || ce.Device >= len(e.strikes) {
		return false
	}
	e.strikes[ce.Device]++
	return e.strikes[ce.Device] >= guardMaxStrikes
}

// HostWrite transfers host values into a tensor through the device's
// fault-injection barrier, retrying stalled transfers up to the
// engine's retry budget.
func (e *Engine) HostWrite(t *Tensor, vals []float64) error {
	return e.hostTransfer("host:write", faultinject.KindHostWrite, func() { t.HostWrite(vals) })
}

// HostRead transfers a tensor back to the host through the same
// barrier.
func (e *Engine) HostRead(t *Tensor) ([]float64, error) {
	var out []float64
	err := e.hostTransfer("host:read", faultinject.KindHostRead, func() { out = t.HostRead() })
	return out, err
}

func (e *Engine) hostTransfer(phase string, kind faultinject.Kind, do func()) error {
	for attempt := 0; ; attempt++ {
		fe := e.dev.CheckFault(phase, kind)
		if fe == nil {
			do()
			return nil
		}
		if !fe.Transient() || attempt >= e.retries {
			return fe
		}
		e.report.Retries++
	}
}
