package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// This file is the multi-chip half of the solver: the paper notes that
// "on a multi-IPU architecture the exchange fabric extends to all tiles
// on all of the IPUs", so a K-chip solve is the same six-step program
// compiled over a K-chip tile space (Options.Config.IPUs = K), with
// row groups spread over the chips and cross-chip bytes priced at the
// IPU-Link rate. With Options.MinIPUs set, losing a chip is survivable:
// the loss loop below drops the chip, acquires the program compiled for
// the survivors through the topology-keyed ProgramCache, and resumes it
// from the newest checkpoint, on the same recovery, checkpoint and
// guard stack as every other solve.
//
// Inside a program chips are numbered 0..IPUs-1. Fault schedules and
// reports name chips by their original fabric index instead, so a
// device= rule keeps hitting the same chip after the survivors are
// renumbered: chipInjector translates on the way in, Fabric.translate
// on the way out.

// maxFabricIPUs bounds a fabric that survives chip losses: the lost
// set is a bit mask in the program key.
const maxFabricIPUs = 64

// Fabric reports the chips of a solve run with Options.MinIPUs set.
// It is returned with the Result whether or not the solve succeeded.
type Fabric struct {
	// Devices is the chip count the solve started on, Survivors the
	// count it ended on.
	Devices, Survivors int
	// Lost lists the original fabric indices of the chips the solve
	// dropped, in loss order.
	Lost []int
	// Quarantined lists the chips of Lost dropped because the guard
	// kept catching them corrupting state, rather than for a fatal
	// fault.
	Quarantined []int
	// Reshards counts the moves onto a survivor program.
	Reshards int

	chips []int // chips[i] = original index of the current program's chip i
}

// FabricError is the typed error a solve fails with when losses leave
// fewer than Options.MinIPUs chips. It wraps the fault or corruption
// that took the last chip, so errors.As against *faultinject.FaultError
// or *faultinject.CorruptionError classifies it like any other fault.
type FabricError struct {
	// Devices is the chip count the solve started on, Survivors the
	// count left, MinDevices the configured floor.
	Devices, Survivors, MinDevices int
	// Lost and Quarantined are as in Fabric.
	Lost, Quarantined []int
	// Err is the failure that took the last chip.
	Err error
}

// Error implements error.
func (e *FabricError) Error() string {
	return fmt.Sprintf("core: fabric of %d chip(s) failed: %d survivor(s) (min %d), lost %v, quarantined %v: %v",
		e.Devices, e.Survivors, e.MinDevices, e.Lost, e.Quarantined, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *FabricError) Unwrap() error { return e.Err }

// AsFabric unwraps err to its fabric report, if any.
func AsFabric(err error) (*FabricError, bool) {
	var fe *FabricError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

func newFabric(k int) *Fabric {
	f := &Fabric{Devices: k, Survivors: k, chips: make([]int, k)}
	for i := range f.chips {
		f.chips[i] = i
	}
	return f
}

// translate rewrites the chip an error names from the current
// program's numbering to the original fabric index.
func (f *Fabric) translate(err error) {
	if fe, ok := faultinject.AsFault(err); ok && fe.Point.Device < len(f.chips) {
		fe.Point.Device = f.chips[fe.Point.Device]
	}
	if ce, ok := faultinject.AsCorruption(err); ok && ce.Device >= 0 && ce.Device < len(f.chips) {
		ce.Device = f.chips[ce.Device]
	}
}

// lostChip names the chip a failed run loses (original index, -1 for
// none): the chip a fatal fault fired on, or the chip a guard trip is
// attributed to — the engine surfaces an attributed trip only once
// rollback has stopped helping, so that chip is quarantined.
func lostChip(err error) (chip int, quarantined bool) {
	if ce, ok := faultinject.AsCorruption(err); ok {
		return ce.Device, ce.Device >= 0
	}
	if fe, ok := faultinject.AsFault(err); ok && !fe.Transient() {
		return fe.Point.Device, false
	}
	return -1, false
}

// chipInjector shows the caller's injector each chip of a survivor
// program under its original fabric index, and hands faults back in
// the program's own numbering, which is where the engine lands their
// effects.
type chipInjector struct {
	inj   faultinject.Injector
	chips []int
}

// Check implements faultinject.Injector.
func (c chipInjector) Check(p faultinject.Point) *faultinject.FaultError {
	local := p.Device
	p.Device = c.chips[local]
	fe := c.inj.Check(p)
	if fe != nil {
		fe.Point.Device = local
	}
	return fe
}

// survivors returns the options of the program that runs on the chips
// left after dropping the lost set.
func (o Options) survivors(lost uint64) Options {
	if lost == 0 {
		return o
	}
	var chips []int
	for i := 0; i < o.Config.IPUs; i++ {
		if lost&(1<<i) == 0 {
			chips = append(chips, i)
		}
	}
	o.Config.IPUs = len(chips)
	if o.Fault != nil {
		o.Fault = chipInjector{inj: o.Fault, chips: chips}
	}
	return o
}

// runFabric runs the solve on cp — locked, input uploaded — and moves
// it across chip losses: each time a run loses a chip, the chip is
// dropped, the program for the survivors is acquired from the cache
// and locked, and the run resumes there from the lost run's newest
// checkpoint with the superstep clock still running. It returns the
// (locked) program the solve ended on, the recovery reports of the
// programs it left, and the final error with chips named by original
// index.
func (s *Solver) runFabric(ctx context.Context, c *lsap.Matrix, cp *CompiledProgram, f *Fabric) (*CompiledProgram, poplar.RunReport, error) {
	var (
		left poplar.RunReport
		lost uint64
		from *poplar.Checkpoint
		err  error
	)
	for {
		from, err = cp.eng.Resume(ctx, from)
		if err == nil {
			return cp, left, nil
		}
		f.translate(err)
		chip, quarantined := lostChip(err)
		if chip < 0 || ctx.Err() != nil {
			return cp, left, err
		}
		f.Lost = append(f.Lost, chip)
		if quarantined {
			f.Quarantined = append(f.Quarantined, chip)
		}
		f.chips = slices.DeleteFunc(f.chips, func(i int) bool { return i == chip })
		f.Survivors = len(f.chips)
		if f.Survivors < s.opts.MinIPUs || from == nil {
			return cp, left, &FabricError{
				Devices: f.Devices, Survivors: f.Survivors, MinDevices: s.opts.MinIPUs,
				Lost: slices.Clone(f.Lost), Quarantined: slices.Clone(f.Quarantined), Err: err,
			}
		}
		lost |= 1 << chip
		next, _, aerr := s.acquire(c.N, lost)
		if aerr != nil {
			f.translate(aerr)
			return cp, left, aerr
		}
		// Lock order follows the lost set, which only grows, so two
		// solves moving between programs can never wait on each other.
		next.mu.Lock()
		left = addReport(left, cp.eng.Report())
		next.dev.ResumeClock(cp.dev.Stats())
		next.eng.ResetReport()
		next.eng.SetTrace(s.opts.TraceWriter != nil)
		next.b.input, next.b.guardTol = cp.b.input, cp.b.guardTol
		cp.b.input = nil
		cp.eng.SetTrace(false)
		cp.dirty = true
		cp.mu.Unlock()
		cp = next
		cp.dirty = false // Resume overwrites every tensor
		f.Reshards++
	}
}

// addReport sums two recovery reports (the worst detection latency
// wins).
func addReport(a, b poplar.RunReport) poplar.RunReport {
	a.Retries += b.Retries
	a.CheckpointsSaved += b.CheckpointsSaved
	a.CheckpointsRestored += b.CheckpointsRestored
	a.GuardTrips += b.GuardTrips
	a.SilentFaults += b.SilentFaults
	a.RollbackEpochs += b.RollbackEpochs
	a.DetectionLatency = max(a.DetectionLatency, b.DetectionLatency)
	return a
}
