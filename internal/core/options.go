// Package core implements HunIPU, the paper's IPU-optimised Hungarian
// algorithm, on top of the poplar static-graph layer and the ipu
// machine model. The implementation follows Section IV of the paper:
//
//   - 1D row decomposition with an equal number of rows per tile
//     (Section IV-A; a 2D mode exists as the paper's rejected
//     alternative, for the ablation study);
//   - six-thread row-segment matrix compression (Section IV-B, Fig. 1);
//   - Step 1: initial subtraction with Poplar reduce ops (IV-C);
//   - Step 2: initial matching via compress + sort (IV-D, Fig. 2);
//   - Step 3: completion assessment on 32-element column segments (IV-E);
//   - Step 4: row zero-status search over the compressed matrix (IV-F);
//   - Step 5: path augmentation with the partition-and-distribute
//     dynamic-slicing strategy (IV-G, Figs. 3–4);
//   - Step 6: slack update with pairwise min search and re-compression
//     (IV-H).
package core

import (
	"fmt"
	"io"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// Options configures a HunIPU solver. The zero value selects the
// paper's published configuration on a Mk2 IPU.
type Options struct {
	// Config is the simulated device; zero value means ipu.MK2().
	Config ipu.Config

	// ColSegment is the column-segment length for col_cover/col_star
	// (Section IV-E empirically fixes 32). 0 means 32.
	ColSegment int

	// ThreadsPerRow is how many per-row segments (worker threads)
	// process each row (Section IV-B uses all 6 tile threads).
	// 0 means Config.ThreadsPerTile.
	ThreadsPerRow int

	// DisableCompression turns the Section IV-B compression scheme off
	// (ablation): Steps 2 and 4 then scan full rows of the slack
	// matrix instead of only the recorded zero positions.
	DisableCompression bool

	// Use2D switches to the 2D matrix decomposition the paper rejects
	// in Section IV-A (ablation): rows are split across column blocks
	// on different tiles, so every row-status step pays exchange.
	Use2D bool

	// Parallelism was host-side execution parallelism.
	//
	// Deprecated: ignored; solves always run serially.
	Parallelism int

	// MaxSupersteps bounds execution as a safety net. 0 means 2^40.
	MaxSupersteps int64

	// Profile fills Result.Profile with the solve's per-compute-set
	// breakdown. The engine counts every run, so Profile changes
	// neither the program a solve gets nor what it costs.
	Profile bool

	// TraceWriter, when non-nil, receives the solve's BSP timeline in
	// Chrome trace-event JSON after a successful run (open in
	// chrome://tracing or Perfetto). Recording is switched on for this
	// solve's run only, on the same shared program a plain solve gets.
	TraceWriter io.Writer

	// Epsilon is the zero tolerance for real-valued cost matrices:
	// slack entries with |v| ≤ Epsilon count as zeros. Leave 0 for
	// integer-valued matrices (exact arithmetic, the paper's
	// workloads); set ~1e-9·maxCost for float data such as raw GRAMPA
	// similarities.
	Epsilon float64

	// Fault installs a deterministic fault injector on the simulated
	// device (see internal/faultinject). Injected transient faults are
	// survived via checkpoint-resume when MaxRetries allows; fatal
	// faults surface as typed *faultinject.FaultError.
	Fault faultinject.Injector

	// MaxRetries bounds transient-fault recovery: how many times one
	// solve may resume from its last checkpoint (and how many times a
	// stalled host transfer is retried). 0 disables recovery.
	MaxRetries int

	// CheckpointEvery is the checkpoint cadence in program steps
	// (compute sets and copies). 0 means automatic: no checkpoints
	// unless Fault or MaxRetries make recovery active, then
	// poplar.DefaultCheckpointEvery.
	CheckpointEvery int64

	// Cache is the compiled-program cache this solver draws from. Nil
	// selects the process-wide DefaultCache, which is what applications
	// want: every same-fingerprint solve in the process then shares one
	// compiled program per shape. Tests that need isolation pass their
	// own NewProgramCache.
	Cache *ProgramCache

	// MinIPUs, when > 0, lets a solve on a multi-chip Config outlive
	// its chips: a fatal fault on one chip, or a chip the guard keeps
	// catching corrupting state, drops that chip, and the solve resumes
	// from its newest checkpoint on the program compiled for the
	// survivors — until fewer than MinIPUs chips remain, when it fails
	// with a *FabricError (see fabric.go). 0 keeps the single-device
	// contract: fatal faults surface as they are.
	MinIPUs int

	// Guard selects the silent-corruption defense (see poplar.GuardPolicy):
	// incremental tensor checksums, algorithm-level invariant probes over
	// the dual potentials, and mandatory output attestation. Off (the
	// zero value) adds no overhead and no protection. Any other level
	// maintains explicit dual-potential tensors, runs the guard at its
	// cadence, and certifies the final assignment against the original
	// cost matrix before returning it.
	Guard poplar.GuardPolicy
}

// withDefaults resolves zero values.
func (o Options) withDefaults() (Options, error) {
	if o.Config.Tiles() == 0 {
		o.Config = ipu.MK2()
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	if o.ColSegment == 0 {
		o.ColSegment = 32
	}
	if o.ColSegment < 0 {
		return o, fmt.Errorf("core: ColSegment = %d, want > 0", o.ColSegment)
	}
	if o.ThreadsPerRow == 0 {
		o.ThreadsPerRow = o.Config.ThreadsPerTile
	}
	if o.ThreadsPerRow < 0 {
		return o, fmt.Errorf("core: ThreadsPerRow = %d, want > 0", o.ThreadsPerRow)
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("core: Epsilon = %g, want ≥ 0", o.Epsilon)
	}
	if o.MaxRetries < 0 {
		return o, fmt.Errorf("core: MaxRetries = %d, want ≥ 0", o.MaxRetries)
	}
	if o.CheckpointEvery < 0 {
		return o, fmt.Errorf("core: CheckpointEvery = %d, want ≥ 0", o.CheckpointEvery)
	}
	if o.MinIPUs < 0 || o.MinIPUs > o.Config.IPUs {
		return o, fmt.Errorf("core: MinIPUs = %d, want in [0, %d]", o.MinIPUs, o.Config.IPUs)
	}
	if o.MinIPUs > 0 && o.Config.IPUs > maxFabricIPUs {
		return o, fmt.Errorf("core: %d IPUs, a fabric that survives chip losses has at most %d", o.Config.IPUs, maxFabricIPUs)
	}
	if o.Guard < poplar.GuardOff || o.Guard > poplar.GuardParanoid {
		return o, fmt.Errorf("core: Guard = %d, want a poplar.GuardPolicy", o.Guard)
	}
	return o, nil
}
