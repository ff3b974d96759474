// Package gpu simulates a CUDA-style SIMT accelerator at the level the
// paper compares against: kernels launched over grids of thread
// blocks, 32-wide warps executing in lockstep, a global-memory
// latency/bandwidth hierarchy, per-kernel launch overhead, and atomic
// operations with serialisation under contention.
//
// Like the IPU simulator, this is a cost-model simulator: kernel
// bodies execute natively in Go (results are exact) while the device
// charges modeled cycles. The architectural effects the paper blames
// for FastHA's gap — warp divergence on variable-candidate scans,
// global-memory latency, and the launch overhead of its many small
// kernels — are all priced here:
//
//   - a warp's time is the maximum of its threads' times plus a
//     divergence penalty proportional to the imbalance between the
//     busiest and idlest lane (lockstep execution);
//   - global accesses charge full latency when uncoalesced and
//     amortised latency when coalesced, and all traffic is bounded by
//     memory bandwidth;
//   - every Launch pays a fixed overhead, so iteration-heavy
//     algorithms pay it thousands of times;
//   - atomics to the same address serialise.
package gpu

import (
	"fmt"
	"time"

	"hunipu/internal/faultinject"
)

// Config describes the simulated GPU.
type Config struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// WarpSize is the lockstep width (32 on NVIDIA hardware).
	WarpSize int
	// WarpSchedulers is how many warps an SM advances concurrently.
	WarpSchedulers int
	// MaxThreadsPerBlock bounds block size.
	MaxThreadsPerBlock int
	// ClockHz converts cycles to modeled seconds.
	ClockHz float64
	// GlobalLatency is the cycles of an uncoalesced global access.
	GlobalLatency int64
	// MemBytesPerCycle is global-memory bandwidth.
	MemBytesPerCycle float64
	// LaunchOverheadCycles is the fixed cost of one kernel launch.
	LaunchOverheadCycles int64
	// AtomicCycles is the cost of one uncontended atomic.
	AtomicCycles int64
	// HostSyncCycles is the cost of a blocking device-to-host readback
	// (cudaMemcpy of a scalar + stream synchronisation), which
	// host-driven Hungarian implementations pay on every branch
	// decision.
	HostSyncCycles int64
	// DivergencePenalty scales the warp imbalance charge: a warp with
	// busiest lane max and idlest lane min costs
	// max + DivergencePenalty·(max−min).
	DivergencePenalty float64
}

// A100 returns a configuration modeled on the NVIDIA A100-40GB the
// paper uses for FastHA: 108 SMs at 1.41 GHz, 1.56 TB/s HBM2.
func A100() Config {
	return Config{
		Name:                 "A100-40GB",
		SMs:                  108,
		WarpSize:             32,
		WarpSchedulers:       4,
		MaxThreadsPerBlock:   1024,
		ClockHz:              1.41e9,
		GlobalLatency:        400,
		MemBytesPerCycle:     1100, // ≈1.55 TB/s at 1.41 GHz
		LaunchOverheadCycles: 5600, // ≈4 µs
		AtomicCycles:         30,
		HostSyncCycles:       14100, // ≈10 µs
		DivergencePenalty:    1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SMs <= 0:
		return fmt.Errorf("gpu: SMs = %d, want ≥ 1", c.SMs)
	case c.WarpSize <= 0:
		return fmt.Errorf("gpu: WarpSize = %d, want ≥ 1", c.WarpSize)
	case c.WarpSchedulers <= 0:
		return fmt.Errorf("gpu: WarpSchedulers = %d, want ≥ 1", c.WarpSchedulers)
	case c.MaxThreadsPerBlock <= 0:
		return fmt.Errorf("gpu: MaxThreadsPerBlock = %d, want ≥ 1", c.MaxThreadsPerBlock)
	case c.ClockHz <= 0:
		return fmt.Errorf("gpu: ClockHz = %g, want > 0", c.ClockHz)
	case c.MemBytesPerCycle <= 0:
		return fmt.Errorf("gpu: MemBytesPerCycle = %g, want > 0", c.MemBytesPerCycle)
	case c.DivergencePenalty < 0:
		return fmt.Errorf("gpu: DivergencePenalty = %g, want ≥ 0", c.DivergencePenalty)
	}
	return nil
}

// Stats is the accumulated device profile.
type Stats struct {
	Kernels        int64
	Cycles         int64
	ComputeCycles  int64
	MemoryCycles   int64
	LaunchCycles   int64
	BytesAccessed  int64
	Atomics        int64
	DivergedCycles int64
	ThreadsRun     int64
	HostSyncs      int64
}

// Device is a simulated GPU: it prices kernel launches.
type Device struct {
	cfg      Config
	stats    Stats
	injector faultinject.Injector
}

// NewDevice creates a device.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg}, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the accumulated profile.
func (d *Device) Stats() Stats { return d.stats }

// ResetClock zeroes the counters (used to exclude setup from timings).
func (d *Device) ResetClock() { d.stats = Stats{} }

// SetInjector installs a fault injector consulted before every kernel
// launch; the launch count plays the role of the superstep clock. Pass
// nil to disable injection.
func (d *Device) SetInjector(inj faultinject.Injector) { d.injector = inj }

// CheckFault asks the injector whether a fault fires at the current
// point, using the completed-kernel count as the superstep coordinate.
func (d *Device) CheckFault(phase string, kind faultinject.Kind) *faultinject.FaultError {
	if d.injector == nil {
		return nil
	}
	return d.injector.Check(faultinject.Point{
		Superstep: d.stats.Kernels,
		Phase:     phase,
		Kind:      kind,
	})
}

// HostSync charges one blocking device-to-host readback: the cost a
// host driver pays to inspect a device scalar before deciding the next
// kernel (FastHA does this every iteration; HunIPU's on-device control
// flow is exactly how the paper avoids it).
func (d *Device) HostSync() {
	d.stats.HostSyncs++
	d.stats.Cycles += d.cfg.HostSyncCycles
}

// ModeledTime converts accumulated cycles to simulated wall time.
func (d *Device) ModeledTime() time.Duration {
	sec := float64(d.stats.Cycles) / d.cfg.ClockHz
	return time.Duration(sec * float64(time.Second))
}

// Kernel is a thread body: it receives the thread's coordinates and a
// charging context and runs native Go over captured slices.
type Kernel func(t *Thread)

// Thread is the per-thread execution context.
type Thread struct {
	// Block is the block index within the grid.
	Block int
	// Idx is the thread index within the block.
	Idx int
	// BlockDim is the number of threads per block.
	BlockDim int
	// GridDim is the number of blocks.
	GridDim int

	cycles  int64
	bytes   int64
	atomics map[int]int64
	dev     *Device
}

// GlobalID returns Block·BlockDim + Idx.
func (t *Thread) GlobalID() int { return t.Block*t.BlockDim + t.Idx }

// Charge adds n arithmetic cycles.
func (t *Thread) Charge(n int64) { t.cycles += n }

// GlobalCoalesced charges a coalesced global access of n bytes: the
// warp shares one transaction, so latency is amortised over the warp.
func (t *Thread) GlobalCoalesced(n int64) {
	t.bytes += n
	t.cycles += t.dev.cfg.GlobalLatency / int64(t.dev.cfg.WarpSize)
}

// GlobalRandom charges an uncoalesced (data-dependent) global access
// of n bytes at full latency — the pattern the variable-candidate
// steps of the Hungarian algorithm force on GPUs.
func (t *Thread) GlobalRandom(n int64) {
	t.bytes += n
	t.cycles += t.dev.cfg.GlobalLatency
}

// Atomic charges an atomic operation on the location key; atomics on
// the same key within one launch serialise.
func (t *Thread) Atomic(key int) {
	if t.atomics == nil {
		t.atomics = map[int]int64{}
	}
	t.atomics[key]++
	t.cycles += t.dev.cfg.AtomicCycles
}

// Launch runs a kernel over blocks×threadsPerBlock threads, executing
// bodies sequentially (deterministically) and charging the SIMT cost
// model. It returns the modeled cycles of this launch.
func (d *Device) Launch(name string, blocks, threadsPerBlock int, k Kernel) (int64, error) {
	if blocks <= 0 || threadsPerBlock <= 0 {
		return 0, fmt.Errorf("gpu: launch %q with grid %d×%d", name, blocks, threadsPerBlock)
	}
	if threadsPerBlock > d.cfg.MaxThreadsPerBlock {
		return 0, fmt.Errorf("gpu: launch %q block size %d exceeds max %d",
			name, threadsPerBlock, d.cfg.MaxThreadsPerBlock)
	}
	if fe := d.CheckFault(name, faultinject.KindSuperstep); fe != nil {
		return 0, fe
	}
	cfg := d.cfg
	warpsPerBlock := (threadsPerBlock + cfg.WarpSize - 1) / cfg.WarpSize

	var totalBytes int64
	atomicTotals := map[int]int64{}
	blockTimes := make([]int64, blocks)

	warpCycles := make([]int64, cfg.WarpSize)
	for b := 0; b < blocks; b++ {
		var blockSum, blockMax int64
		for wp := 0; wp < warpsPerBlock; wp++ {
			warpCycles = warpCycles[:0]
			for lane := 0; lane < cfg.WarpSize; lane++ {
				idx := wp*cfg.WarpSize + lane
				if idx >= threadsPerBlock {
					break
				}
				th := Thread{Block: b, Idx: idx, BlockDim: threadsPerBlock, GridDim: blocks, dev: d}
				k(&th)
				warpCycles = append(warpCycles, th.cycles)
				totalBytes += th.bytes
				for key, c := range th.atomics {
					atomicTotals[key] += c
				}
				d.stats.ThreadsRun++
			}
			var wMax, wMin int64
			if len(warpCycles) > 0 {
				wMax, wMin = warpCycles[0], warpCycles[0]
				for _, c := range warpCycles[1:] {
					if c > wMax {
						wMax = c
					}
					if c < wMin {
						wMin = c
					}
				}
			}
			diverged := int64(cfg.DivergencePenalty * float64(wMax-wMin))
			d.stats.DivergedCycles += diverged
			wt := wMax + diverged
			blockSum += wt
			if wt > blockMax {
				blockMax = wt
			}
		}
		// Warps share the SM's schedulers; a block cannot finish faster
		// than its slowest warp.
		bt := blockSum / int64(cfg.WarpSchedulers)
		if bt < blockMax {
			bt = blockMax
		}
		blockTimes[b] = bt
	}

	// Blocks are scheduled over the SMs in waves.
	var compute int64
	for lo := 0; lo < blocks; lo += cfg.SMs {
		hi := lo + cfg.SMs
		if hi > blocks {
			hi = blocks
		}
		var waveMax int64
		for _, bt := range blockTimes[lo:hi] {
			if bt > waveMax {
				waveMax = bt
			}
		}
		compute += waveMax
	}

	// Atomic serialisation: contended addresses bottleneck the kernel.
	var atomicSerial int64
	var atomicCount int64
	for _, c := range atomicTotals {
		atomicCount += c
		if s := c * cfg.AtomicCycles; s > atomicSerial {
			atomicSerial = s
		}
	}
	if atomicSerial > compute {
		compute = atomicSerial
	}

	memory := int64(float64(totalBytes) / cfg.MemBytesPerCycle)
	body := compute
	if memory > body {
		body = memory
	}
	total := cfg.LaunchOverheadCycles + body

	d.stats.Kernels++
	d.stats.Cycles += total
	d.stats.ComputeCycles += compute
	d.stats.MemoryCycles += memory
	d.stats.LaunchCycles += cfg.LaunchOverheadCycles
	d.stats.BytesAccessed += totalBytes
	d.stats.Atomics += atomicCount
	return total, nil
}
