// Package ipu simulates a Graphcore-style Intelligence Processing Unit
// at the level the HunIPU paper designs against: a MIMD grid of tiles,
// each with a small private SRAM and six hardware worker threads,
// connected by an all-to-all exchange fabric and executing under
// Valiant's Bulk-Synchronous Parallel (BSP) model.
//
// The simulator is a *cost-model* simulator: codelets execute natively
// in Go (so results are exact) while every BSP superstep is charged
// compute, synchronisation, and exchange cycles from the machine model.
// The four design constraints the paper enumerates are enforced or
// charged here and in package poplar:
//
//	C1 — no atomic operations: package poplar rejects compute sets in
//	     which two vertices write overlapping tensor regions.
//	C2 — modest tile memory: allocations are tracked per tile and a
//	     graph that exceeds TileMemory bytes fails to compile.
//	C3 — BSP synchronisation: a superstep costs the *maximum* tile
//	     time plus a fixed sync overhead, so imbalance is paid for.
//	C4 — slow dynamic operations: exchange traffic is charged per
//	     byte moved between tiles, so dynamic slicing strategies have
//	     measurably different costs.
package ipu

import (
	"errors"
	"fmt"
	"time"

	"hunipu/internal/faultinject"
)

// Config describes the simulated device.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// IPUs is the number of chips; tiles are numbered across all of them.
	IPUs int
	// TilesPerIPU is the tile count of one chip.
	TilesPerIPU int
	// ThreadsPerTile is the number of hardware worker threads per tile.
	ThreadsPerTile int
	// TileMemory is the per-tile SRAM size in bytes.
	TileMemory int
	// ClockHz converts cycles to modeled seconds.
	ClockHz float64
	// ExchangeBytesPerCycle is the per-tile exchange bandwidth, in
	// bytes per cycle in each direction, for on-chip traffic.
	ExchangeBytesPerCycle float64
	// InterIPUBytesPerCycle is the per-tile bandwidth for traffic that
	// crosses chips (IPU-Link), lower than on-chip exchange.
	InterIPUBytesPerCycle float64
	// SyncCycles is the fixed overhead of one BSP synchronisation.
	SyncCycles int64
	// ExchangeLatencyCycles is the fixed setup cost of an exchange
	// phase that moves at least one byte.
	ExchangeLatencyCycles int64
	// VertexOverheadCycles is the fixed dispatch cost of one vertex.
	VertexOverheadCycles int64
}

// MK2 returns the configuration of a Colossus MK2 GC200 IPU as the
// paper describes it: 1472 tiles, 6 threads per tile, 624 KiB SRAM per
// tile, 1.325 GHz clock, ~8 TB/s aggregate exchange.
func MK2() Config {
	return Config{
		Name:           "Mk2-GC200",
		IPUs:           1,
		TilesPerIPU:    1472,
		ThreadsPerTile: 6,
		TileMemory:     624 * 1024,
		ClockHz:        1.325e9,
		// The Mk2 exchange sustains ~11 GB/s per tile (8 B/cycle at
		// 1.325 GHz); compiled exchange has only a short setup cost and
		// on-chip sync completes in well under 100 ns.
		ExchangeBytesPerCycle: 8.0,
		InterIPUBytesPerCycle: 0.5,
		SyncCycles:            100,
		ExchangeLatencyCycles: 100,
		VertexOverheadCycles:  24,
	}
}

// MK1 returns the first-generation Colossus GC2 configuration: 1216
// tiles with 256 KiB each at 1.6 GHz. Useful for cross-generation
// scaling studies; note the smaller tile memory fails to fit the
// largest matrices that Mk2 handles.
func MK1() Config {
	cfg := MK2()
	cfg.Name = "Mk1-GC2"
	cfg.TilesPerIPU = 1216
	cfg.TileMemory = 256 * 1024
	cfg.ClockHz = 1.6e9
	cfg.ExchangeBytesPerCycle = 4.0
	return cfg
}

// BOW returns the Bow-2000 configuration: a wafer-on-wafer Mk2 with
// the same tile grid clocked ~40% higher.
func BOW() Config {
	cfg := MK2()
	cfg.Name = "Bow-2000"
	cfg.ClockHz = 1.85e9
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.IPUs <= 0:
		return fmt.Errorf("ipu: IPUs = %d, want ≥ 1", c.IPUs)
	case c.TilesPerIPU <= 0:
		return fmt.Errorf("ipu: TilesPerIPU = %d, want ≥ 1", c.TilesPerIPU)
	case c.ThreadsPerTile <= 0:
		return fmt.Errorf("ipu: ThreadsPerTile = %d, want ≥ 1", c.ThreadsPerTile)
	case c.TileMemory <= 0:
		return fmt.Errorf("ipu: TileMemory = %d, want > 0", c.TileMemory)
	case c.ClockHz <= 0:
		return fmt.Errorf("ipu: ClockHz = %g, want > 0", c.ClockHz)
	case c.ExchangeBytesPerCycle <= 0:
		return fmt.Errorf("ipu: ExchangeBytesPerCycle = %g, want > 0", c.ExchangeBytesPerCycle)
	case c.IPUs > 1 && c.InterIPUBytesPerCycle <= 0:
		// A zero IPU-Link bandwidth would silently price cross-chip
		// traffic at +Inf cycles in Superstep.
		return fmt.Errorf("ipu: InterIPUBytesPerCycle = %g with %d IPUs, want > 0", c.InterIPUBytesPerCycle, c.IPUs)
	case c.SyncCycles < 0:
		return fmt.Errorf("ipu: SyncCycles = %d, want ≥ 0", c.SyncCycles)
	case c.ExchangeLatencyCycles < 0:
		return fmt.Errorf("ipu: ExchangeLatencyCycles = %d, want ≥ 0", c.ExchangeLatencyCycles)
	case c.VertexOverheadCycles < 0:
		return fmt.Errorf("ipu: VertexOverheadCycles = %d, want ≥ 0", c.VertexOverheadCycles)
	}
	return nil
}

// CapacityError reports that a problem shape cannot fit the simulated
// fabric: even with the rows of one shard spread evenly over a chip's
// tiles, some tile would exceed its SRAM (the paper's constraint C2).
// It is a typed pre-flight error so callers fail fast with the
// limiting constraint named, instead of failing deep inside poplar's
// per-tensor allocation walk.
type CapacityError struct {
	// N is the problem size (an N×N cost matrix).
	N int
	// Shards is how many row-block shards the matrix was split into
	// (1 for an unsharded solve; the chip count for a sharded fabric).
	Shards int
	// RowsPerTile is the derived per-tile row load.
	RowsPerTile int
	// NeedBytes is the minimum per-tile footprint of those rows.
	NeedBytes int64
	// TileMemory is the per-tile budget that NeedBytes exceeds.
	TileMemory int64
	// Constraint names the violated design constraint.
	Constraint string
}

// Error implements error.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("ipu: %s: n=%d over %d shard(s) needs %d rows/tile = %d bytes, tile budget %d",
		e.Constraint, e.N, e.Shards, e.RowsPerTile, e.NeedBytes, e.TileMemory)
}

// AsCapacity unwraps err to its capacity report, if any.
func AsCapacity(err error) (*CapacityError, bool) {
	var ce *CapacityError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// ValidateProblem checks that an n×n cost matrix, split row-block-wise
// into the given number of shards with each shard mapped onto one
// chip's TilesPerIPU tiles, can fit: the rows landing on the busiest
// tile must at least hold their float64 slack row within TileMemory.
// The estimate is deliberately conservative (slack storage only, no
// auxiliary tensors), so a nil return never guarantees compilation —
// but a CapacityError proves the shape impossible before any graph is
// built. Shards ≤ 0 means one shard per chip (c.IPUs).
func (c Config) ValidateProblem(n, shards int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = c.IPUs
	}
	rowsPerShard := (n + shards - 1) / shards
	rowsPerTile := (rowsPerShard + c.TilesPerIPU - 1) / c.TilesPerIPU
	need := int64(rowsPerTile) * int64(n) * 8
	if need > int64(c.TileMemory) {
		return &CapacityError{
			N:           n,
			Shards:      shards,
			RowsPerTile: rowsPerTile,
			NeedBytes:   need,
			TileMemory:  int64(c.TileMemory),
			Constraint:  "C2 tile memory",
		}
	}
	return nil
}

// Tiles is the total tile count across all chips.
func (c Config) Tiles() int { return c.IPUs * c.TilesPerIPU }

// IPUOf returns which chip a tile lives on.
func (c Config) IPUOf(tile int) int { return tile / c.TilesPerIPU }

// Stats accumulates the modeled execution profile of a device.
type Stats struct {
	Supersteps     int64
	ComputeCycles  int64
	SyncCycles     int64
	ExchangeCycles int64
	BytesExchanged int64
	VerticesRun    int64
	// GuardCycles prices the silent-corruption guard layer (checksum
	// maintenance and verification, invariant probes) so its overhead is
	// visible in the model rather than free. Zero with GuardPolicy off.
	GuardCycles int64
}

// TotalCycles is the modeled end-to-end cycle count.
func (s Stats) TotalCycles() int64 {
	return s.ComputeCycles + s.SyncCycles + s.ExchangeCycles + s.GuardCycles
}

// Device is a simulated IPU system: it owns per-tile memory accounting
// and the BSP cycle clock. Graph construction and execution live in
// package poplar; the device only prices what it is told happened.
type Device struct {
	cfg       Config
	allocated []int64 // bytes allocated per tile
	stats     Stats
	injector  faultinject.Injector
}

// NewDevice creates a device for the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg, allocated: make([]int64, cfg.Tiles())}, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the accumulated execution profile.
func (d *Device) Stats() Stats { return d.stats }

// ResetClock zeroes the cycle counters (memory stays allocated). Used
// to exclude graph-construction or host-transfer phases from timings.
func (d *Device) ResetClock() { d.stats = Stats{} }

// ResumeClock sets the cycle counters to s, so a solve that moves onto
// this device mid-run (after losing a chip of its old one) keeps its
// superstep clock monotone and its modeled cycles cumulative.
func (d *Device) ResumeClock(s Stats) { d.stats = s }

// SetInjector installs a fault injector consulted at every superstep,
// host transfer, and allocation. Pass nil to disable injection.
func (d *Device) SetInjector(inj faultinject.Injector) { d.injector = inj }

// Injector returns the installed fault injector (nil when none).
func (d *Device) Injector() faultinject.Injector { return d.injector }

// CheckFault asks the injector whether a fault fires at the current
// point in execution, once per chip in ascending chip order; the first
// fault wins and its Point.Device names the chip it fired on. A
// single-chip device makes exactly one check, as chip 0. The superstep
// coordinate is the device's completed-superstep count, which is
// monotone within a run — retries after a checkpoint restore keep the
// clock moving, so one-shot rules do not refire on the replayed prefix.
// Returns nil without an injector.
func (d *Device) CheckFault(phase string, kind faultinject.Kind) *faultinject.FaultError {
	if d.injector == nil {
		return nil
	}
	for chip := 0; chip < d.cfg.IPUs; chip++ {
		fe := d.injector.Check(faultinject.Point{
			Superstep: d.stats.Supersteps,
			Phase:     phase,
			Kind:      kind,
			Device:    chip,
		})
		if fe != nil {
			return fe
		}
	}
	return nil
}

// ModeledTime converts the accumulated cycles to simulated wall time.
func (d *Device) ModeledTime() time.Duration {
	sec := float64(d.stats.TotalCycles()) / d.cfg.ClockHz
	return time.Duration(sec * float64(time.Second))
}

// Alloc reserves n bytes on a tile, failing if the tile SRAM would
// overflow (constraint C2).
func (d *Device) Alloc(tile int, n int64) error {
	if tile < 0 || tile >= len(d.allocated) {
		return fmt.Errorf("ipu: tile %d out of range [0,%d)", tile, len(d.allocated))
	}
	if n < 0 {
		return fmt.Errorf("ipu: negative allocation %d", n)
	}
	if d.allocated[tile]+n > int64(d.cfg.TileMemory) {
		return fmt.Errorf("ipu: tile %d memory exceeded: %d + %d > %d bytes",
			tile, d.allocated[tile], n, d.cfg.TileMemory)
	}
	if fe := d.CheckFault("alloc", faultinject.KindAlloc); fe != nil {
		return fe
	}
	d.allocated[tile] += n
	return nil
}

// Allocated returns the bytes currently reserved on a tile.
func (d *Device) Allocated(tile int) int64 { return d.allocated[tile] }

// MaxAllocated returns the most loaded tile's allocation, for reports.
func (d *Device) MaxAllocated() int64 {
	var max int64
	for _, a := range d.allocated {
		if a > max {
			max = a
		}
	}
	return max
}

// Exchange is one superstep's data movement, fixed when the graph
// compiles (C4): the busiest tile port's bytes in either direction,
// the total bytes moved (each byte counted once, on the receiver
// side), and the part of that total which crosses chips.
type Exchange struct {
	MaxPortBytes, TotalBytes, CrossBytes int64
}

// Superstep charges one BSP superstep: the compute phase costs the
// slowest tile's time computeCycles (C3), the sync phase a fixed
// overhead, and the exchange phase prices the busiest port against the
// fabric bandwidth, plus the cross-chip bytes against the IPU-Link
// bandwidth and a latency if anything moved at all.
func (d *Device) Superstep(computeCycles int64, x Exchange, vertices int64) {
	d.stats.Supersteps++
	d.stats.VerticesRun += vertices
	d.stats.ComputeCycles += computeCycles
	d.stats.SyncCycles += d.cfg.SyncCycles
	if x.TotalBytes > 0 {
		ex := d.cfg.ExchangeLatencyCycles +
			int64(float64(x.MaxPortBytes)/d.cfg.ExchangeBytesPerCycle)
		if x.CrossBytes > 0 {
			ex += int64(float64(x.CrossBytes) / float64(d.cfg.Tiles()) / d.cfg.InterIPUBytesPerCycle)
		}
		d.stats.ExchangeCycles += ex
		d.stats.BytesExchanged += x.TotalBytes
	}
}

// ChargeSync adds one bare synchronisation (used by control-flow
// predicate checks, which on hardware cost a sync but no exchange).
func (d *Device) ChargeSync() {
	d.stats.SyncCycles += d.cfg.SyncCycles
}

// ChargeGuard prices n cycles of guard-layer work (checksum updates,
// full verifies, invariant probes). Kept separate from compute cycles
// so reports can expose the detection/throughput trade-off directly.
func (d *Device) ChargeGuard(n int64) {
	if n > 0 {
		d.stats.GuardCycles += n
	}
}

// TileTime models the barrel-pipeline thread scheduler of one tile:
// each hardware thread issues once per ThreadsPerTile device cycles, so
// a vertex with w work-cycles occupies 6·w device cycles of wall time,
// and vertices are distributed round-robin over the threads. The tile's
// compute time is the busiest thread's total.
func (c Config) TileTime(vertexCycles []int64) int64 {
	t := c.ThreadsPerTile
	if len(vertexCycles) == 0 {
		return 0
	}
	threads := make([]int64, t)
	for i, w := range vertexCycles {
		threads[i%t] += w + c.VertexOverheadCycles
	}
	var max int64
	for _, v := range threads {
		if v > max {
			max = v
		}
	}
	return max * int64(t)
}
