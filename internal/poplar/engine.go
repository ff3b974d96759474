package poplar

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"hunipu/internal/ipu"
)

// EngineOption configures engine behaviour.
type EngineOption func(*Engine)

// WithMaxSupersteps bounds execution as a runaway-loop backstop: a
// RepeatWhileTrue whose predicate never clears fails instead of
// hanging. Default: 2^40.
func WithMaxSupersteps(n int64) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.maxSteps = n
		}
	}
}

// CSProfile is the accumulated profile of one compute set across its
// executions since the engine was built or ResetReport last cleared it.
type CSProfile struct {
	Name          string
	Executions    int64
	ComputeCycles int64
	Vertices      int64
}

// Engine owns a compiled graph + program bound to a device. Compiling
// validates every static property Poplar validates: complete tile
// mappings, tile-memory fit (C2), and absence of intra-compute-set
// races (C1). Running charges the device under the BSP model (C3).
type Engine struct {
	graph    *Graph
	program  Program
	dev      *ipu.Device
	maxSteps int64

	compiledCS map[int]bool
	verified   *VerifyReport
	profile    []CSProfile // indexed by compute-set id
	trace      *traceLog
	ports      portBytes // compile-time exchange accumulator; empty after NewEngine
	reads      []Ref     // declared reads of the current step (guard and fault scratch)
	writes     []Ref     // declared writes of the current step (guard and fault scratch)

	// Recovery state (see recovery.go).
	ctx          context.Context
	retries      int
	cpEvery      int64 // configured cadence (0 = auto)
	cpLive       int64 // effective cadence for the current run
	steps        int64 // leaf steps executed this attempt (incl. replayed)
	decisions    []bool
	replayDecIdx int
	replaySkip   int64
	replaying    bool
	cps          []*checkpoint // ring, oldest first (see guardRingSize)
	free         [][][]float64 // recycled snapshot buffers, per tensor id
	report       RunReport

	// Guard state (see guard.go).
	guard        GuardPolicy
	chips        int // chips of the device; > 1 keeps per-chip checksums
	probes       []InvariantProbe
	sums         []uint64 // incremental checksums, one per (tensor, chip)
	chipSums     []uint64 // verify scratch, one per chip
	strikes      []int    // guard trips attributed to each chip this run
	pendingSince int64    // earliest undetected silent injection (-1: none)
	silentSeen   int      // silent injections applied this run
}

// NewEngine compiles the graph and program against the device.
func NewEngine(g *Graph, program Program, dev *ipu.Device, opts ...EngineOption) (*Engine, error) {
	if g.cfg.Tiles() != dev.Config().Tiles() {
		return nil, fmt.Errorf("poplar: graph targets %d tiles, device has %d",
			g.cfg.Tiles(), dev.Config().Tiles())
	}
	e := &Engine{
		graph:      g,
		program:    program,
		dev:        dev,
		maxSteps:   1 << 40,
		compiledCS: map[int]bool{},
		chips:      g.cfg.IPUs,
	}
	e.chipSums = make([]uint64, e.chips)
	e.strikes = make([]int, e.chips)
	e.free = make([][][]float64, len(g.tensors))
	// Every compute set's profile entry is bound here, once, so
	// executing one only adds to it.
	e.profile = make([]CSProfile, len(g.computeSets))
	for i, cs := range g.computeSets {
		e.profile[i].Name = cs.Name
	}
	for _, o := range opts {
		o(e)
	}
	if program == nil {
		return nil, fmt.Errorf("poplar: nil program")
	}
	// Ahead-of-run verification: mappings, per-tile memory (C2),
	// same-superstep hazards (C1), and program reachability — all
	// proven statically before any cycle is charged.
	e.verified = Verify(g, program)
	notifyVerifyObserver(e.verified)
	if err := e.verified.Err(); err != nil {
		return nil, err
	}
	// Charge every tensor's memory against the live device.
	for _, t := range g.tensors {
		if err := t.validateMapping(); err != nil {
			return nil, err
		}
		for _, r := range t.mapping {
			if err := dev.Alloc(r.Tile, int64(r.End-r.Start)*int64(t.DType.DeviceBytes())); err != nil {
				return nil, fmt.Errorf("poplar: tensor %q: %w", t.Name, err)
			}
		}
	}
	e.ports = portBytes{in: make([]int64, g.cfg.Tiles()), out: make([]int64, g.cfg.Tiles())}
	if err := program.compile(e); err != nil {
		return nil, err
	}
	e.ports = portBytes{}
	return e, nil
}

// Device returns the bound device (for stats and modeled time).
func (e *Engine) Device() *ipu.Device { return e.dev }

// VerifyReport returns the static verification report produced at
// engine construction. It is always clean (no findings) for a live
// engine — NewEngine refuses to build otherwise — but its Notes carry
// the C4 hot-spot flags for inspection.
func (e *Engine) VerifyReport() *VerifyReport { return e.verified }

// Profile returns the profiles of the compute sets executed since the
// engine was built or ResetReport last cleared them, sorted by
// descending compute cycles.
func (e *Engine) Profile() []CSProfile {
	out := make([]CSProfile, 0, len(e.profile))
	for _, p := range e.profile {
		if p.Executions > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ComputeCycles != out[j].ComputeCycles {
			return out[i].ComputeCycles > out[j].ComputeCycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Run executes the program once. Equivalent to RunContext with a
// background context.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

func (e *Engine) checkBudget() error {
	if e.dev.Stats().Supersteps > e.maxSteps {
		return fmt.Errorf("poplar: exceeded %d supersteps; non-terminating program? %w", e.maxSteps, errBudget)
	}
	return nil
}

// access is one declared vertex touch, for race detection.
type access struct {
	start, end int
	vertex     int
	write      bool
}

// portBytes accumulates one step's per-tile exchange bytes while the
// step compiles; exchange reduces them to the ipu.Exchange the step
// charges on every execution and clears them for the next step.
type portBytes struct {
	in, out []int64 // bytes received and sent, indexed by tile
	cross   int64   // bytes crossing chips
}

func (p *portBytes) exchange() ipu.Exchange {
	x := ipu.Exchange{CrossBytes: p.cross}
	for t, b := range p.in {
		x.TotalBytes += b
		x.MaxPortBytes = max(x.MaxPortBytes, b, p.out[t])
	}
	clear(p.in)
	clear(p.out)
	p.cross = 0
	return x
}

// compileComputeSet validates the compute set and precomputes its
// static exchange profile and per-tile vertex schedule.
func (e *Engine) compileComputeSet(cs *ComputeSet) error {
	if e.compiledCS[cs.id] {
		return nil
	}
	e.compiledCS[cs.id] = true
	cs.compiled = true
	cfg := e.graph.cfg

	// Vertex validation and race detection live in Verify (see
	// verify.go), which NewEngine runs before any compilation; this
	// pass only keeps the structural checks needed when a compute set
	// is compiled directly in tests, then builds the schedule.
	byTile := map[int][]Codelet{}
	for vi, v := range cs.vertices {
		if v.Tile < 0 || v.Tile >= cfg.Tiles() {
			return fmt.Errorf("poplar: compute set %q vertex %d on invalid tile %d", cs.Name, vi, v.Tile)
		}
		if v.Run == nil {
			return fmt.Errorf("poplar: compute set %q vertex %d has no codelet", cs.Name, vi)
		}
		for _, r := range v.reads {
			if r.T == nil {
				return fmt.Errorf("poplar: compute set %q vertex %d: nil tensor ref", cs.Name, vi)
			}
		}
		for _, r := range v.writes {
			if r.T == nil {
				return fmt.Errorf("poplar: compute set %q vertex %d: nil tensor ref", cs.Name, vi)
			}
			if !slices.Contains(cs.written, r.T) {
				cs.written = append(cs.written, r.T)
			}
		}
		byTile[v.Tile] = append(byTile[v.Tile], v.Run)
	}
	tiles := make([]int, 0, len(byTile))
	for t := range byTile {
		tiles = append(tiles, t)
	}
	sort.Ints(tiles)
	cs.sched = make([]tileStep, len(tiles))
	for i, t := range tiles {
		cs.sched[i] = tileStep{
			codelets: byTile[t],
			threads:  int64(cfg.ThreadsPerTile),
			overhead: cfg.VertexOverheadCycles,
			slots:    make([]int64, min(cfg.ThreadsPerTile, len(byTile[t]))),
		}
	}

	// Static exchange profile: any declared slice not resident on the
	// vertex's tile moves over the fabric. Reads are deduplicated per
	// (slice, receiving tile) and the sender is charged once per slice
	// regardless of how many tiles receive it — the IPU exchange
	// fabric multicasts, which is what makes the column-state
	// broadcasts of HunIPU's Steps 4 and 6 affordable. Writes are
	// point-to-point and charged per vertex.
	p := &e.ports
	type sliceKey struct {
		t          *Tensor
		start, end int
	}
	readers := map[sliceKey]map[int]bool{}
	for _, v := range cs.vertices {
		for _, r := range v.reads {
			k := sliceKey{r.T, r.Start, r.End}
			if readers[k] == nil {
				readers[k] = map[int]bool{}
			}
			readers[k][v.Tile] = true
		}
		for _, r := range v.writes {
			bytes := int64(r.T.DType.DeviceBytes())
			r.T.regionsIn(r.Start, r.End, func(s, eEnd, homeTile int) {
				if homeTile == v.Tile {
					return
				}
				b := int64(eEnd-s) * bytes
				p.out[v.Tile] += b
				p.in[homeTile] += b
				if cfg.IPUOf(homeTile) != cfg.IPUOf(v.Tile) {
					p.cross += b
				}
			})
		}
	}
	// Charge multicast reads in a deterministic order: slices sorted by
	// (tensor, start, end), receiving tiles sorted ascending.
	keys := make([]sliceKey, 0, len(readers))
	for k := range readers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.t.id != b.t.id {
			return a.t.id < b.t.id
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end < b.end
	})
	for _, k := range keys {
		tileSet := readers[k]
		tiles := make([]int, 0, len(tileSet))
		for tile := range tileSet {
			tiles = append(tiles, tile)
		}
		sort.Ints(tiles)
		bytes := int64(k.t.DType.DeviceBytes())
		k.t.regionsIn(k.start, k.end, func(s, eEnd, homeTile int) {
			b := int64(eEnd-s) * bytes
			sent := false
			crossed := false
			for _, tile := range tiles {
				if tile == homeTile {
					continue
				}
				p.in[tile] += b
				sent = true
				if cfg.IPUOf(homeTile) != cfg.IPUOf(tile) && !crossed {
					// One multicast crosses the IPU link once.
					p.cross += b
					crossed = true
				}
			}
			if sent {
				p.out[homeTile] += b
			}
		})
	}
	cs.exchange = p.exchange()
	return nil
}

// runComputeSet executes every vertex, tile by tile, and charges one
// BSP superstep for the slowest tile. It runs once per superstep per
// solve — the hottest loop in the engine — so hunipulint audits it and
// everything it reaches for per-execution allocation churn.
//
//hunipulint:hotpath
func (e *Engine) runComputeSet(cs *ComputeSet) error {
	var compute int64
	for i := range cs.sched {
		compute = max(compute, cs.sched[i].run())
	}
	var start int64
	if e.trace != nil {
		start = e.dev.Stats().TotalCycles()
	}
	p := &e.profile[cs.id]
	p.Executions++
	p.ComputeCycles += compute
	p.Vertices += int64(len(cs.vertices))
	e.dev.Superstep(compute, cs.exchange, int64(len(cs.vertices)))
	if e.trace != nil {
		e.trace.record(cs.Name, start, e.dev.Stats().TotalCycles(), len(cs.vertices))
	}
	return e.checkBudget()
}
