package poplar

import (
	"fmt"

	"hunipu/internal/ipu"
)

// Worker is the execution context handed to a codelet. It accumulates
// the vertex's modeled work in thread-cycles; helpers encode the cost
// idioms the paper relies on (e.g. processing two floats per cycle).
type Worker struct {
	cycles int64
}

// Charge adds n work-cycles (one scalar operation each).
func (w *Worker) Charge(n int64) { w.cycles += n }

// ChargeVec adds the cost of streaming n float elements with the IPU's
// two-floats-at-a-time load/store path (Sections IV-C, IV-H).
func (w *Worker) ChargeVec(n int64) { w.cycles += (n + 1) / 2 }

// ChargeSort adds the cost of sorting n elements (n·log2 n compares).
func (w *Worker) ChargeSort(n int64) {
	if n <= 1 {
		w.Charge(1)
		return
	}
	log := int64(0)
	for v := n; v > 1; v >>= 1 {
		log++
	}
	w.Charge(n * log)
}

// Codelet is the body of a vertex: plain Go that reads and writes the
// tensor slices captured at graph-construction time and charges its
// modeled cost to the worker.
type Codelet func(w *Worker)

// Vertex is one task instance placed on a tile, with its declared data
// dependencies. The engine uses Reads/Writes both for exchange-cost
// accounting and for compile-time race detection (C1).
type Vertex struct {
	Tile   int
	Run    Codelet
	reads  []Ref
	writes []Ref
}

// ComputeSet groups vertices that execute in one BSP compute phase.
// Within a compute set no vertex may write a region another vertex
// touches: the engine rejects such graphs at compile time, mirroring
// the IPU's lack of atomics.
type ComputeSet struct {
	Name     string
	id       int
	vertices []*Vertex

	// compiled state (filled by Engine.compile): the step's exchange,
	// reduced to the figures a superstep charges, the tensors its
	// vertices declare writes to, and the vertex schedule, one entry
	// per tile that runs vertices in ascending tile order. Laid out
	// once so the superstep loop (Engine.runComputeSet) reads no map
	// and allocates nothing; safe to reuse across runs because a
	// compiled program serializes them (see core.CompiledProgram).
	compiled bool
	exchange ipu.Exchange
	written  []*Tensor
	sched    []tileStep
}

// tileStep is one tile's share of a compute set, fixed at compile
// time: its codelets in declaration order, the tile's thread count and
// per-vertex dispatch overhead, and one busy-cycle slot per thread its
// vertices occupy.
type tileStep struct {
	codelets []Codelet
	threads  int64
	overhead int64
	slots    []int64 // min(threads, len(codelets)) entries
	// One Worker per tile, not per vertex: &w escapes into the codelet
	// call, so a loop-local Worker would heap-allocate once per vertex
	// per superstep.
	w Worker
}

// run executes the tile's vertices and returns its modeled compute
// time. As each vertex returns, its work plus the dispatch overhead is
// added into its round-robin thread slot, which is
// ipu.Config.TileTime's sum in the same order. The first round of
// vertices sets the slots, so none needs zeroing.
func (t *tileStep) run() int64 {
	k := 0
	for i, run := range t.codelets {
		t.w.cycles = t.overhead
		run(&t.w)
		if i < len(t.slots) {
			t.slots[k] = t.w.cycles
		} else {
			t.slots[k] += t.w.cycles
		}
		if k++; k == len(t.slots) {
			k = 0
		}
	}
	var busiest int64
	for _, s := range t.slots {
		busiest = max(busiest, s)
	}
	return busiest * t.threads
}

// AddComputeSet declares a new, empty compute set.
func (g *Graph) AddComputeSet(name string) *ComputeSet {
	cs := &ComputeSet{Name: name, id: len(g.computeSets)}
	g.computeSets = append(g.computeSets, cs)
	return cs
}

// AddVertex places a codelet on a tile. Data dependencies are declared
// with Reads/Writes on the returned vertex; undeclared access to data
// on other tiles would silently be free, so codelets must declare every
// slice they touch (tests enforce this for the HunIPU codelets by
// checking exchange totals).
func (cs *ComputeSet) AddVertex(tile int, run Codelet) *Vertex {
	if cs.compiled {
		panic(fmt.Sprintf("poplar: compute set %q modified after compile", cs.Name))
	}
	v := &Vertex{Tile: tile, Run: run}
	cs.vertices = append(cs.vertices, v)
	return v
}

// Reads declares slices the vertex consumes.
func (v *Vertex) Reads(refs ...Ref) *Vertex {
	v.reads = append(v.reads, refs...)
	return v
}

// Writes declares slices the vertex produces (or updates in place).
func (v *Vertex) Writes(refs ...Ref) *Vertex {
	v.writes = append(v.writes, refs...)
	return v
}

// NumVertices returns the vertex count (for balance diagnostics).
func (cs *ComputeSet) NumVertices() int { return len(cs.vertices) }
