// Package poplar reproduces, in Go, the subset of Graphcore's Poplar
// SDK that the HunIPU paper programs against: a *static* computation
// graph of tensors with explicit tile mappings, compute sets of
// vertices (codelets), and control-flow programs (Sequence, Repeat,
// RepeatWhileTrue, If, Copy), compiled and executed by an Engine on a
// simulated ipu.Device.
//
// Everything about the graph — tensor shapes, tile mappings, vertex
// connections, and the data exchange they imply — is fixed before
// execution, exactly as the paper's C4 constraint describes. The
// engine validates memory fit (C2) and rejects intra-compute-set data
// races (C1) at compile time, and charges every executed step under
// the BSP model (C3).
package poplar

import (
	"fmt"
	"sort"

	"hunipu/internal/ipu"
)

// DType is a device element type. The simulator stores every element
// in a float64 for exactness, but charges device memory at the real
// element width: the paper's slack matrix is FLOAT (4 bytes), the
// compress matrix INT (4 bytes), and cover flags BOOL (1 byte).
type DType int

// Supported element types.
const (
	Float DType = iota
	Int
	Bool
)

// DeviceBytes is the on-device width of the type.
func (d DType) DeviceBytes() int {
	if d == Bool {
		return 1
	}
	return 4
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Region maps the flattened index interval [Start, End) of a tensor to
// one tile's memory.
type Region struct {
	Start, End int
	Tile       int
}

// Tensor is a multi-dimensional variable with static shape and an
// explicit tile mapping. The backing data lives host-side in the
// simulator but is charged to tile SRAM at compile time.
type Tensor struct {
	Name  string
	DType DType
	Shape []int

	id      int
	data    []float64
	mapping []Region // sorted by Start; must cover [0, len(data)) at compile
	// dirty marks data changed since the engine's newest checkpoint,
	// which then copies this tensor instead of sharing the previous
	// snapshot's buffer (see saveCheckpoint).
	dirty bool
}

// NumElements returns the flattened length.
func (t *Tensor) NumElements() int { return len(t.data) }

// Rows returns Shape[0] for matrices (panics on non-2D tensors).
func (t *Tensor) Rows() int {
	if len(t.Shape) != 2 {
		panic("poplar: Rows on non-2D tensor " + t.Name)
	}
	return t.Shape[0]
}

// Cols returns Shape[1] for matrices (panics on non-2D tensors).
func (t *Tensor) Cols() int {
	if len(t.Shape) != 2 {
		panic("poplar: Cols on non-2D tensor " + t.Name)
	}
	return t.Shape[1]
}

// Ref is a reference to a contiguous slice [Start, End) of a tensor's
// flattened elements: the unit of vertex connection and of exchange
// accounting.
type Ref struct {
	T          *Tensor
	Start, End int
}

// Slice returns a reference to elements [start, end).
func (t *Tensor) Slice(start, end int) Ref {
	if start < 0 || end > len(t.data) || start > end {
		panic(fmt.Sprintf("poplar: slice [%d,%d) out of bounds for %q (len %d)",
			start, end, t.Name, len(t.data)))
	}
	return Ref{T: t, Start: start, End: end}
}

// All references the whole tensor.
func (t *Tensor) All() Ref { return t.Slice(0, len(t.data)) }

// Index references a single element.
func (t *Tensor) Index(i int) Ref { return t.Slice(i, i+1) }

// RowRef references row i of a 2D tensor.
func (t *Tensor) RowRef(i int) Ref {
	c := t.Cols()
	return t.Slice(i*c, (i+1)*c)
}

// Data returns the live backing slice of the reference. Codelets
// capture these at graph-construction time; the engine's race checks
// guarantee that concurrent vertices never alias a written region.
func (r Ref) Data() []float64 { return r.T.data[r.Start:r.End] }

// Len returns the element count of the reference.
func (r Ref) Len() int { return r.End - r.Start }

// Graph is a static computation graph under construction: tensors,
// compute sets and host-exchange declarations. It is bound to a device
// configuration (for tile counts) but owns no cycles until an Engine
// compiles and runs it.
type Graph struct {
	cfg         ipu.Config
	tensors     []*Tensor
	computeSets []*ComputeSet
	names       map[string]*Tensor
}

// NewGraph creates an empty graph targeting the given configuration.
func NewGraph(cfg ipu.Config) *Graph {
	return &Graph{cfg: cfg, names: map[string]*Tensor{}}
}

// Config returns the target configuration.
func (g *Graph) Config() ipu.Config { return g.cfg }

// AddVariable declares a tensor. Shape must be static (C4); the tensor
// is unusable until a tile mapping covers it.
func (g *Graph) AddVariable(name string, dtype DType, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("poplar: negative dimension in %q", name))
		}
		n *= s
	}
	if _, dup := g.names[name]; dup {
		panic(fmt.Sprintf("poplar: duplicate tensor name %q", name))
	}
	t := &Tensor{
		Name:  name,
		DType: dtype,
		Shape: append([]int(nil), shape...),
		id:    len(g.tensors),
		data:  make([]float64, n),
	}
	g.tensors = append(g.tensors, t)
	g.names[name] = t
	return t
}

// Tensor looks a tensor up by name (nil if absent).
func (g *Graph) Tensor(name string) *Tensor { return g.names[name] }

// SetTileMapping assigns elements [start, end) of t to a tile.
// Mappings may be built from multiple calls but must not overlap.
func (g *Graph) SetTileMapping(t *Tensor, tile, start, end int) {
	if tile < 0 || tile >= g.cfg.Tiles() {
		panic(fmt.Sprintf("poplar: tile %d out of range for %q", tile, t.Name))
	}
	if start < 0 || end > len(t.data) || start > end {
		panic(fmt.Sprintf("poplar: mapping [%d,%d) out of bounds for %q", start, end, t.Name))
	}
	if start == end {
		return
	}
	t.mapping = append(t.mapping, Region{Start: start, End: end, Tile: tile})
}

// MapLinearly spreads the tensor over all tiles in equal contiguous
// chunks (the default Poplar utility mapping).
func (g *Graph) MapLinearly(t *Tensor) {
	n := len(t.data)
	if n == 0 {
		return
	}
	tiles := g.cfg.Tiles()
	chunk := (n + tiles - 1) / tiles
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		g.SetTileMapping(t, start/chunk, start, end)
	}
}

// MapRowBlocks maps a 2D tensor so tile k owns the contiguous block of
// rows [k·rowsPerTile, (k+1)·rowsPerTile): the paper's 1D decomposition
// (Section IV-A), with an equal number of rows per tile for balance.
func (g *Graph) MapRowBlocks(t *Tensor, rowsPerTile int) {
	if rowsPerTile <= 0 {
		panic("poplar: rowsPerTile must be positive")
	}
	rows, cols := t.Rows(), t.Cols()
	for r := 0; r < rows; r += rowsPerTile {
		endRow := r + rowsPerTile
		if endRow > rows {
			endRow = rows
		}
		g.SetTileMapping(t, (r/rowsPerTile)%g.cfg.Tiles(), r*cols, endRow*cols)
	}
}

// MapSegments partitions a 1D tensor into fixed-size segments mapped to
// consecutive tiles (the paper's Step-3 strategy: col_cover and
// col_star in 32-element segments, one per tile).
func (g *Graph) MapSegments(t *Tensor, segSize int) {
	if segSize <= 0 {
		panic("poplar: segSize must be positive")
	}
	n := len(t.data)
	for s, k := 0, 0; s < n; s, k = s+segSize, k+1 {
		end := s + segSize
		if end > n {
			end = n
		}
		g.SetTileMapping(t, k%g.cfg.Tiles(), s, end)
	}
}

// MapAllTo places the whole tensor on a single tile.
func (g *Graph) MapAllTo(t *Tensor, tile int) {
	g.SetTileMapping(t, tile, 0, len(t.data))
}

// validateMapping sorts and checks that the mapping covers the tensor
// exactly once.
func (t *Tensor) validateMapping() error {
	if len(t.data) == 0 {
		return nil
	}
	if len(t.mapping) == 0 {
		return fmt.Errorf("poplar: tensor %q has no tile mapping", t.Name)
	}
	sort.Slice(t.mapping, func(i, j int) bool { return t.mapping[i].Start < t.mapping[j].Start })
	pos := 0
	for _, r := range t.mapping {
		if r.Start != pos {
			return fmt.Errorf("poplar: tensor %q mapping gap/overlap at element %d", t.Name, pos)
		}
		pos = r.End
	}
	if pos != len(t.data) {
		return fmt.Errorf("poplar: tensor %q mapping covers %d of %d elements", t.Name, pos, len(t.data))
	}
	return nil
}

// regionsIn yields the (interval, tile) decomposition of [start, end)
// under the tensor's mapping. Must be called after validateMapping.
func (t *Tensor) regionsIn(start, end int, fn func(s, e, tile int)) {
	// Binary search for the first region containing start.
	i := sort.Search(len(t.mapping), func(k int) bool { return t.mapping[k].End > start })
	for ; i < len(t.mapping) && t.mapping[i].Start < end; i++ {
		s, e := t.mapping[i].Start, t.mapping[i].End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		fn(s, e, t.mapping[i].Tile)
	}
}

// TileOf returns the tile owning element i (compile-time information;
// panics if the mapping does not cover i).
func (t *Tensor) TileOf(i int) int {
	tile := -1
	t.regionsIn(i, i+1, func(_, _, tl int) { tile = tl })
	if tile < 0 {
		panic(fmt.Sprintf("poplar: element %d of %q is unmapped", i, t.Name))
	}
	return tile
}
