package core

import (
	"fmt"

	"hunipu/internal/poplar"
)

// builder assembles the static HunIPU graph for one problem size. All
// shapes, mappings and compute sets are fixed here, before execution,
// per the IPU's static-graph requirement (C4).
type builder struct {
	o Options
	g *poplar.Graph
	n int

	rowsPerTile int // rows per row-group (per tile in 1D mode)
	numBlocks   int // number of row groups
	colBlocks   int // column blocks per row (1 in 1D mode, >1 in 2D)
	threads     int // per-row segments (six worker threads)
	segLen      int // columns per thread segment
	utilTile    int // tile hosting scalars and path state

	// Matrix tensors (n×n), mapped by mapMatrix.
	slack        *poplar.Tensor // Float: the slack matrix S
	compress     *poplar.Tensor // Int: zero positions per thread segment (Fig. 1)
	sortCompress *poplar.Tensor // Int: row-sorted copy for Step 2 (Fig. 2)

	// Row-aligned vectors (element i on row i's home tile).
	rowStar    *poplar.Tensor // Int: column of the star in row i, or −1
	rowPrime   *poplar.Tensor // Int: column of the prime in row i, or −1
	rowCover   *poplar.Tensor // Int: 1 when row i is covered
	rowMin     *poplar.Tensor // Float: Step-1 row minima
	zeroStatus *poplar.Tensor // Int: Step-4 state −1/0/1 per row
	uncovCol   *poplar.Tensor // Int: the uncovered zero Step 4 found, or −1
	uncovReq   *poplar.Tensor // Int: column-uncover requests from priming
	propose    *poplar.Tensor // Int: Step-2 star proposals per row
	accept     *poplar.Tensor // Int: Step-2 resolved stars per row
	rowZeros   *poplar.Tensor // Int: total zeros per row (for η)
	rowMinU    *poplar.Tensor // Float: Step-6 per-row uncovered minima

	// Per-(row,segment) tensors, row-aligned.
	zeroCount *poplar.Tensor // Int [n, threads]: zeros per thread segment
	rowSegMin *poplar.Tensor // Float [n, threads]: Step-6 segment minima

	// Column-segment tensors (32-element segments across tiles, IV-E).
	colStar  *poplar.Tensor // Int: row of the star in column j, or −1
	colCover *poplar.Tensor // Int: 1 when column j is covered
	colMin   *poplar.Tensor // Float: Step-1 column minima

	// Guard-layer tensors (created only when Options.Guard is active, so
	// the guard-off program shape is byte-identical to before): explicit
	// LP dual potentials, updated atomically in the same compute sets
	// that update slack, so slack ≡ input − u − v holds at every
	// superstep boundary — the ABFT identity the invariant probes check
	// and the certificate the final attestation verifies.
	dualU *poplar.Tensor // Float [n], row-aligned: row potentials u
	dualV *poplar.Tensor // Float [n], column-segmented: column potentials v

	// input is the pristine cost matrix of the current solve (host-side
	// copy, captured before execution) for guard probes and attestation.
	input []float64
	// guardTol is the probe/attestation tolerance for the current solve.
	guardTol float64

	// Step 1's staging buffer: one n-wide row per row group, into which
	// col_min is copied once so each row subtracts it locally.
	bcast *poplar.Tensor // Float [numBlocks, n]

	// Column-min partials for Step 1 (per row group).
	colMinPart *poplar.Tensor // Float [numBlocks, n]

	// Path-augmentation state on the utility tile (Section IV-G).
	greenRow *poplar.Tensor // Int [n+1]: rows of the alternating path
	greenCol *poplar.Tensor // Int [n+1]: columns of the alternating path

	// Scalars (all on the utility tile unless noted).
	pathLen    *poplar.Tensor // Int
	curCol     *poplar.Tensor // Int: column of the prime being traversed
	curRow     *poplar.Tensor // Int: row of the prime being traversed
	startRow   *poplar.Tensor // Int: augmentation start row
	startCol   *poplar.Tensor // Int
	starRowT   *poplar.Tensor // Int: dynamic-slice result of col_star
	nextColT   *poplar.Tensor // Int: dynamic-slice result of row_prime
	pathActive *poplar.Tensor // Bool
	starFound  *poplar.Tensor // Bool
	eta        *poplar.Tensor // Int: max zeros per row (Step 2)
	cursor     *poplar.Tensor // Int: Step-2 sorted-column cursor
	s2go       *poplar.Tensor // Bool: Step-2 loop predicate
	covSum     *poplar.Tensor // Int: covered-column count
	notDone    *poplar.Tensor // Bool: outer loop predicate
	statusMax  *poplar.Tensor // Int: Step-4 reduction result
	isPos      *poplar.Tensor // Bool: statusMax == 1
	isNeg      *poplar.Tensor // Bool: statusMax == −1
	notAug     *poplar.Tensor // Bool: inner loop predicate
	minU       *poplar.Tensor // Float: Step-6 minimum uncovered value
	pathErr    *poplar.Tensor // Bool: invariant violation flag
}

// newBuilder lays out every tensor for an n×n problem.
func newBuilder(o Options, n int) (*builder, error) {
	b := &builder{o: o, g: poplar.NewGraph(o.Config), n: n}
	tiles := o.Config.Tiles()

	b.threads = o.ThreadsPerRow
	if b.threads > n && n > 0 {
		b.threads = n
	}
	if b.threads == 0 {
		b.threads = 1
	}
	b.segLen = (n + b.threads - 1) / b.threads

	b.colBlocks = 1
	if o.Use2D {
		// The rejected 2D decomposition: split each row over 4 column
		// blocks on distinct tiles.
		b.colBlocks = 4
		if b.colBlocks > n && n > 0 {
			b.colBlocks = n
		}
	}
	rowTiles := tiles / b.colBlocks
	if o.MinIPUs > 0 {
		// A solve that survives chip losses lays its rows out for the
		// smallest fabric it may shrink to, so every survivor program has
		// the same row groups (and tensor shapes) and a checkpoint moves
		// between them unchanged; only the groups' chip placement differs.
		rowTiles = o.MinIPUs * o.Config.TilesPerIPU / b.colBlocks
	}
	if rowTiles == 0 {
		rowTiles = 1
	}
	// Rows are balanced over the row tiles: the paper's ceil(n/tiles).
	b.rowsPerTile = (n + rowTiles - 1) / rowTiles
	if b.rowsPerTile == 0 {
		b.rowsPerTile = 1
	}
	b.numBlocks = (n + b.rowsPerTile - 1) / b.rowsPerTile
	if b.numBlocks == 0 {
		b.numBlocks = 1
	}
	chips := o.Config.IPUs
	if perChip := (b.numBlocks + chips - 1) / chips; perChip*b.colBlocks > o.Config.TilesPerIPU {
		return nil, fmt.Errorf("core: n=%d needs %d tiles per chip, a chip has %d",
			n, perChip*b.colBlocks, o.Config.TilesPerIPU)
	}
	// Scalars and path state live on the last tile not used by the
	// matrix grid, keeping the most loaded tiles inside 624 KiB.
	b.utilTile = tiles - 1
	if b.utilTile <= b.blockTile(b.numBlocks-1)+b.colBlocks-1 {
		b.utilTile = 0
	}

	g := b.g
	b.slack = g.AddVariable("slack", poplar.Float, n, n)
	b.compress = g.AddVariable("compress", poplar.Int, n, n)
	b.sortCompress = g.AddVariable("sort_compress", poplar.Int, n, n)
	for _, t := range []*poplar.Tensor{b.slack, b.compress, b.sortCompress} {
		b.mapMatrix(t)
	}

	b.rowStar = b.rowVec("row_star")
	b.rowPrime = b.rowVec("row_prime")
	b.rowCover = b.rowVec("row_cover")
	b.zeroStatus = b.rowVec("zero_status")
	b.uncovCol = b.rowVec("uncov_col")
	b.uncovReq = b.rowVec("uncov_req")
	b.propose = b.rowVec("propose")
	b.accept = b.rowVec("accept")
	b.rowZeros = b.rowVec("row_zeros")

	b.rowMin = g.AddVariable("row_min", poplar.Float, n)
	b.rowMinU = g.AddVariable("row_min_uncov", poplar.Float, n)
	b.mapRowAligned(b.rowMin, 1)
	b.mapRowAligned(b.rowMinU, 1)

	b.zeroCount = g.AddVariable("zero_count", poplar.Int, n, b.threads)
	b.rowSegMin = g.AddVariable("row_seg_min", poplar.Float, n, b.threads)
	b.mapRowAligned(b.zeroCount, b.threads)
	b.mapRowAligned(b.rowSegMin, b.threads)

	b.colStar = g.AddVariable("col_star", poplar.Int, n)
	b.colCover = g.AddVariable("col_cover", poplar.Int, n)
	b.colMin = g.AddVariable("col_min", poplar.Float, n)
	for _, t := range []*poplar.Tensor{b.colStar, b.colCover, b.colMin} {
		g.MapSegments(t, b.o.ColSegment)
	}

	if o.Guard != poplar.GuardOff {
		b.dualU = g.AddVariable("dual_u", poplar.Float, n)
		b.mapRowAligned(b.dualU, 1)
		b.dualV = g.AddVariable("dual_v", poplar.Float, n)
		g.MapSegments(b.dualV, b.o.ColSegment)
	}

	b.bcast = g.AddVariable("bcast", poplar.Float, b.numBlocks, n)
	b.colMinPart = g.AddVariable("col_min_part", poplar.Float, b.numBlocks, n)
	for blk := 0; blk < b.numBlocks; blk++ {
		g.SetTileMapping(b.bcast, b.blockTile(blk), blk*n, (blk+1)*n)
		g.SetTileMapping(b.colMinPart, b.blockTile(blk), blk*n, (blk+1)*n)
	}

	b.greenRow = g.AddVariable("green_row", poplar.Int, n+1)
	b.greenCol = g.AddVariable("green_col", poplar.Int, n+1)
	g.MapAllTo(b.greenRow, b.utilTile)
	g.MapAllTo(b.greenCol, b.utilTile)

	for _, s := range []struct {
		t  **poplar.Tensor
		nm string
		dt poplar.DType
	}{
		{&b.pathLen, "path_len", poplar.Int},
		{&b.curCol, "cur_col", poplar.Int},
		{&b.curRow, "cur_row", poplar.Int},
		{&b.startRow, "start_row", poplar.Int},
		{&b.startCol, "start_col", poplar.Int},
		{&b.starRowT, "star_row_t", poplar.Int},
		{&b.nextColT, "next_col_t", poplar.Int},
		{&b.pathActive, "path_active", poplar.Bool},
		{&b.starFound, "star_found", poplar.Bool},
		{&b.eta, "eta", poplar.Int},
		{&b.cursor, "cursor", poplar.Int},
		{&b.s2go, "s2go", poplar.Bool},
		{&b.covSum, "cov_sum", poplar.Int},
		{&b.notDone, "not_done", poplar.Bool},
		{&b.statusMax, "status_max", poplar.Int},
		{&b.isPos, "is_pos", poplar.Bool},
		{&b.isNeg, "is_neg", poplar.Bool},
		{&b.notAug, "not_aug", poplar.Bool},
		{&b.minU, "min_uncov", poplar.Float},
		{&b.pathErr, "path_err", poplar.Bool},
	} {
		*s.t = g.AddVariable(s.nm, s.dt, 1)
		g.MapAllTo(*s.t, b.utilTile)
	}
	return b, nil
}

// blockTile is the home tile of row group blk (its column block 0).
// Row groups are spread evenly over the chips in order, lower chips
// taking the remainder, so a multi-chip solve puts rows on every chip;
// on a single chip this is blk*colBlocks.
func (b *builder) blockTile(blk int) int {
	chips := b.o.Config.IPUs
	base, extra := b.numBlocks/chips, b.numBlocks%chips
	// Chips below extra hold base+1 groups each, the rest base.
	var chip, first int
	if big := extra * (base + 1); blk < big {
		chip = blk / (base + 1)
		first = chip * (base + 1)
	} else {
		chip = extra + (blk-big)/base
		first = big + (chip-extra)*base
	}
	return chip*b.o.Config.TilesPerIPU + (blk-first)*b.colBlocks
}

// rowTile is the home tile of row i.
func (b *builder) rowTile(i int) int { return b.blockTile(i / b.rowsPerTile) }

// blockRows returns the row interval [lo, hi) of group blk.
func (b *builder) blockRows(blk int) (int, int) {
	lo := blk * b.rowsPerTile
	hi := lo + b.rowsPerTile
	if hi > b.n {
		hi = b.n
	}
	return lo, hi
}

// segCols returns the column interval [lo, hi) of thread segment s.
func (b *builder) segCols(s int) (int, int) {
	lo := s * b.segLen
	hi := lo + b.segLen
	if hi > b.n {
		hi = b.n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// mapMatrix maps an n×n tensor: 1D row blocks (the paper's choice) or
// the rejected 2D grid, where each row group's columns are split over
// colBlocks consecutive tiles.
func (b *builder) mapMatrix(t *poplar.Tensor) {
	n := b.n
	for blk := 0; blk < b.numBlocks; blk++ {
		lo, hi := b.blockRows(blk)
		if b.colBlocks == 1 {
			b.g.SetTileMapping(t, b.blockTile(blk), lo*n, hi*n)
			continue
		}
		chunk := (n + b.colBlocks - 1) / b.colBlocks
		for r := lo; r < hi; r++ {
			for cb := 0; cb < b.colBlocks; cb++ {
				cLo := cb * chunk
				cHi := cLo + chunk
				if cHi > n {
					cHi = n
				}
				if cLo >= cHi {
					continue
				}
				b.g.SetTileMapping(t, b.blockTile(blk)+cb, r*n+cLo, r*n+cHi)
			}
		}
	}
}

// rowVec declares an Int [n] tensor with element i on row i's tile.
func (b *builder) rowVec(name string) *poplar.Tensor {
	t := b.g.AddVariable(name, poplar.Int, b.n)
	b.mapRowAligned(t, 1)
	return t
}

// mapRowAligned maps a tensor with perRow elements per row so that row
// i's elements live on row i's home tile.
func (b *builder) mapRowAligned(t *poplar.Tensor, perRow int) {
	for blk := 0; blk < b.numBlocks; blk++ {
		lo, hi := b.blockRows(blk)
		b.g.SetTileMapping(t, b.blockTile(blk), lo*perRow, hi*perRow)
	}
}

// bcastProgram stages an n-element column-state tensor into every row
// group's local bcast row: each group reads the tensor once over the
// fabric, split across the tile's six worker threads. Step 1 stages
// col_min this way once per solve. Steps 4 and 6 read col_cover where it
// lives instead: the exchange already multicasts a remote read once to
// each receiving tile, so a copy before every step would cost a
// superstep and a thread pass per row group, more than the second
// multicast of Step 6's segments that it would save (IV-A).
func (b *builder) bcastProgram(src *poplar.Tensor, name string) poplar.Program {
	cs := b.g.AddComputeSet(name)
	for blk := 0; blk < b.numBlocks; blk++ {
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			if lo == hi {
				continue
			}
			in := src.Slice(lo, hi)
			dst := b.bcast.Slice(blk*b.n+lo, blk*b.n+hi)
			cs.AddVertex(b.blockTile(blk), func(w *poplar.Worker) {
				copy(dst.Data(), in.Data())
				w.ChargeVec(int64(in.Len()))
			}).Reads(in).Writes(dst)
		}
	}
	return poplar.Execute(cs)
}

// gatherScalar wraps poplar.DynamicSlice (the paper's Fig. 4
// partition-and-distribute slice).
func (b *builder) gatherScalar(src, idx, out *poplar.Tensor, miss float64, name string) poplar.Program {
	return poplar.DynamicSlice(b.g, src, idx, out, miss, name)
}

// scatterScalar wraps poplar.DynamicUpdate (the write-side
// partition-and-distribute update used by Step 5's flips).
func (b *builder) scatterScalar(dst, idx, val *poplar.Tensor, name string) poplar.Program {
	return poplar.DynamicUpdate(b.g, dst, idx, val, name)
}

// setScalars builds a single-vertex compute set on the utility tile
// that runs fn over the named scalars; used for predicate updates.
func (b *builder) setScalars(name string, fn func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)), reads, writes []*poplar.Tensor) poplar.Program {
	cs := b.g.AddComputeSet(name)
	refs := map[*poplar.Tensor]poplar.Ref{}
	var rRefs, wRefs []poplar.Ref
	for _, t := range reads {
		refs[t] = t.All()
		rRefs = append(rRefs, refs[t])
	}
	for _, t := range writes {
		if _, ok := refs[t]; !ok {
			refs[t] = t.All()
		}
		wRefs = append(wRefs, refs[t])
	}
	cs.AddVertex(b.utilTile, func(w *poplar.Worker) {
		fn(
			func(t *poplar.Tensor) float64 { return refs[t].Data()[0] },
			func(t *poplar.Tensor, v float64) { refs[t].Data()[0] = v },
		)
		w.Charge(int64(len(refs)) + 2)
	}).Reads(rRefs...).Writes(wRefs...)
	return poplar.Execute(cs)
}

// checkInvariants verifies the final device state against the
// algorithm's invariants (DESIGN.md §5): non-negative slack, stars on
// zeros, and consistent star tables. It reads device tensors host-side
// after the run; the test suite calls it on cached programs.
func (b *builder) checkInvariants(a []int) error {
	eps := b.o.Epsilon
	slack := b.slack.HostRead()
	for i, v := range slack {
		if v < -eps {
			return fmt.Errorf("core: invariant violated: slack[%d,%d] = %g < 0",
				i/b.n, i%b.n, v)
		}
	}
	colStar := b.colStar.HostRead()
	for i, j := range a {
		if s := slack[i*b.n+j]; !isZero(s, eps) {
			return fmt.Errorf("core: invariant violated: star (%d,%d) on slack %g ≠ 0", i, j, s)
		}
		if int(colStar[j]) != i {
			return fmt.Errorf("core: invariant violated: col_star[%d] = %g, want %d",
				j, colStar[j], i)
		}
	}
	return nil
}
