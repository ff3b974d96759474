package ipuauction

import (
	"math"

	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// auctionBuilder lays out the static auction graph: benefits in a 1D
// row decomposition (as HunIPU maps its slack matrix), prices and
// ownership in column segments, bids row-aligned, and the ε-scaling
// state on a utility tile.
type auctionBuilder struct {
	g           *poplar.Graph
	n           int
	rowsPerTile int
	numBlocks   int
	utilTile    int

	benefit  *poplar.Tensor // Float [n,n], row blocks
	price    *poplar.Tensor // Float [n], column segments
	owner    *poplar.Tensor // Int [n], column segments
	assigned *poplar.Tensor // Int [n], row-aligned
	bidJ     *poplar.Tensor // Int [n], row-aligned: object each bidder wants
	bidAmt   *poplar.Tensor // Float [n], row-aligned

	maxB     *poplar.Tensor // Float scalar
	eps      *poplar.Tensor // Float scalar
	phaseGo  *poplar.Tensor // Bool scalar
	roundGo  *poplar.Tensor // Bool scalar
	epsMin   *poplar.Tensor // Float scalar: the ε floor, set by the host
	epsStart *poplar.Tensor // Float scalar: a warm run's first ε, set by the host; 0 on a cold run
}

// newAuctionBuilder lays out an n×n auction (n ≥ 1) over ⌈n/tiles⌉
// rows per tile, so the row blocks always fit the device's tiles.
func newAuctionBuilder(cfg ipu.Config, n int) *auctionBuilder {
	b := &auctionBuilder{g: poplar.NewGraph(cfg), n: n}
	tiles := cfg.Tiles()
	b.rowsPerTile = (n + tiles - 1) / tiles
	b.numBlocks = (n + b.rowsPerTile - 1) / b.rowsPerTile
	b.utilTile = tiles - 1
	if b.utilTile < b.numBlocks {
		b.utilTile = 0
	}

	g := b.g
	b.benefit = g.AddVariable("benefit", poplar.Float, n, n)
	for blk := 0; blk < b.numBlocks; blk++ {
		lo, hi := b.blockRows(blk)
		g.SetTileMapping(b.benefit, blk, lo*n, hi*n)
	}
	b.price = g.AddVariable("price", poplar.Float, n)
	b.owner = g.AddVariable("owner", poplar.Int, n)
	g.MapSegments(b.price, 32)
	g.MapSegments(b.owner, 32)

	for _, v := range []struct {
		t  **poplar.Tensor
		nm string
		dt poplar.DType
	}{
		{&b.assigned, "assigned", poplar.Int},
		{&b.bidJ, "bid_j", poplar.Int},
		{&b.bidAmt, "bid_amt", poplar.Float},
	} {
		*v.t = g.AddVariable(v.nm, v.dt, n)
		for blk := 0; blk < b.numBlocks; blk++ {
			lo, hi := b.blockRows(blk)
			g.SetTileMapping(*v.t, blk, lo, hi)
		}
	}
	for _, v := range []struct {
		t  **poplar.Tensor
		nm string
		dt poplar.DType
	}{
		{&b.maxB, "max_b", poplar.Float},
		{&b.eps, "eps", poplar.Float},
		{&b.phaseGo, "phase_go", poplar.Bool},
		{&b.roundGo, "round_go", poplar.Bool},
		{&b.epsMin, "eps_min", poplar.Float},
		{&b.epsStart, "eps_start", poplar.Float},
	} {
		*v.t = g.AddVariable(v.nm, v.dt, 1)
		g.MapAllTo(*v.t, b.utilTile)
	}
	return b
}

func (b *auctionBuilder) blockRows(blk int) (int, int) {
	lo := blk * b.rowsPerTile
	hi := lo + b.rowsPerTile
	if hi > b.n {
		hi = b.n
	}
	return lo, hi
}

// program assembles the fully on-device ε-scaling auction.
func (b *auctionBuilder) program() poplar.Program {
	g, n := b.g, b.n

	// ε initialisation from the benefit maximum (device-side, so a cold
	// run needs no data-dependent host input). A non-zero eps_start, a
	// warm run's start from lsap.AuctionDriver.StartEps, takes the place
	// of maxB/2; a cold run leaves it at 0. Both scalars live on the
	// utility tile, next to this vertex, so reading them moves no bytes.
	initEps := poplar.Sequence(
		poplar.Reduce(g, b.benefit, b.maxB, poplar.ReduceMax, "auc_maxb"),
		b.scalarStep("auc_initeps", func(get func(int) float64, set func(int, float64)) {
			e := get(1)
			if e == 0 {
				e = get(0) / 2
				if e <= 0 {
					e = 1
				}
			}
			set(1, e)
			set(2, 1) // phaseGo
		}, []*poplar.Tensor{b.maxB, b.epsStart}, []*poplar.Tensor{b.maxB, b.eps, b.phaseGo}),
	)

	// Bid: one MIMD vertex per bidder — each runs its own scan with no
	// lockstep penalty, the architectural contrast with the GPU version.
	// Bidders read the live prices: this step is the only reader of
	// price in a round, so no staging copy is needed, and the static
	// exchange multicasts each price segment once per receiving tile.
	bidCS := g.AddComputeSet("auc_bid")
	prices := b.price.All()
	for i := 0; i < n; i++ {
		blk := i / b.rowsPerTile
		row := b.benefit.RowRef(i)
		asg := b.assigned.Index(i)
		bj := b.bidJ.Index(i)
		ba := b.bidAmt.Index(i)
		epsRef := b.eps.All()
		bidCS.AddVertex(blk, func(w *poplar.Worker) {
			if asg.Data()[0] >= 0 {
				bj.Data()[0] = -1
				w.Charge(2)
				return
			}
			best, second := math.Inf(-1), math.Inf(-1)
			bestJ := -1
			p := prices.Data()
			for j, bv := range row.Data() {
				v := bv - p[j]
				if v > best {
					second = best
					best = v
					bestJ = j
				} else if v > second {
					second = v
				}
			}
			if math.IsInf(second, -1) {
				second = best
			}
			bj.Data()[0] = float64(bestJ)
			ba.Data()[0] = best - second + epsRef.Data()[0]
			w.ChargeVec(2 * int64(row.Len()))
		}).Reads(asg, row, prices, epsRef).Writes(bj, ba)
	}

	// Resolve: the single serializer takes the highest bid per object
	// (no atomics on the IPU — C1), evicts previous owners, raises
	// prices, and decides whether another round is needed. It scans the
	// bids once, counting the unassigned rows as it goes, then touches
	// only the objects that received a bid: O(n + bids), where most
	// rounds carry one bid or none.
	resolveCS := g.AddComputeSet("auc_resolve")
	// Vertex-local scratch (a real codelet would hold this in tile
	// memory); reset after every use so executions stay independent.
	winner := make([]int, n)
	winAmt := make([]float64, n)
	bidOn := make([]int, 0, n) // objects bid on this round, in first-bid order
	for j := range winner {
		winner[j] = -1
	}
	bidsJ, bidsA := b.bidJ.All(), b.bidAmt.All()
	ownerAll, assignedAll := b.owner.All(), b.assigned.All()
	roundRef := b.roundGo.All()
	resolveCS.AddVertex(b.utilTile, func(w *poplar.Worker) {
		bj := bidsJ.Data()
		ba := bidsA.Data()
		own := ownerAll.Data()
		asg := assignedAll.Data()
		pr := prices.Data()
		unassigned := 0
		for i := 0; i < n; i++ {
			if asg[i] < 0 {
				unassigned++
			}
			j := int(bj[i])
			if j < 0 {
				continue
			}
			// Highest bid wins; equal bids keep the earlier (lower id)
			// bidder, making resolution deterministic.
			if winner[j] < 0 || ba[i] > winAmt[j] {
				if winner[j] < 0 {
					bidOn = append(bidOn, j)
				}
				winner[j] = i
				winAmt[j] = ba[i]
			}
		}
		// Assigned rows never bid, so each winner leaves the unassigned
		// rows and each evicted owner joins them.
		for _, j := range bidOn {
			if prev := int(own[j]); prev >= 0 {
				asg[prev] = -1
				unassigned++
			}
			own[j] = float64(winner[j])
			asg[winner[j]] = float64(j)
			unassigned--
			pr[j] = lsap.RaisePrice(pr[j], winAmt[j])
			winner[j] = -1
		}
		if unassigned > 0 {
			roundRef.Data()[0] = 1
		} else {
			roundRef.Data()[0] = 0
		}
		// The scan, then evict, assign and raise per object bid on.
		w.Charge(int64(n + 4*len(bidOn)))
		bidOn = bidOn[:0]
	}).Reads(bidsJ, bidsA).Writes(ownerAll, assignedAll, prices, roundRef)

	resetPhase := poplar.Sequence(
		poplar.Fill(g, b.assigned, -1, "auc_reset_asg"),
		poplar.Fill(g, b.owner, -1, "auc_reset_owner"),
		b.scalarStep("auc_arm_round", func(get func(int) float64, set func(int, float64)) {
			set(0, 1)
		}, nil, []*poplar.Tensor{b.roundGo}),
	)

	// The ε floor is chosen host-side and set before each run
	// (lsap.AuctionDriver.Floor, the end of every port's schedule:
	// 1/(n+1) for an exact target, scaled to a bounded-quality target's
	// ε) — the early-termination knob of the degradation ladder. It
	// lives on the utility tile, next to this vertex, so reading it
	// moves no bytes.
	epsCheck := b.scalarStep("auc_epscheck", func(get func(int) float64, set func(int, float64)) {
		e := get(0)
		if e < get(1) {
			set(1, 0) // phaseGo off: the sub-floor phase just ran
		} else {
			set(0, e/lsap.AuctionEpsScale)
		}
	}, []*poplar.Tensor{b.eps, b.epsMin}, []*poplar.Tensor{b.eps, b.phaseGo})

	round := poplar.Sequence(poplar.Execute(bidCS), poplar.Execute(resolveCS))
	phase := poplar.Sequence(resetPhase, poplar.RepeatWhileTrue(b.roundGo, round), epsCheck)
	return poplar.Sequence(initEps, poplar.RepeatWhileTrue(b.phaseGo, phase))
}

// scalarStep builds a single-vertex compute set over ordered scalar
// tensors: get/set address them by position in the writes list (reads
// first for get).
func (b *auctionBuilder) scalarStep(name string, fn func(get func(int) float64, set func(int, float64)), reads, writes []*poplar.Tensor) poplar.Program {
	cs := b.g.AddComputeSet(name)
	var rRefs, wRefs []poplar.Ref
	for _, t := range reads {
		rRefs = append(rRefs, t.All())
	}
	for _, t := range writes {
		wRefs = append(wRefs, t.All())
	}
	cs.AddVertex(b.utilTile, func(w *poplar.Worker) {
		fn(
			func(k int) float64 { return rRefs[k].Data()[0] },
			func(k int, v float64) { wRefs[k].Data()[0] = v },
		)
		w.Charge(4)
	}).Reads(rRefs...).Writes(wRefs...)
	return poplar.Execute(cs)
}
