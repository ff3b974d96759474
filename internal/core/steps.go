package core

import (
	"math"

	"hunipu/internal/poplar"
)

// buildProgram assembles the full static HunIPU program:
//
//	Step 1 → compress → Step 2 → Step 3 →
//	while not all columns covered:
//	    while not augmented:
//	        Step 4
//	        status  1 → Step 5 (augment; back to Step 3)
//	        status −1 → Step 6 (slack update + re-compress)
//	        status  0 → prime the zeros, cover rows, uncover columns
//	    Step 3
func (b *builder) buildProgram() poplar.Program {
	g := b.g
	// Guard mode resets the dual potentials (and cov_sum, which gates the
	// probes) before anything else, so a cached engine's second solve
	// never exposes stale guard state to an early verify.
	var guardInit poplar.Program
	if b.o.Guard != poplar.GuardOff {
		guardInit = poplar.Sequence(
			poplar.Fill(g, b.dualU, 0, "init_dual_u"),
			poplar.Fill(g, b.dualV, 0, "init_dual_v"),
			poplar.Fill(g, b.covSum, 0, "init_cov_sum"),
		)
	}
	init := poplar.Sequence(
		guardInit,
		poplar.Fill(g, b.rowStar, -1, "init_row_star"),
		poplar.Fill(g, b.colStar, -1, "init_col_star"),
		poplar.Fill(g, b.rowPrime, -1, "init_row_prime"),
		poplar.Fill(g, b.rowCover, 0, "init_row_cover"),
		poplar.Fill(g, b.colCover, 0, "init_col_cover"),
		poplar.Fill(g, b.pathErr, 0, "init_path_err"),
	)

	step4 := b.buildStep4()
	inner := poplar.Sequence(
		step4,
		poplar.If(b.isPos,
			b.buildStep5(),
			poplar.If(b.isNeg, b.buildStep6(), b.buildPrimeBatch())),
	)
	outer := poplar.RepeatWhileTrue(b.notDone, poplar.Sequence(
		b.setScalars("arm_inner", func(_ func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
			set(b.notAug, 1)
		}, nil, []*poplar.Tensor{b.notAug}),
		poplar.RepeatWhileTrue(b.notAug, inner),
		b.buildStep3("s3_again"),
	))

	return poplar.Sequence(
		init,
		b.buildStep1(),
		b.buildCompress(),
		b.buildStep2(),
		b.buildStep3("s3_first"),
		outer,
	)
}

// buildStep1 computes the slack matrix in place: subtract each row's
// minimum, then each column's minimum (Section IV-C). Row reductions
// use the Poplar reduce pattern; the column pass computes per-row-group
// partials, reduces them on the column segments, and stages the result
// back through the broadcast buffer. Each row is processed by six
// thread segments retrieving two floats at a time.
func (b *builder) buildStep1() poplar.Program {
	g, n := b.g, b.n

	rowMins := poplar.ReduceRows(g, b.slack, b.rowMin, poplar.ReduceMin, "s1_rowmin")

	subRow := g.AddComputeSet("s1_subrow")
	for i := 0; i < n; i++ {
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			if lo == hi {
				continue
			}
			seg := b.slack.Slice(i*n+lo, i*n+hi)
			m := b.rowMin.Index(i)
			subRow.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				d := seg.Data()
				mv := m.Data()[0]
				for k := range d {
					d[k] -= mv
				}
				w.ChargeVec(int64(len(d)))
			}).Reads(m, seg).Writes(seg)
		}
	}
	// Guard: u_i takes the row minimum in the same superstep the row is
	// reduced, keeping slack ≡ input − u − v at the boundary.
	if b.o.Guard != poplar.GuardOff {
		for i := 0; i < n; i++ {
			m := b.rowMin.Index(i)
			u := b.dualU.Index(i)
			subRow.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				u.Data()[0] = m.Data()[0]
				w.Charge(2)
			}).Reads(m).Writes(u)
		}
	}

	// Column minima: per-group partials, then per-column-segment reduce.
	colPart := g.AddComputeSet("s1_colpart")
	for blk := 0; blk < b.numBlocks; blk++ {
		lo, hi := b.blockRows(blk)
		rows := b.slack.Slice(lo*n, hi*n)
		out := b.colMinPart.Slice(blk*n, (blk+1)*n)
		colPart.AddVertex(b.blockTile(blk), func(w *poplar.Worker) {
			d := out.Data()
			src := rows.Data()
			copy(d, src[:n])
			for r := n; r < len(src); r += n {
				for j := 0; j < n; j++ {
					if v := src[r+j]; v < d[j] {
						d[j] = v
					}
				}
			}
			w.ChargeVec(int64(len(src)))
		}).Reads(rows).Writes(out)
	}

	colFinal := g.AddComputeSet("s1_colfinal")
	for _, r := range b.colMin.MappingRegions() {
		seg := b.colMin.Slice(r.Start, r.End)
		var ins []poplar.Ref
		for blk := 0; blk < b.numBlocks; blk++ {
			ins = append(ins, b.colMinPart.Slice(blk*n+r.Start, blk*n+r.End))
		}
		colFinal.AddVertex(r.Tile, func(w *poplar.Worker) {
			d := seg.Data()
			copy(d, ins[0].Data())
			for _, in := range ins[1:] {
				for j, v := range in.Data() {
					if v < d[j] {
						d[j] = v
					}
				}
			}
			w.ChargeVec(int64(len(d) * len(ins)))
		}).Reads(ins...).Writes(seg)
	}

	subCol := g.AddComputeSet("s1_subcol")
	for i := 0; i < n; i++ {
		blk := i / b.rowsPerTile
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			if lo == hi {
				continue
			}
			seg := b.slack.Slice(i*n+lo, i*n+hi)
			mins := b.bcast.Slice(blk*n+lo, blk*n+hi)
			subCol.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				d := seg.Data()
				mv := mins.Data()
				for k := range d {
					d[k] -= mv[k]
				}
				w.ChargeVec(int64(len(d)))
			}).Reads(mins, seg).Writes(seg)
		}
	}
	// Guard: v_j takes the column minimum in the same superstep it is
	// subtracted from the slack columns.
	if b.o.Guard != poplar.GuardOff {
		for _, r := range b.colMin.MappingRegions() {
			in := b.colMin.Slice(r.Start, r.End)
			out := b.dualV.Slice(r.Start, r.End)
			subCol.AddVertex(r.Tile, func(w *poplar.Worker) {
				copy(out.Data(), in.Data())
				w.ChargeVec(int64(in.Len()))
			}).Reads(in).Writes(out)
		}
	}

	return poplar.Sequence(
		rowMins,
		poplar.Execute(subRow),
		poplar.Execute(colPart),
		poplar.Execute(colFinal),
		b.bcastProgram(b.colMin, "s1_bcast_colmin"),
		poplar.Execute(subCol),
	)
}

// buildCompress builds the Section IV-B compression: each of the six
// thread segments of a row records its zero positions at the front of
// its compress-matrix segment (−1 padding) and counts them (Fig. 1).
// With compression disabled only the zero counts are maintained.
func (b *builder) buildCompress() poplar.Program {
	g, n := b.g, b.n
	cs := g.AddComputeSet("compress")
	for i := 0; i < n; i++ {
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			if lo == hi {
				continue
			}
			src := b.slack.Slice(i*n+lo, i*n+hi)
			cnt := b.zeroCount.Index(i*b.threads + s)
			if b.o.DisableCompression {
				eps := b.o.Epsilon
				cs.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
					c := 0
					for _, v := range src.Data() {
						if isZero(v, eps) {
							c++
						}
					}
					cnt.Data()[0] = float64(c)
					w.ChargeVec(int64(src.Len()))
				}).Reads(src).Writes(cnt)
				continue
			}
			dst := b.compress.Slice(i*n+lo, i*n+hi)
			base := lo
			cs.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				compressSegment(src.Data(), dst.Data(), cnt.Data(), base, b.o.Epsilon)
				w.ChargeVec(int64(src.Len()))
			}).Reads(src).Writes(dst, cnt)
		}
	}
	return poplar.Execute(cs)
}

// compressSegment records the absolute column index of every zero in
// src at the front of dst, padding with −1, and stores the count.
// Values with |v| ≤ eps count as zeros (eps = 0 for integer data).
func compressSegment(src, dst, cnt []float64, base int, eps float64) {
	k := 0
	for j, v := range src {
		if isZero(v, eps) {
			dst[k] = float64(base + j)
			k++
		}
	}
	cnt[0] = float64(k)
	for ; k < len(dst); k++ {
		dst[k] = -1
	}
}

// isZero applies the solver's zero tolerance.
func isZero(v, eps float64) bool {
	if v < 0 {
		v = -v
	}
	return v <= eps
}

// buildStep2 chooses the initial matching (Section IV-D, Fig. 2):
// count zeros per row, reduce the maximum count η, sort the compress
// matrix rows descending, then scan the top η sorted columns, starring
// greedily with a single resolver that serialises column conflicts
// (the IPU has no atomics to do it in place — C1).
func (b *builder) buildStep2() poplar.Program {
	g, n := b.g, b.n

	etaProg := poplar.Sequence(
		poplar.ReduceRows(g, b.zeroCount, b.rowZeros, poplar.ReduceSum, "s2_rowzeros"),
		poplar.Reduce(g, b.rowZeros, b.eta, poplar.ReduceMax, "s2_eta"),
	)

	var sortProg poplar.Program
	if !b.o.DisableCompression {
		sortProg = poplar.Sequence(
			poplar.Copy(b.compress.All(), b.sortCompress.All()),
			poplar.SortRowsDesc(g, b.sortCompress, "s2"),
		)
	}

	initProg := b.setScalars("s2_init", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		set(b.cursor, 0)
		if get(b.eta) > 0 {
			set(b.s2go, 1)
		} else {
			set(b.s2go, 0)
		}
	}, []*poplar.Tensor{b.eta}, []*poplar.Tensor{b.cursor, b.s2go})

	// Propose: each unstarred row offers its cursor-th zero.
	propose := g.AddComputeSet("s2_propose")
	curRef := b.cursor.All()
	for i := 0; i < n; i++ {
		star := b.rowStar.Index(i)
		prop := b.propose.Index(i)
		if b.o.DisableCompression {
			row := b.slack.RowRef(i)
			propose.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				p := prop.Data()
				p[0] = -1
				if star.Data()[0] >= 0 {
					w.Charge(2)
					return
				}
				c := int(curRef.Data()[0])
				seen := 0
				for j, v := range row.Data() {
					if isZero(v, b.o.Epsilon) {
						if seen == c {
							p[0] = float64(j)
							break
						}
						seen++
					}
				}
				w.Charge(int64(row.Len()))
			}).Reads(curRef, star, row).Writes(prop)
			continue
		}
		row := b.sortCompress.RowRef(i)
		propose.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
			p := prop.Data()
			p[0] = -1
			if star.Data()[0] < 0 {
				c := int(curRef.Data()[0])
				if c < row.Len() {
					p[0] = row.Data()[c]
				}
			}
			w.Charge(4)
		}).Reads(curRef, star, row).Writes(prop)
	}

	// Resolve: one vertex serialises conflicting proposals, advances
	// the cursor and refreshes the loop predicate.
	resolve := g.AddComputeSet("s2_resolve")
	props, accepts := b.propose.All(), b.accept.All()
	stars := b.colStar.All()
	etaRef, curAll, goRef := b.eta.All(), b.cursor.All(), b.s2go.All()
	resolve.AddVertex(b.utilTile, func(w *poplar.Worker) {
		cs := stars.Data()
		a := accepts.Data()
		for i, jf := range props.Data() {
			a[i] = -1
			j := int(jf)
			if j >= 0 && j < len(cs) && cs[j] < 0 {
				cs[j] = float64(i)
				a[i] = jf
			}
		}
		c := curAll.Data()[0] + 1
		curAll.Data()[0] = c
		if c < etaRef.Data()[0] {
			goRef.Data()[0] = 1
		} else {
			goRef.Data()[0] = 0
		}
		w.Charge(int64(n) + 4)
	}).Reads(props, etaRef).Writes(stars, accepts, curAll, goRef)

	// Apply: rows adopt their accepted star.
	apply := g.AddComputeSet("s2_apply")
	for i := 0; i < n; i++ {
		acc := b.accept.Index(i)
		star := b.rowStar.Index(i)
		apply.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
			if acc.Data()[0] >= 0 {
				star.Data()[0] = acc.Data()[0]
			}
			w.Charge(2)
		}).Reads(acc).Writes(star)
	}

	loop := poplar.RepeatWhileTrue(b.s2go, poplar.Sequence(
		poplar.Execute(propose), poplar.Execute(resolve), poplar.Execute(apply)))
	return poplar.Sequence(etaProg, sortProg, initProg, loop)
}

// buildStep3 covers every column holding a star and decides completion
// (Section IV-E): col_cover updates run per 32-element segment on the
// segment's own tile, then a reduction counts covered columns.
func (b *builder) buildStep3(name string) poplar.Program {
	g, n := b.g, b.n
	cover := g.AddComputeSet(name + "_cover")
	for _, r := range b.colStar.MappingRegions() {
		in := b.colStar.Slice(r.Start, r.End)
		out := b.colCover.Slice(r.Start, r.End)
		cover.AddVertex(r.Tile, func(w *poplar.Worker) {
			src, dst := in.Data(), out.Data()
			for k := range src {
				if src[k] >= 0 {
					dst[k] = 1
				} else {
					dst[k] = 0
				}
			}
			w.ChargeVec(int64(len(src)))
		}).Reads(in).Writes(out)
	}
	count := poplar.Reduce(g, b.colCover, b.covSum, poplar.ReduceSum, name+"_count")
	check := b.setScalars(name+"_check", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		if get(b.covSum) < float64(n) {
			set(b.notDone, 1)
		} else {
			set(b.notDone, 0)
		}
	}, []*poplar.Tensor{b.covSum}, []*poplar.Tensor{b.notDone})
	return poplar.Sequence(poplar.Execute(cover), count, check)
}

// buildStep4 computes each row's zero status (Section IV-F): −1 no
// uncovered zero, 0 uncovered zero and a star, 1 uncovered zero and no
// star. Each row reads col_cover where it lives — the exchange
// multicasts it once to every row tile — and scans only its recorded
// zero positions.
func (b *builder) buildStep4() poplar.Program {
	g, n := b.g, b.n
	status := g.AddComputeSet("s4_status")
	covers := b.colCover.All()
	for i := 0; i < n; i++ {
		rcov := b.rowCover.Index(i)
		star := b.rowStar.Index(i)
		st := b.zeroStatus.Index(i)
		uz := b.uncovCol.Index(i)
		if b.o.DisableCompression {
			row := b.slack.RowRef(i)
			status.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				found := -1
				if rcov.Data()[0] == 0 {
					cov := covers.Data()
					for j, v := range row.Data() {
						if isZero(v, b.o.Epsilon) && cov[j] == 0 {
							found = j
							break
						}
					}
				}
				writeStatus(st.Data(), uz.Data(), star.Data(), found)
				w.Charge(int64(row.Len()))
			}).Reads(covers, rcov, star, row).Writes(st, uz)
			continue
		}
		crow := b.compress.RowRef(i)
		counts := b.zeroCount.Slice(i*b.threads, (i+1)*b.threads)
		threads, segLen, nn := b.threads, b.segLen, n
		status.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
			found := -1
			scanned := int64(0)
			if rcov.Data()[0] == 0 {
				cov := covers.Data()
				cd := crow.Data()
				cnts := counts.Data()
			segs:
				for s := 0; s < threads; s++ {
					lo := s * segLen
					if lo >= nn {
						break
					}
					for k := 0; k < int(cnts[s]) && lo+k < nn; k++ {
						scanned++
						j := int(cd[lo+k])
						if j >= 0 && j < nn && cov[j] == 0 {
							found = j
							break segs
						}
					}
				}
			}
			writeStatus(st.Data(), uz.Data(), star.Data(), found)
			w.Charge(scanned + 4)
		}).Reads(covers, rcov, star, crow, counts).Writes(st, uz)
	}

	reduce := poplar.Reduce(g, b.zeroStatus, b.statusMax, poplar.ReduceMax, "s4_redmax")
	flags := b.setScalars("s4_flags", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		m := get(b.statusMax)
		if m == 1 {
			set(b.isPos, 1)
		} else {
			set(b.isPos, 0)
		}
		if m == -1 {
			set(b.isNeg, 1)
		} else {
			set(b.isNeg, 0)
		}
	}, []*poplar.Tensor{b.statusMax}, []*poplar.Tensor{b.isPos, b.isNeg})

	return poplar.Sequence(
		poplar.Execute(status),
		reduce,
		flags,
	)
}

// writeStatus records Step 4's per-row result.
func writeStatus(st, uz, star []float64, found int) {
	uz[0] = float64(found)
	switch {
	case found < 0:
		st[0] = -1
	case star[0] < 0:
		st[0] = 1
	default:
		st[0] = 0
	}
}

// buildPrimeBatch primes every status-0 row's uncovered zero, covers
// the row and uncovers its star's column (Section IV-F's reiteration,
// batched across rows as all such updates are independent). Column
// uncovering uses the partition-and-distribute write: each column
// segment scans the request vector and clears only its own flags.
func (b *builder) buildPrimeBatch() poplar.Program {
	g, n := b.g, b.n
	prime := g.AddComputeSet("s4_prime")
	for i := 0; i < n; i++ {
		st := b.zeroStatus.Index(i)
		uz := b.uncovCol.Index(i)
		star := b.rowStar.Index(i)
		prm := b.rowPrime.Index(i)
		rcov := b.rowCover.Index(i)
		req := b.uncovReq.Index(i)
		prime.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
			if st.Data()[0] == 0 {
				prm.Data()[0] = uz.Data()[0]
				rcov.Data()[0] = 1
				req.Data()[0] = star.Data()[0]
			} else {
				req.Data()[0] = -1
			}
			w.Charge(4)
		}).Reads(st, uz, star).Writes(prm, rcov, req)
	}

	uncover := g.AddComputeSet("s4_uncover")
	reqs := b.uncovReq.All()
	for _, r := range b.colCover.MappingRegions() {
		seg := b.colCover.Slice(r.Start, r.End)
		start := r.Start
		uncover.AddVertex(r.Tile, func(w *poplar.Worker) {
			d := seg.Data()
			for _, jf := range reqs.Data() {
				j := int(jf)
				if j >= start && j < start+len(d) {
					d[j-start] = 0
				}
			}
			w.ChargeVec(int64(n))
		}).Reads(reqs, seg).Writes(seg)
	}

	return poplar.Sequence(poplar.Execute(prime), poplar.Execute(uncover))
}

// buildStep5 augments along the alternating prime/star path (Section
// IV-G, Fig. 3). The traversal records the path in the green arrays on
// the utility tile and flips each prime to a star as it goes; every
// dynamic read (col_star of a runtime column, row_prime of a runtime
// row) uses the partition-and-distribute slice of Fig. 4, and every
// dynamic write the matching scatter. Afterwards primes and covers are
// cleared and the inner loop exits.
func (b *builder) buildStep5() poplar.Program {
	g := b.g

	// Locate a status-1 row: per-group candidates, then one picker.
	partial := g.AddVariable("s5_partial", poplar.Int, b.numBlocks)
	for blk := 0; blk < b.numBlocks; blk++ {
		g.SetTileMapping(partial, b.blockTile(blk), blk, blk+1)
	}
	find := g.AddComputeSet("s5_find")
	for blk := 0; blk < b.numBlocks; blk++ {
		lo, hi := b.blockRows(blk)
		st := b.zeroStatus.Slice(lo, hi)
		out := partial.Index(blk)
		base := lo
		find.AddVertex(b.blockTile(blk), func(w *poplar.Worker) {
			out.Data()[0] = -1
			for k, v := range st.Data() {
				if v == 1 {
					out.Data()[0] = float64(base + k)
					break
				}
			}
			w.Charge(int64(st.Len()))
		}).Reads(st).Writes(out)
	}
	pick := g.AddComputeSet("s5_pick")
	parts := partial.All()
	startRowRef := b.startRow.All()
	pick.AddVertex(b.utilTile, func(w *poplar.Worker) {
		startRowRef.Data()[0] = -1
		for _, v := range parts.Data() {
			if v >= 0 {
				startRowRef.Data()[0] = v
				break
			}
		}
		w.Charge(int64(parts.Len()))
	}).Reads(parts).Writes(startRowRef)

	initPath := b.setScalars("s5_initpath", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		set(b.curCol, get(b.startCol))
		set(b.pathLen, 0)
		if get(b.startRow) < 0 || get(b.startCol) < 0 {
			set(b.pathActive, 0)
			set(b.pathErr, 1)
		} else {
			set(b.pathActive, 1)
		}
	}, []*poplar.Tensor{b.startRow, b.startCol}, []*poplar.Tensor{b.curCol, b.pathLen, b.pathActive, b.pathErr})

	// curRow travels with curCol; startRow seeds it.
	seed := b.setScalars("s5_seed", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		set(b.curRow, get(b.startRow))
	}, []*poplar.Tensor{b.startRow}, []*poplar.Tensor{b.curRow})

	// One traversal step: log the prime, flip it to a star, follow the
	// column's old star (if any) to the next prime.
	record := g.AddComputeSet("s5_record")
	grAll, gcAll := b.greenRow.All(), b.greenCol.All()
	plRef := b.pathLen.All()
	curRowRef := b.curRow.All()
	curColRef := b.curCol.All()
	errRef := b.pathErr.All()
	record.AddVertex(b.utilTile, func(w *poplar.Worker) {
		k := int(plRef.Data()[0])
		if k > b.n {
			errRef.Data()[0] = 1
			w.Charge(2)
			return
		}
		grAll.Data()[k] = curRowRef.Data()[0]
		gcAll.Data()[k] = curColRef.Data()[0]
		plRef.Data()[0] = float64(k + 1)
		w.Charge(4)
	}).Reads(curRowRef, curColRef).Writes(grAll, gcAll, plRef, errRef)

	gatherStar := b.gatherScalar(b.colStar, b.curCol, b.starRowT, -1, "s5_gstar")
	flipRow := b.scatterScalar(b.rowStar, b.curRow, b.curCol, "s5_fliprow")
	flipCol := b.scatterScalar(b.colStar, b.curCol, b.curRow, "s5_flipcol")

	decide := b.setScalars("s5_decide", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		if get(b.starRowT) >= 0 {
			set(b.starFound, 1)
		} else {
			set(b.starFound, 0)
			set(b.pathActive, 0)
		}
	}, []*poplar.Tensor{b.starRowT}, []*poplar.Tensor{b.starFound, b.pathActive})

	gatherPrime := b.gatherScalar(b.rowPrime, b.starRowT, b.nextColT, -1, "s5_gprime")
	advance := b.setScalars("s5_advance", func(get func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
		if get(b.nextColT) < 0 {
			set(b.pathErr, 1)
			set(b.pathActive, 0)
			return
		}
		set(b.curRow, get(b.starRowT))
		set(b.curCol, get(b.nextColT))
	}, []*poplar.Tensor{b.nextColT, b.starRowT}, []*poplar.Tensor{b.pathErr, b.pathActive, b.curRow, b.curCol})

	loop := poplar.RepeatWhileTrue(b.pathActive, poplar.Sequence(
		poplar.Execute(record), // log the prime we are about to star
		gatherStar,             // who stars curCol today?
		flipRow, flipCol,       // prime (curRow, curCol) becomes a star
		decide,
		poplar.If(b.starFound, poplar.Sequence(gatherPrime, advance), nil),
	))

	clear := poplar.Sequence(
		poplar.Fill(g, b.rowPrime, -1, "s5_clear_prime"),
		poplar.Fill(g, b.rowCover, 0, "s5_clear_rcov"),
		poplar.Fill(g, b.colCover, 0, "s5_clear_ccov"),
		b.setScalars("s5_done", func(_ func(*poplar.Tensor) float64, set func(*poplar.Tensor, float64)) {
			set(b.notAug, 0)
		}, nil, []*poplar.Tensor{b.notAug}),
	)

	return poplar.Sequence(
		poplar.Execute(find), poplar.Execute(pick),
		b.gatherScalar(b.uncovCol, b.startRow, b.startCol, -1, "s5_startcol"),
		initPath,
		seed,
		loop,
		clear,
	)
}

// buildStep6 finds the minimum uncovered slack value and updates the
// matrix (Section IV-H): six thread segments per row compute pairwise
// minima, two reductions produce the global minimum, and the same six
// segments apply ±Δ and re-compress their part of the row. Each segment
// reads its own columns of col_cover, multicast by the exchange.
func (b *builder) buildStep6() poplar.Program {
	g, n := b.g, b.n
	inf := math.Inf(1)

	segMin := g.AddComputeSet("s6_segmin")
	for i := 0; i < n; i++ {
		rcov := b.rowCover.Index(i)
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			out := b.rowSegMin.Index(i*b.threads + s)
			if lo == hi {
				segMin.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
					out.Data()[0] = inf
					w.Charge(1)
				}).Writes(out)
				continue
			}
			seg := b.slack.Slice(i*n+lo, i*n+hi)
			covers := b.colCover.Slice(lo, hi)
			segMin.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				m := inf
				if rcov.Data()[0] == 0 {
					cov := covers.Data()
					for k, v := range seg.Data() {
						if cov[k] == 0 && v < m {
							m = v
						}
					}
				}
				out.Data()[0] = m
				w.ChargeVec(int64(seg.Len()))
			}).Reads(rcov, covers, seg).Writes(out)
		}
	}

	reduceRows := poplar.ReduceRows(g, b.rowSegMin, b.rowMinU, poplar.ReduceMin, "s6_rowmin")
	reduceAll := poplar.Reduce(g, b.rowMinU, b.minU, poplar.ReduceMin, "s6_min")

	update := g.AddComputeSet("s6_update")
	minRef := b.minU.All()
	for i := 0; i < n; i++ {
		rcov := b.rowCover.Index(i)
		for s := 0; s < b.threads; s++ {
			lo, hi := b.segCols(s)
			if lo == hi {
				continue
			}
			seg := b.slack.Slice(i*n+lo, i*n+hi)
			covers := b.colCover.Slice(lo, hi)
			cnt := b.zeroCount.Index(i*b.threads + s)
			var cseg poplar.Ref
			if !b.o.DisableCompression {
				cseg = b.compress.Slice(i*n+lo, i*n+hi)
			}
			base := lo
			disable := b.o.DisableCompression
			eps := b.o.Epsilon
			segMinUpdate := func(w *poplar.Worker) {
				delta := minRef.Data()[0]
				if math.IsInf(delta, 1) || delta <= eps {
					w.Charge(1)
					return
				}
				d := seg.Data()
				cov := covers.Data()
				rc := rcov.Data()[0] != 0
				for k := range d {
					cc := cov[k] != 0
					if rc && cc {
						d[k] += delta
					} else if !rc && !cc {
						d[k] -= delta
					}
				}
				if disable {
					c := 0
					for _, v := range d {
						if isZero(v, eps) {
							c++
						}
					}
					cnt.Data()[0] = float64(c)
				} else {
					compressSegment(d, cseg.Data(), cnt.Data(), base, eps)
				}
				w.ChargeVec(2 * int64(len(d)))
			}
			v := update.AddVertex(b.rowTile(i), segMinUpdate).
				Reads(minRef, rcov, covers, seg).Writes(seg, cnt)
			if !b.o.DisableCompression {
				v.Writes(cseg)
			}
		}
	}

	// Guard: the classical dual update rides in the same compute set as
	// the slack update — u_i += Δ for uncovered rows, v_j −= Δ for
	// covered columns — with the identical skip condition, so the ABFT
	// identity slack ≡ input − u − v holds at every superstep boundary
	// and the dual objective Σu+Σv stays monotone.
	if b.o.Guard != poplar.GuardOff {
		eps := b.o.Epsilon
		for i := 0; i < n; i++ {
			rcov := b.rowCover.Index(i)
			u := b.dualU.Index(i)
			update.AddVertex(b.rowTile(i), func(w *poplar.Worker) {
				delta := minRef.Data()[0]
				if math.IsInf(delta, 1) || delta <= eps {
					w.Charge(1)
					return
				}
				if rcov.Data()[0] == 0 {
					u.Data()[0] += delta
				}
				w.Charge(2)
			}).Reads(minRef, rcov).Writes(u)
		}
		for _, r := range b.colCover.MappingRegions() {
			cov := b.colCover.Slice(r.Start, r.End)
			vseg := b.dualV.Slice(r.Start, r.End)
			update.AddVertex(r.Tile, func(w *poplar.Worker) {
				delta := minRef.Data()[0]
				if math.IsInf(delta, 1) || delta <= eps {
					w.Charge(1)
					return
				}
				d := vseg.Data()
				for k, c := range cov.Data() {
					if c != 0 {
						d[k] -= delta
					}
				}
				w.ChargeVec(int64(vseg.Len()))
			}).Reads(minRef, cov).Writes(vseg)
		}
	}

	return poplar.Sequence(
		poplar.Execute(segMin),
		reduceRows,
		reduceAll,
		poplar.Execute(update),
	)
}
