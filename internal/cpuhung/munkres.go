package cpuhung

import (
	"fmt"

	"hunipu/internal/lsap"
)

// Munkres is the textbook sequential Kuhn–Munkres algorithm, organised
// in the same six steps the paper redesigns for the IPU (Sections
// IV-C…IV-H): initial subtraction, initial matching, completion
// assessment, search for an uncovered zero, path augmentation, and the
// slack-matrix update. It exists both as a CPU baseline and as the
// serial reference the HunIPU implementation is validated against.
type Munkres struct{}

// Name implements lsap.Solver.
func (Munkres) Name() string { return "CPU-Munkres" }

type munkresState struct {
	n        int
	s        []float64 // slack matrix, row-major
	starred  []int     // starred[i] = column of the star in row i, or -1
	colStar  []int     // colStar[j] = row of the star in column j, or -1
	primed   []int     // primed[i] = column of the prime in row i, or -1
	rowCover []bool
	colCover []bool
}

// Solve implements lsap.Solver.
func (Munkres) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	n := c.N
	if n == 0 {
		return &lsap.Solution{Assignment: lsap.Assignment{}}, nil
	}
	st := &munkresState{
		n:        n,
		s:        append([]float64(nil), c.Data...),
		starred:  make([]int, n),
		colStar:  make([]int, n),
		primed:   make([]int, n),
		rowCover: make([]bool, n),
		colCover: make([]bool, n),
	}
	for i := range st.starred {
		st.starred[i] = -1
		st.colStar[i] = -1
		st.primed[i] = -1
	}

	st.step1InitialSubtraction()
	st.step2InitialMatching()
	for !st.step3Complete() {
		for {
			i, j, found := st.step4FindUncoveredZero()
			if !found {
				st.step6SlackUpdate()
				continue
			}
			st.primed[i] = j
			if sj := st.starred[i]; sj >= 0 {
				// A starred zero shares the row: cover the row, uncover
				// the star's column, keep searching.
				st.rowCover[i] = true
				st.colCover[sj] = false
				continue
			}
			st.step5AugmentPath(i, j)
			break
		}
	}

	a := make(lsap.Assignment, n)
	copy(a, st.starred)
	if err := a.Validate(n); err != nil {
		return nil, fmt.Errorf("cpuhung: Munkres produced invalid matching: %w", err)
	}
	return &lsap.Solution{Assignment: a, Cost: a.Cost(c)}, nil
}

// step1InitialSubtraction subtracts each row's minimum from the row and
// each column's minimum from the column, producing the slack matrix.
func (st *munkresState) step1InitialSubtraction() {
	n := st.n
	for i := 0; i < n; i++ {
		row := st.s[i*n : (i+1)*n]
		m := row[0]
		for _, v := range row[1:] {
			if v < m {
				m = v
			}
		}
		for j := range row {
			row[j] -= m
		}
	}
	for j := 0; j < n; j++ {
		m := st.s[j]
		for i := 1; i < n; i++ {
			if v := st.s[i*n+j]; v < m {
				m = v
			}
		}
		if m != 0 {
			for i := 0; i < n; i++ {
				st.s[i*n+j] -= m
			}
		}
	}
}

// step2InitialMatching greedily stars zeros such that no two stars share
// a row or column.
func (st *munkresState) step2InitialMatching() {
	n := st.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if st.s[i*n+j] == 0 && st.starred[i] < 0 && st.colStar[j] < 0 {
				st.starred[i] = j
				st.colStar[j] = i
				break
			}
		}
	}
}

// step3Complete covers every column containing a star and reports
// whether all n columns are covered (i.e. the matching is perfect).
func (st *munkresState) step3Complete() bool {
	covered := 0
	for j := 0; j < st.n; j++ {
		st.colCover[j] = st.colStar[j] >= 0
		if st.colCover[j] {
			covered++
		}
	}
	return covered == st.n
}

// step4FindUncoveredZero scans for a zero not covered by any line.
func (st *munkresState) step4FindUncoveredZero() (row, col int, found bool) {
	n := st.n
	for i := 0; i < n; i++ {
		if st.rowCover[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if !st.colCover[j] && st.s[i*n+j] == 0 {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// step5AugmentPath alternates star/prime zeros starting from the primed
// zero at (i, j), flips the path, clears primes and uncovers all lines.
func (st *munkresState) step5AugmentPath(i, j int) {
	type pos struct{ r, c int }
	path := []pos{{i, j}}
	for {
		r := st.colStar[path[len(path)-1].c]
		if r < 0 {
			break
		}
		path = append(path, pos{r, path[len(path)-1].c})
		path = append(path, pos{r, st.primed[r]})
	}
	// Flip: primes on the path become stars, stars are removed.
	for k, p := range path {
		if k%2 == 0 { // primed zero → star it
			st.starred[p.r] = p.c
			st.colStar[p.c] = p.r
		}
		// Odd entries were stars in a column that a new star overwrote.
	}
	for i := range st.primed {
		st.primed[i] = -1
		st.rowCover[i] = false
	}
	for j := range st.colCover {
		st.colCover[j] = false
	}
}

// step6SlackUpdate finds the minimum uncovered slack value, adds it to
// doubly covered entries and subtracts it from uncovered entries,
// creating at least one new uncovered zero.
func (st *munkresState) step6SlackUpdate() {
	n := st.n
	min := -1.0
	for i := 0; i < n; i++ {
		if st.rowCover[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if st.colCover[j] {
				continue
			}
			if v := st.s[i*n+j]; min < 0 || v < min {
				min = v
			}
		}
	}
	if min <= 0 {
		panic("cpuhung: step 6 found no positive uncovered minimum")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case st.rowCover[i] && st.colCover[j]:
				st.s[i*n+j] += min
			case !st.rowCover[i] && !st.colCover[j]:
				st.s[i*n+j] -= min
			}
		}
	}
}
