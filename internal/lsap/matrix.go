package lsap

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix is a dense, row-major, square cost matrix. float64 storage is
// used so that integer-valued workloads (the paper's Gaussian data is
// drawn from [1, k·n]) remain exact through the Hungarian algorithm's
// additive updates: exact zero tests then need no epsilon.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zeroed n×n cost matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("lsap: negative matrix size")
	}
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// FromRows builds a matrix from row slices; all rows must have length
// equal to the number of rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("lsap: row %d has %d entries, want %d", i, len(r), n)
		}
		copy(m.Data[i*n:(i+1)*n], r)
	}
	return m, nil
}

// At returns C[i][j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns C[i][j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Row returns the backing slice of row i; mutations write through.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.N : (i+1)*m.N] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// Negate returns a matrix suitable for maximisation problems: each
// entry v is replaced by max−v, keeping all costs non-negative as the
// paper's formulation requires.
func (m *Matrix) Negate() *Matrix {
	maxV := math.Inf(-1)
	for _, v := range m.Data {
		if v > maxV {
			maxV = v
		}
	}
	out := NewMatrix(m.N)
	for i, v := range m.Data {
		out.Data[i] = maxV - v
	}
	return out
}

// PadTo returns a copy padded with pad-valued entries to size nn ≥ N.
// The paper pads similarity matrices with 0 rows/columns so FastHA can
// run on its required 2^m sizes.
func (m *Matrix) PadTo(nn int, pad float64) *Matrix {
	if nn < m.N {
		panic("lsap: PadTo target smaller than matrix")
	}
	out := NewMatrix(nn)
	for i := range out.Data {
		out.Data[i] = pad
	}
	for i := 0; i < m.N; i++ {
		copy(out.Data[i*nn:i*nn+m.N], m.Row(i))
	}
	return out
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// PadToPow2 pads the matrix with pad entries to the next power-of-two
// size, as required by FastHA.
func (m *Matrix) PadToPow2(pad float64) *Matrix {
	return m.PadTo(NextPow2(m.N), pad)
}

// Unpad truncates an assignment computed on a padded matrix back to the
// original n rows, dropping matches that landed in padding columns
// (marked −1).
func Unpad(a Assignment, n int) Assignment {
	out := make(Assignment, n)
	for i := 0; i < n; i++ {
		if a[i] < n {
			out[i] = a[i]
		} else {
			out[i] = -1
		}
	}
	return out
}

// WriteTo serialises the matrix in a simple text format: first line the
// size, then one whitespace-separated row per line.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "%d\n", m.N)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		for j, v := range row {
			sep := " "
			if j == 0 {
				sep = ""
			}
			n, err = fmt.Fprintf(bw, "%s%g", sep, v)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		n, err = fmt.Fprintln(bw)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// MaxReadMatrixN caps the size header ReadMatrix accepts, so a
// corrupt or hostile input cannot force an n² allocation (the paper's
// largest instance is 8192; the cap leaves generous headroom).
const MaxReadMatrixN = 1 << 15

// ReadMatrix parses the format written by WriteTo.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("lsap: empty matrix input")
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("lsap: bad size line %q", sc.Text())
	}
	if n > MaxReadMatrixN {
		return nil, fmt.Errorf("lsap: matrix size %d exceeds limit %d", n, MaxReadMatrixN)
	}
	// Parse all rows before allocating the n² matrix, so a size header
	// larger than the actual input cannot force a huge allocation.
	rows := make([][]float64, 0, 16)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("lsap: expected %d rows, got %d", n, i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != n {
			return nil, fmt.Errorf("lsap: row %d has %d entries, want %d", i, len(fields), n)
		}
		row := make([]float64, n)
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("lsap: row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromRows(rows)
}
