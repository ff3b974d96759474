package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzCostMatrix decodes each input as the costs of a request body
// twice, once by encoding/json into [][]float64 and once into
// costMatrix: both must accept or both reject, and accepted matrices
// must agree on nil-ness, shape and every entry's bits.
func FuzzCostMatrix(f *testing.F) {
	for _, costs := range []string{
		// The costs of main_test.go's bodies.
		`[[4,1,3],[2,0,5],[3,2,2]]`, `[[1,`, `[[1,2],[3,"x"]]`, `[[1,2],[3]]`, `[[1]]`,
		// Numbers off the integer fast path, and integers at its edge.
		`[[-0]]`, `[[1e400]]`, `[[1E-7]]`, `[[-12.5e3]]`,
		`[[123456789012345]]`, `[[1234567890123456]]`, `[[98765432109876543210]]`,
		// null, as the matrix, a row and an entry; empty arrays; whitespace.
		`null`, `[null,[1]]`, `[[1,null]]`, `[]`, `[[]]`, " [ [ 1 ,\n2 ] ,\t[ 3 , 4 ]\r\n] ",
		// Entries of the wrong type.
		`[["1"]]`, `[[[1]]]`, `[[{}]]`, `[[true]]`, `[1]`, `1`, `{}`,
		// A repeated key decodes into what the first one left.
		`[[1,2]],"costs":[[3,null]]`,
	} {
		f.Add(costs)
	}
	f.Fuzz(func(t *testing.T, costs string) {
		body := `{"costs":` + costs + `}`
		var want struct {
			Costs [][]float64 `json:"costs"`
		}
		var got struct {
			Costs costMatrix `json:"costs"`
		}
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		gotErr := json.NewDecoder(strings.NewReader(body)).Decode(&got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: encoding/json error %v, costMatrix error %v", body, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if (want.Costs == nil) != (got.Costs == nil) || len(want.Costs) != len(got.Costs) {
			t.Fatalf("%s: encoding/json %#v, costMatrix %#v", body, want.Costs, got.Costs)
		}
		for i, row := range want.Costs {
			g := got.Costs[i]
			if (row == nil) != (g == nil) || len(row) != len(g) {
				t.Fatalf("%s: row %d: encoding/json %#v, costMatrix %#v", body, i, row, g)
			}
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(g[j]) {
					t.Fatalf("%s: entry (%d,%d): encoding/json %v, costMatrix %v", body, i, j, v, g[j])
				}
			}
		}
	})
}

// TestCostDecodeAllocs pins how much decoding a request allocates: a
// 128×128 body costs a few dozen objects, not one per row and growth
// step, and a body whose one row is long is sized from its length,
// not from its first row squared.
func TestCostDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := func(n int) []float64 {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(1 + rng.Intn(64000))
		}
		return row
	}
	decode := func(body []byte) {
		var req solveRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatal(err)
		}
	}

	square := make([][]float64, 128)
	for i := range square {
		square[i] = entries(128)
	}
	body := benchBody(square)
	if objects := testing.AllocsPerRun(5, func() { decode(body) }); objects > 64 {
		t.Errorf("decoding a 128×128 body allocated %.0f objects, want ≤ 64", objects)
	}

	body = benchBody([][]float64{entries(200000)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode(body)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 16<<20 {
		t.Errorf("decoding one row of 200,000 entries allocated %d bytes, want < 16 MB", b)
	}
}

// benchBody encodes costs as a bounded stream request, in the field
// order and number format of the benchmark's client.
func benchBody(costs [][]float64) []byte {
	b := []byte(`{"quality":"bounded(0.05)","key":"stream-0","costs":[`)
	for i, row := range costs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}
