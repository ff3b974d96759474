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

// costSeeds are cost matrices, each the value of a body's "costs".
var costSeeds = []string{
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
}

// checkDecode decodes body with decodeSolveRequest and with
// json.Unmarshal: both must accept or both reject, and accepted requests
// must agree on every field, on the nil-ness of the matrix and of each
// row, and on every entry's bits.
func checkDecode(t *testing.T, body string) {
	var want solveRequest
	wantErr := json.Unmarshal([]byte(body), &want)
	got, gotErr := decodeSolveRequest([]byte(body))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: json.Unmarshal error %v, decodeSolveRequest error %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if got.Maximize != want.Maximize || got.DeadlineMS != want.DeadlineMS || got.Quality != want.Quality || got.Key != want.Key ||
		(got.Costs == nil) != (want.Costs == nil) || len(got.Costs) != len(want.Costs) {
		t.Fatalf("%q: json.Unmarshal %#v, decodeSolveRequest %#v", body, want, got)
	}
	for i, row := range want.Costs {
		g := got.Costs[i]
		if (row == nil) != (g == nil) || len(row) != len(g) {
			t.Fatalf("%q: row %d: json.Unmarshal %#v, decodeSolveRequest %#v", body, i, row, g)
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(g[j]) {
				t.Fatalf("%q: entry (%d,%d): json.Unmarshal %v, decodeSolveRequest %v", body, i, j, v, g[j])
			}
		}
	}
}

// FuzzCostMatrix mutates the costs of a body only, where most of the
// decoder's own code is.
func FuzzCostMatrix(f *testing.F) {
	for _, costs := range costSeeds {
		f.Add(costs)
	}
	f.Fuzz(func(t *testing.T, costs string) {
		checkDecode(t, `{"costs":`+costs+`}`)
	})
}

// FuzzSolveRequest mutates whole bodies.
func FuzzSolveRequest(f *testing.F) {
	for _, costs := range costSeeds {
		f.Add(`{"costs":` + costs + `}`)
	}
	for _, body := range []string{
		`null`, `{}`,
		// Keys encoding/json matches but the one pass does not.
		`{"COSTS":[[1]]}`, `{"coſts":[[1]]}`, `{"co\u0073ts":[[1]]}`,
		// Repeated costs decode into what the first one left.
		`{"costs":[[1]],"costs":[[2,null]]}`, `{"costs":null,"costs":[[2]]}`, `{"costs":[],"costs":[[2]]}`,
		`{"costs":[[1]],"deadline_ms":1.5}`, `{"costs":[[1]],"deadline_ms":1e3}`,
		`{"costs":[[1]],"deadline_ms":-0}`, `{"costs":[[1]],"deadline_ms":9223372036854775808}`,
		`{"costs":[[1]],"maximize":1}`, `{"costs":[[1]],"maximize":null}`,
		`{"costs":[[1]],"extra":{"a":[1,{"b":null}]}}`, "{\"costs\":[[1]],\"key\":\"k\xff\"}",
		"{\"costs\":[[1]],\"key\":\"k\t\"}",
		// Numbers strconv reads but JSON forbids.
		`{"costs":[[+1]]}`, `{"costs":[[01]]}`, `{"costs":[[1.]]}`, `{"costs":[[.5]]}`,
		// Trailing commas, and bytes after the object.
		`{"costs":[[1,],]}`, `{"costs":[[1]],}`, `{"costs":[[1]]} x`, `{"costs":[[1]]}{}`,
		// Every field, in the wire forms clients send.
		`{"deadline_ms":50,"quality":"bounded(0.05)","key":"stream-0","costs":[[4,1.5,-3e2]],"maximize":true}`,
	} {
		f.Add(body)
	}
	f.Fuzz(checkDecode)
}

// TestOnePassAccepts: the bodies clients send are decoded in the one
// pass, not handed to json.Unmarshal.
func TestOnePassAccepts(t *testing.T) {
	for _, body := range []string{
		`{}`,
		`{"costs":[[4,1,3],[2,0,5],[3,2,2]],"deadline_ms":5000}`,
		`{"costs":[[4e0, 1.0, 3],[2, -0, 5.0],[3, 2, 2]]}`,
		`{ "maximize" : false , "costs" : [ [ ] , [ 1 ] ] , "key" : "" }`,
		`{"deadline_ms":7,"quality":"bounded(0.05)","key":"stream-0","costs":[],"maximize":true}` + "\n",
	} {
		if _, ok := parseSolveRequest([]byte(body)); !ok {
			t.Errorf("%s: not decoded in one pass", body)
		}
		checkDecode(t, body)
	}
}

// TestCostDecodeAllocs pins what reading and decoding a body allocates:
// a 128×128 stream body costs a few objects and little beyond its
// buffer and its matrix, a body whose one row is long costs its length,
// and neither the rest of the body nor a declared length that never
// arrives sizes anything.
func TestCostDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decode := func(body []byte, n int64) error {
		buf, err := readBody(bytes.NewReader(body), n)
		if err == nil {
			_, err = decodeSolveRequest(buf)
		}
		return err
	}
	allocated := func(body []byte, n int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = decode(body, n) // a refused body's cost is measured too
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	body := benchBody(matrix(rng, 128, 128))
	n := int64(len(body))
	if err := decode(body, n); err != nil {
		t.Fatal(err)
	}
	if objects := testing.AllocsPerRun(5, func() { _ = decode(body, n) }); objects > 16 {
		t.Errorf("decoding a 128×128 body allocated %.0f objects, want ≤ 16", objects)
	}
	// 60% of the 396,752 bytes encoding/json's Decoder and a
	// hand-written walk of its costs took.
	if b := allocated(body, n); b > 238051 {
		t.Errorf("decoding a 128×128 body allocated %d bytes, want ≤ 238,051", b)
	}

	body = benchBody(matrix(rng, 1, 200000))
	if b := allocated(body, int64(len(body))); b >= 16<<20 {
		t.Errorf("decoding one row of 200,000 entries allocated %d bytes, want < 16 MB", b)
	}

	// The commas in a later field are not costs, even where costs
	// never closes before them.
	commas := strings.Repeat(",", 16<<20)
	for _, body := range []string{`{"costs":[[1]],"pad":"` + commas + `"}`, `{"costs":[[1],"pad":"` + commas + `]]"}`} {
		if b := allocated([]byte(body), int64(len(body))); b > 2*uint64(len(body)) {
			t.Errorf("decoding %.20s… (%d bytes) allocated %d bytes, want ≤ twice the body", body, len(body), b)
		}
	}

	// A body that declares 64 MiB and sends 20 bytes.
	body = []byte(`{"costs":[[1,2,3]]}` + " ")
	if b := allocated(body, 64<<20); b > firstRead {
		t.Errorf("a 20-byte body declared as 64 MiB allocated %d bytes, want ≤ %d", b, firstRead)
	}
}

// BenchmarkDecodeSolveRequest reads and decodes a 128×128 stream body.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	body := benchBody(matrix(rand.New(rand.NewSource(1)), 128, 128))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := readBody(bytes.NewReader(body), int64(len(body)))
		if err == nil {
			decoded, err = decodeSolveRequest(buf)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

var decoded solveRequest

// matrix draws a rows×cols matrix of integer costs in [1, 64000].
func matrix(rng *rand.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = float64(1 + rng.Intn(64000))
		}
	}
	return m
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
