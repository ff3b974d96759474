package hunipu

import (
	"math"
	"strings"
	"testing"
)

// TestSolveInputValidation is the table-driven edge-case suite for the
// public Solve entry point: malformed and degenerate inputs across all
// three devices.
func TestSolveInputValidation(t *testing.T) {
	devices := []Option{OnCPU(), OnIPU(), OnGPU()}
	cases := []struct {
		name    string
		costs   [][]float64
		opts    []Option
		wantErr string // substring; "" means the call must succeed
		want    []int  // expected assignment when it must succeed (nil = skip)
		cost    float64
	}{
		{
			name:  "empty matrix",
			costs: nil,
			want:  []int{},
			cost:  0,
		},
		{
			name:  "empty slice matrix",
			costs: [][]float64{},
			want:  []int{},
			cost:  0,
		},
		{
			name:  "single entry",
			costs: [][]float64{{7}},
			want:  []int{0},
			cost:  7,
		},
		{
			name:  "single row picks cheapest column",
			costs: [][]float64{{9, 2, 5}},
			want:  []int{1},
			cost:  2,
		},
		{
			name:  "single column",
			costs: [][]float64{{4}, {1}, {6}},
			want:  []int{-1, 0, -1},
			cost:  1,
		},
		{
			name:    "ragged matrix",
			costs:   [][]float64{{1, 2}, {3}},
			wantErr: "ragged",
		},
		{
			name:    "NaN entry",
			costs:   [][]float64{{1, math.NaN()}, {3, 4}},
			wantErr: "finite",
		},
		{
			name:    "+Inf entry",
			costs:   [][]float64{{1, math.Inf(1)}, {3, 4}},
			wantErr: "finite",
		},
		{
			name:    "-Inf entry",
			costs:   [][]float64{{math.Inf(-1), 2}, {3, 4}},
			wantErr: "finite",
		},
		{
			name:    "max float entry",
			costs:   [][]float64{{1, math.MaxFloat64}, {3, 4}},
			wantErr: "too wide",
		},
		{
			name:    "NaN under Maximize",
			costs:   [][]float64{{math.NaN()}},
			opts:    []Option{Maximize()},
			wantErr: "finite",
		},
		{
			name:  "wide rectangle",
			costs: [][]float64{{5, 1, 9}, {1, 5, 9}},
			want:  []int{1, 0},
			cost:  2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, dev := range devices {
				res, err := Solve(tc.costs, append([]Option{dev}, tc.opts...)...)
				if tc.wantErr != "" {
					if err == nil {
						t.Fatalf("want error containing %q, got result %+v", tc.wantErr, res)
					}
					if !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error %q does not mention %q", err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Cost != tc.cost {
					t.Fatalf("%s: cost = %g, want %g", res.Device, res.Cost, tc.cost)
				}
				if tc.want != nil {
					if len(res.Assignment) != len(tc.want) {
						t.Fatalf("%s: assignment %v, want %v", res.Device, res.Assignment, tc.want)
					}
					for i := range tc.want {
						if res.Assignment[i] != tc.want[i] {
							t.Fatalf("%s: assignment %v, want %v", res.Device, res.Assignment, tc.want)
						}
					}
				}
			}
		})
	}
}

// TestMaximizeRoundTrip checks the max→min conversion end to end: the
// maximising assignment of V must be the minimising assignment of
// (max−V), and the reported Cost must be the value under the original
// matrix, not the converted one.
func TestMaximizeRoundTrip(t *testing.T) {
	values := [][]float64{
		{3, 8, 2},
		{9, 1, 5},
		{4, 6, 7},
	}
	maxRes, err := Solve(values, Maximize(), OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	// Brute force the maximum value over all 6 permutations.
	best := math.Inf(-1)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		v := 0.0
		for i, j := range p {
			v += values[i][j]
		}
		if v > best {
			best = v
		}
	}
	if maxRes.Cost != best {
		t.Fatalf("maximised value = %g, want %g", maxRes.Cost, best)
	}
	// Round-trip: minimising the flipped matrix picks the same matching.
	maxV := 0.0
	for _, r := range values {
		for _, v := range r {
			if v > maxV {
				maxV = v
			}
		}
	}
	flipped := make([][]float64, len(values))
	for i, r := range values {
		flipped[i] = make([]float64, len(r))
		for j, v := range r {
			flipped[i][j] = maxV - v
		}
	}
	minRes, err := Solve(flipped, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	for i := range maxRes.Assignment {
		if maxRes.Assignment[i] != minRes.Assignment[i] {
			t.Fatalf("Maximize assignment %v, flipped-min assignment %v", maxRes.Assignment, minRes.Assignment)
		}
	}
	// And Maximize twice is stable: a second call returns the same value.
	again, err := Solve(values, Maximize(), OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost != maxRes.Cost {
		t.Fatalf("repeat Maximize value %g, want %g", again.Cost, maxRes.Cost)
	}
}

// TestDeviceStringUnknown pins the Stringer output, including the
// fallback for out-of-range device values.
func TestDeviceStringUnknown(t *testing.T) {
	cases := []struct {
		d    Device
		want string
	}{
		{DeviceIPU, "IPU"},
		{DeviceGPU, "GPU"},
		{DeviceCPU, "CPU"},
		{Device(3), "Device(3)"},
		{Device(42), "Device(42)"},
		{Device(-1), "Device(-1)"},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("Device(%d).String() = %q, want %q", int(tc.d), got, tc.want)
		}
	}
}
