package hunipu

import (
	"math/rand"
	"testing"

	"hunipu/internal/core"
	"hunipu/internal/datasets"
)

func TestSolveQuickstart(t *testing.T) {
	costs := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	for _, opt := range []Option{OnIPU(), OnGPU(), OnCPU()} {
		res, err := Solve(costs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != 5 {
			t.Fatalf("%s: cost = %g, want 5", res.Device, res.Cost)
		}
		if len(res.Assignment) != 3 {
			t.Fatalf("%s: assignment %v", res.Device, res.Assignment)
		}
		if res.Wall <= 0 {
			t.Fatalf("%s: no wall time", res.Device)
		}
	}
}

func TestSolveDevicesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 24
	costs := make([][]float64, n)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			costs[i][j] = float64(1 + rng.Intn(300))
		}
	}
	ref, err := Solve(costs, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Option{OnIPU(), OnGPU()} {
		res, err := Solve(costs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != ref.Cost {
			t.Fatalf("%s: cost %g, want %g", res.Device, res.Cost, ref.Cost)
		}
		if res.Modeled <= 0 {
			t.Fatalf("%s: simulated device must report modeled time", res.Device)
		}
	}
}

func TestSolveMaximize(t *testing.T) {
	values := [][]float64{
		{10, 1},
		{1, 10},
	}
	res, err := Solve(values, Maximize(), OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 20 {
		t.Fatalf("maximised value = %g, want 20", res.Cost)
	}
	if res.Assignment[0] != 0 || res.Assignment[1] != 1 {
		t.Fatalf("assignment = %v", res.Assignment)
	}
}

func TestSolveRejectsRaggedMatrix(t *testing.T) {
	if _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestDeviceString(t *testing.T) {
	if DeviceIPU.String() != "IPU" || DeviceGPU.String() != "GPU" || DeviceCPU.String() != "CPU" {
		t.Fatal("device names wrong")
	}
	if Device(9).String() == "" {
		t.Fatal("unknown device should still print")
	}
}

func TestAlignSelf(t *testing.T) {
	// A small asymmetric graph aligned with itself must map every node
	// to itself.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 4}, {4, 5}, {5, 6}, {2, 6}}
	res, err := Align(7, edges, edges, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.99 {
		t.Fatalf("self-alignment accuracy = %g, mapping %v", res.Accuracy, res.Mapping)
	}
}

func TestAlignOnIPUAndGPUAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	ipu, err := Align(n, edges, edges, OnIPU())
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Align(n, edges, edges, OnGPU())
	if err != nil {
		t.Fatal(err)
	}
	if ipu.Accuracy < 0.9 || gpu.Accuracy < 0.9 {
		t.Fatalf("accuracies: ipu=%g gpu=%g", ipu.Accuracy, gpu.Accuracy)
	}
}

func TestSolveRectangularWideMatrix(t *testing.T) {
	// 2 rows × 4 columns: both rows matched, surplus columns unused.
	costs := [][]float64{
		{9, 1, 8, 7},
		{2, 9, 9, 9},
	}
	for _, opt := range []Option{OnCPU(), OnIPU(), OnGPU()} {
		res, err := Solve(costs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != 3 {
			t.Fatalf("%s: cost = %g, want 3", res.Device, res.Cost)
		}
		if res.Assignment[0] != 1 || res.Assignment[1] != 0 {
			t.Fatalf("%s: assignment = %v", res.Device, res.Assignment)
		}
	}
}

func TestSolveRectangularTallMatrix(t *testing.T) {
	// 3 rows × 2 columns: the expensive row stays unassigned (−1).
	costs := [][]float64{
		{100, 100},
		{1, 2},
		{2, 1},
	}
	for _, opt := range []Option{OnCPU(), OnIPU(), OnGPU()} {
		res, err := Solve(costs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != 2 {
			t.Fatalf("%s: cost = %g, want 2", res.Device, res.Cost)
		}
		if res.Assignment[0] != -1 {
			t.Fatalf("%s: row 0 should be unassigned, got %v", res.Device, res.Assignment)
		}
		if res.Assignment[1] != 0 || res.Assignment[2] != 1 {
			t.Fatalf("%s: assignment = %v", res.Device, res.Assignment)
		}
	}
}

func TestSolveRectangularMaximize(t *testing.T) {
	// Maximisation over a wide matrix keeps rectangular semantics.
	values := [][]float64{
		{1, 9, 2},
		{8, 1, 1},
	}
	res, err := Solve(values, Maximize(), OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 17 {
		t.Fatalf("value = %g, want 17", res.Cost)
	}
}

func TestSolveEmptyInput(t *testing.T) {
	res, err := Solve(nil, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 || res.Cost != 0 {
		t.Fatalf("empty solve: %+v", res)
	}
}

func TestWithIPUOptionsAblations(t *testing.T) {
	costs := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	for _, o := range []core.Options{
		{DisableCompression: true},
		{Use2D: true},
		{ColSegment: 8},
		{ThreadsPerRow: 2},
	} {
		res, err := Solve(costs, WithIPUOptions(o))
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if res.Cost != 5 {
			t.Fatalf("%+v: cost %g, want 5", o, res.Cost)
		}
	}
}

func TestSolveUnknownDeviceRejected(t *testing.T) {
	bad := func(c *config) { c.device = Device(42) }
	if _, err := Solve([][]float64{{1}}, Option(bad)); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestAlignSizeMismatchGraphs(t *testing.T) {
	// Edges referencing nodes ≥ n are dropped by the graph builder, so
	// the pipeline still runs; a degenerate empty graph aligns trivially.
	res, err := Align(3, nil, nil, OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != 3 {
		t.Fatalf("mapping = %v", res.Mapping)
	}
}

// Integration: the full Table-III pipeline through the public API on a
// scaled dataset analogue, all three devices agreeing.
func TestIntegrationDatasetAlignment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	g, _, err := datasets.ScaledRealGraph(datasets.Voles, 5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	noisy, err := g.NoisyCopy(rng, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 [][2]int
	for _, e := range g.Edges() {
		e1 = append(e1, e)
	}
	for _, e := range noisy.Edges() {
		e2 = append(e2, e)
	}
	var accs []float64
	for _, opt := range []Option{OnCPU(), OnIPU(), OnGPU()} {
		res, err := Align(g.N, e1, e2, opt)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, res.Accuracy)
	}
	// Optimal assignments may differ under ties, but all three devices
	// solve the same LSAP: accuracies must be close.
	for i := 1; i < len(accs); i++ {
		if diff := accs[i] - accs[0]; diff > 0.1 || diff < -0.1 {
			t.Fatalf("device accuracy divergence: %v", accs)
		}
	}
}
