package bench

import (
	"strings"
	"testing"
)

// quickConfig keeps harness tests fast: small sizes, few ranges.
func quickConfig() Config {
	return Config{
		Sizes:       []int{32, 64},
		Ks:          []int{10, 500},
		Fig5Ks:      []int{10, 500},
		NoiseLevels: []float64{0.90, 0.99},
		GraphScale:  0.1,
		Seed:        1,
	}
}

func newHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	s := tab.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "333") {
		t.Fatalf("bad render:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") || !strings.Contains(csv, "333,4\n") {
		t.Fatalf("bad csv:\n%s", csv)
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Header: []string{"x"}}
	tab.AddRow(`va"l,ue`)
	if got := tab.CSV(); !strings.Contains(got, `"va""l,ue"`) {
		t.Fatalf("csv escaping broken: %q", got)
	}
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I generation in -short mode")
	}
	tab, err := newHarness(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table I rows = %d, want 3", len(tab.Rows))
	}
	// The generated analogues must hit the published n and m exactly.
	want := map[string][2]string{
		"MultiMagna": {"1004", "8323"},
		"HighSchool": {"327", "5818"},
		"Voles":      {"712", "2391"},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected dataset %q", row[0])
		}
		if row[1] != w[0] || row[2] != w[1] {
			t.Fatalf("%s: n=%s m=%s, want n=%s m=%s", row[0], row[1], row[2], w[0], w[1])
		}
	}
}

func TestTable2ShapeAndPositivity(t *testing.T) {
	tab, err := newHarness(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 3 {
		t.Fatalf("Table II shape: %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if strings.HasPrefix(cell, "-") || cell == "0.00" {
				t.Fatalf("non-positive gain %q", cell)
			}
		}
	}
}

func TestFig5SkipsNonPow2AndReportsBothSolvers(t *testing.T) {
	cfg := quickConfig()
	cfg.Sizes = []int{32, 48, 64} // 48 must be skipped
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := h.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 2 sizes × 2 ranges
		t.Fatalf("Fig 5 rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] == "48" {
			t.Fatal("non-power-of-two size not skipped")
		}
	}
}

func TestTable3RunsAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table III harness run in -short mode")
	}
	tab, err := newHarness(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	// MultiMagna: 5 variants; HighSchool, Voles: 2 noise levels each.
	if len(tab.Rows) != 9 {
		t.Fatalf("Table III rows = %d, want 9", len(tab.Rows))
	}
	seen := map[string]int{}
	for _, row := range tab.Rows {
		seen[row[0]]++
	}
	if seen["MultiMagna"] != 5 || seen["HighSchool"] != 2 || seen["Voles"] != 2 {
		t.Fatalf("variant counts: %v", seen)
	}
}

func TestAblationsAgreeOnCost(t *testing.T) {
	tab, err := newHarness(t).Ablations()
	if err != nil {
		t.Fatal(err) // Ablations itself fails on any cost mismatch
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("ablation rows = %d, want 6", len(tab.Rows))
	}
}

func TestUniformVariant(t *testing.T) {
	tab, err := newHarness(t).TableUniform()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("uniform rows = %d", len(tab.Rows))
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := quickConfig()
	cfg.Sizes = []int{16}
	cfg.Ks = []int{10}
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Table2(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress reported")
	}
}

func TestZooAllSolversAgree(t *testing.T) {
	tab, err := newHarness(t).Zoo()
	if err != nil {
		t.Fatal(err) // Zoo fails on any solver missing the optimum
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("zoo rows = %d, want 7", len(tab.Rows))
	}
}

func TestGenerations(t *testing.T) {
	tab, err := newHarness(t).Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("generation rows = %d, want 3", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Mk1-GC2" || tab.Rows[2][0] != "Bow-2000" {
		t.Fatalf("rows: %v", tab.Rows)
	}
}

func TestFig5SVG(t *testing.T) {
	tab := &Table{
		Header: []string{"n", "range", "FastHA(ms)", "HunIPU(ms)", "speedup"},
	}
	tab.AddRow("128", "10n", "13.3", "1.4", "9.5")
	tab.AddRow("128", "500n", "18.3", "1.9", "9.6")
	tab.AddRow("256", "10n", "40.0", "5.0", "8.0")
	svg, err := Fig5SVG(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "n = 128", "n = 256", "FastHA", "HunIPU", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Malformed input is rejected, not rendered.
	bad := &Table{Header: tab.Header}
	bad.AddRow("128", "10n", "x", "1.4", "9.5")
	if _, err := Fig5SVG(bad); err == nil {
		t.Fatal("bad numbers accepted")
	}
	if _, err := Fig5SVG(&Table{}); err == nil {
		t.Fatal("empty table accepted")
	}
}
