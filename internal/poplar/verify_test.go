package poplar

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// findingChecks extracts the Check labels of a report's findings.
func findingChecks(fs []VerifyFinding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

// Seeded negative fixture 1: a tensor whose mapping overcommits a
// single tile's SRAM. Verify must reject it with a typed error whose
// message names the budget (C2).
func TestVerifyRejectsOverBudgetTileMapping(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	// 624 KiB / 4 B = 159744 floats fit one tile; map more onto tile 3.
	v := g.AddVariable("big", Float, 200_000)
	g.MapAllTo(v, 3)
	r := Verify(g, Sequence())
	err := r.Err()
	if err == nil {
		t.Fatal("over-budget mapping must fail verification")
	}
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("error must wrap ErrVerify, got %v", err)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error must be a *VerifyError, got %T", err)
	}
	f := ve.Report.Findings[0]
	if f.Check != "memory" || f.Subject != "tile 3" {
		t.Fatalf("unexpected finding %+v", f)
	}
	if !strings.Contains(f.Message, "memory exceeded") {
		t.Fatalf("C2 finding must say memory exceeded, got %q", f.Message)
	}
	// NewEngine must refuse the same graph with the same diagnostics.
	if _, err := NewEngine(g, Sequence(), newDev(t, cfg)); err == nil || !errors.Is(err, ErrVerify) {
		t.Fatalf("NewEngine must surface the verify error, got %v", err)
	}
}

// Seeded negative fixture 2: two vertices write overlapping slices in
// the same compute set — a same-superstep write/write hazard (C1).
func TestVerifyRejectsWriteWriteHazard(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 8)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("racy")
	cs.AddVertex(0, func(w *Worker) {}).Writes(x.Slice(0, 8))
	cs.AddVertex(1, func(w *Worker) {}).Writes(x.Slice(4, 8))
	r := Verify(g, Execute(cs))
	err := r.Err()
	if err == nil {
		t.Fatal("write/write hazard must fail verification")
	}
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("error must wrap ErrVerify, got %v", err)
	}
	f := r.Findings[0]
	if f.Check != "race" || f.Subject != "racy" {
		t.Fatalf("unexpected finding %+v", f)
	}
	if !strings.Contains(f.Message, "race") || !strings.Contains(f.Message, "write/write") {
		t.Fatalf("C1 finding must name the write/write race, got %q", f.Message)
	}
}

func TestVerifyReadWriteHazardKind(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 8)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("rw")
	cs.AddVertex(0, func(w *Worker) {}).Writes(x.Slice(0, 8))
	cs.AddVertex(1, func(w *Worker) {}).Reads(x.Slice(2, 6))
	r := Verify(g, Execute(cs))
	if len(r.Findings) != 1 || !strings.Contains(r.Findings[0].Message, "read/write") {
		t.Fatalf("want one read/write hazard, got %v", r.Findings)
	}
	// Disjoint slices, or same-vertex overlap, are not hazards.
	g2 := NewGraph(cfg)
	y := g2.AddVariable("y", Float, 8)
	g2.MapAllTo(y, 0)
	cs2 := g2.AddComputeSet("clean")
	cs2.AddVertex(0, func(w *Worker) {}).Writes(y.Slice(0, 4))
	cs2.AddVertex(1, func(w *Worker) {}).Reads(y.Slice(4, 8))
	if r := Verify(g2, Execute(cs2)); len(r.Findings) != 0 {
		t.Fatalf("disjoint accesses flagged: %v", r.Findings)
	}
}

func TestVerifyMappingFindings(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	g.AddVariable("unmapped", Float, 4)
	r := Verify(g, Sequence())
	if got := findingChecks(r.Findings); len(got) != 1 || got[0] != "mapping" {
		t.Fatalf("want one mapping finding, got %v", r.Findings)
	}
}

func TestVerifyForeignComputeSetAndPredicate(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	other := NewGraph(cfg)
	cs := other.AddComputeSet("alien")
	cs.AddVertex(0, func(w *Worker) {})
	pred := other.AddVariable("pred", Int, 1)
	other.MapAllTo(pred, 0)
	r := Verify(g, Sequence(Execute(cs), If(pred, Sequence(), nil)))
	checks := findingChecks(r.Findings)
	if len(checks) != 2 || checks[0] != "foreign" || checks[1] != "foreign" {
		t.Fatalf("want two foreign findings, got %v", r.Findings)
	}
}

func TestVerifyUnreachableIsNote(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	cs := g.AddComputeSet("dead")
	cs.AddVertex(0, func(w *Worker) {})
	r := Verify(g, Sequence())
	if len(r.Findings) != 0 {
		t.Fatalf("unreachable compute set must not be fatal: %v", r.Findings)
	}
	if len(r.Notes) != 1 || r.Notes[0].Check != "unreachable" || r.Notes[0].Subject != "dead" {
		t.Fatalf("want one unreachable note, got %v", r.Notes)
	}
}

func TestVerifyGatherHotSpotNote(t *testing.T) {
	cfg := smallCfg() // 16 tiles
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 16)
	g.MapLinearly(x) // one element per tile
	y := g.AddVariable("y", Float, 1)
	g.MapAllTo(y, 0)
	cs := g.AddComputeSet("gather")
	cs.AddVertex(0, func(w *Worker) {}).Reads(x.All()).Writes(y.All())
	r := Verify(g, Execute(cs))
	if len(r.Findings) != 0 {
		t.Fatalf("gather is legal, got findings %v", r.Findings)
	}
	found := false
	for _, n := range r.Notes {
		if n.Check == "hotspot" && strings.Contains(n.Message, "C4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a C4 hotspot note for a 15-tile gather, got %v", r.Notes)
	}
}

func TestVerifyReportJSONShape(t *testing.T) {
	r := &VerifyReport{}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"findings", "notes"} {
		raw, ok := parsed[key]
		if !ok {
			t.Fatalf("report JSON missing %q: %s", key, b)
		}
		var arr []VerifyFinding
		if err := json.Unmarshal(raw, &arr); err != nil {
			t.Fatalf("%q is not an array: %v", key, err)
		}
	}
	// Findings serialise with the exact lower-case field names.
	r2 := &VerifyReport{Findings: []VerifyFinding{{Check: "memory", Subject: "tile 0", Message: "m"}}}
	b2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var arr []map[string]string
	var outer struct {
		Findings json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(b2, &outer); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(outer.Findings, &arr); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"check", "subject", "message"} {
		if _, ok := arr[0][key]; !ok {
			t.Fatalf("finding JSON missing %q: %s", key, b2)
		}
	}
}

func TestVerifyObserverSeesEngineReports(t *testing.T) {
	var seen []*VerifyReport
	SetVerifyObserver(func(r *VerifyReport) { seen = append(seen, r) })
	defer SetVerifyObserver(nil)

	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 16)
	g.MapLinearly(x)
	eng, err := NewEngine(g, Repeat(1, Fill(g, x, 1, "obs")), newDev(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || len(seen[0].Findings) != 0 {
		t.Fatalf("observer should have seen one clean report, got %d", len(seen))
	}
	if eng.VerifyReport() != seen[0] {
		t.Fatal("Engine.VerifyReport must return the construction-time report")
	}
}

// The first hazard reported must be stable across runs: tensors are
// visited in creation order, not map order.
func TestVerifyFirstHazardDeterministic(t *testing.T) {
	build := func() *VerifyReport {
		cfg := smallCfg()
		g := NewGraph(cfg)
		var css []*ComputeSet
		cs := g.AddComputeSet("racy")
		for i := 0; i < 6; i++ {
			ti := g.AddVariable("t"+string(rune('a'+i)), Float, 8)
			g.MapAllTo(ti, 0)
			cs.AddVertex(0, func(w *Worker) {}).Writes(ti.Slice(0, 8))
			cs.AddVertex(1, func(w *Worker) {}).Writes(ti.Slice(0, 4))
		}
		css = append(css, cs)
		return Verify(g, Execute(css[0]))
	}
	first := build()
	for i := 0; i < 10; i++ {
		again := build()
		if len(again.Findings) != len(first.Findings) {
			t.Fatalf("finding count changed: %d vs %d", len(again.Findings), len(first.Findings))
		}
		for j := range again.Findings {
			if again.Findings[j] != first.Findings[j] {
				t.Fatalf("finding %d changed across runs:\n%v\n%v", j, first.Findings[j], again.Findings[j])
			}
		}
	}
}

// TestProfileTieBreakByName locks the profile ordering: equal compute
// cycles fall back to the compute-set name, so profile output is
// stable across runs (map iteration used to decide ties).
func TestProfileTieBreakByName(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 4)
	g.MapAllTo(x, 0)
	mk := func(name string) *ComputeSet {
		cs := g.AddComputeSet(name)
		cs.AddVertex(0, func(w *Worker) { w.Charge(7) }).Writes(x.All())
		return cs
	}
	prog := Sequence(Execute(mk("zeta")), Execute(mk("alpha")), Execute(mk("mid")))
	var first []string
	for run := 0; run < 5; run++ {
		dev := newDev(t, cfg)
		eng, err := NewEngine(g, prog, dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range eng.Profile() {
			names = append(names, p.Name)
		}
		if run == 0 {
			first = names
			want := []string{"alpha", "mid", "zeta"}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("tied profiles not name-ordered: %v", names)
				}
			}
			continue
		}
		for i := range first {
			if names[i] != first[i] {
				t.Fatalf("profile order changed across runs: %v vs %v", names, first)
			}
		}
	}
}
