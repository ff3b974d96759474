package poplar

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"hunipu/internal/ipu"
)

// smallCfg is a 16-tile device for focused tests.
func smallCfg() ipu.Config {
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 16
	return cfg
}

func newDev(t *testing.T, cfg ipu.Config) *ipu.Device {
	t.Helper()
	d, err := ipu.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAddVariableAndMapping(t *testing.T) {
	g := NewGraph(smallCfg())
	v := g.AddVariable("x", Float, 4, 8)
	if v.NumElements() != 32 || v.Rows() != 4 || v.Cols() != 8 {
		t.Fatalf("shape wrong: %v", v.Shape)
	}
	g.MapLinearly(v)
	if err := v.validateMapping(); err != nil {
		t.Fatal(err)
	}
	if g.Tensor("x") != v {
		t.Fatal("lookup by name failed")
	}
	if g.Tensor("missing") != nil {
		t.Fatal("missing tensor should be nil")
	}
}

func TestDuplicateTensorNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	g := NewGraph(smallCfg())
	g.AddVariable("x", Float, 1)
	g.AddVariable("x", Float, 1)
}

func TestMappingValidation(t *testing.T) {
	g := NewGraph(smallCfg())
	v := g.AddVariable("x", Float, 10)
	g.SetTileMapping(v, 0, 0, 5)
	// Gap: 5..7 unmapped.
	g.SetTileMapping(v, 1, 7, 10)
	if err := v.validateMapping(); err == nil {
		t.Fatal("gap in mapping must fail validation")
	}
}

func TestMappingOverlapFails(t *testing.T) {
	g := NewGraph(smallCfg())
	v := g.AddVariable("x", Float, 10)
	g.SetTileMapping(v, 0, 0, 6)
	g.SetTileMapping(v, 1, 4, 10)
	if err := v.validateMapping(); err == nil {
		t.Fatal("overlapping mapping must fail validation")
	}
}

func TestUnmappedTensorFailsCompile(t *testing.T) {
	g := NewGraph(smallCfg())
	g.AddVariable("x", Float, 10)
	cs := g.AddComputeSet("noop")
	_ = cs
	dev := newDev(t, smallCfg())
	if _, err := NewEngine(g, Sequence(), dev); err == nil {
		t.Fatal("unmapped tensor must fail compile")
	}
}

func TestTileMemoryOverflowFailsCompile(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	// 624 KiB / 4 bytes = 159744 floats per tile; allocate more on tile 0.
	v := g.AddVariable("big", Float, 200_000)
	g.MapAllTo(v, 0)
	dev := newDev(t, cfg)
	_, err := NewEngine(g, Sequence(), dev)
	if err == nil || !strings.Contains(err.Error(), "memory exceeded") {
		t.Fatalf("want tile memory error (C2), got %v", err)
	}
}

func TestMapRowBlocksAndSegments(t *testing.T) {
	g := NewGraph(smallCfg())
	m := g.AddVariable("m", Float, 8, 4)
	g.MapRowBlocks(m, 2) // 2 rows per tile → tiles 0..3
	if err := m.validateMapping(); err != nil {
		t.Fatal(err)
	}
	if m.TileOf(0) != 0 || m.TileOf(2*4) != 1 || m.TileOf(6*4) != 3 {
		t.Fatal("row-block mapping wrong")
	}
	s := g.AddVariable("s", Int, 100)
	g.MapSegments(s, 32)
	if err := s.validateMapping(); err != nil {
		t.Fatal(err)
	}
	if s.TileOf(0) != 0 || s.TileOf(33) != 1 || s.TileOf(99) != 3 {
		t.Fatal("segment mapping wrong")
	}
}

func TestSegmentMappingWrapsTiles(t *testing.T) {
	cfg := smallCfg() // 16 tiles
	g := NewGraph(cfg)
	s := g.AddVariable("s", Int, 20*4) // 20 segments of 4 on 16 tiles
	g.MapSegments(s, 4)
	if err := s.validateMapping(); err != nil {
		t.Fatal(err)
	}
	if s.TileOf(16*4) != 0 { // 17th segment wraps to tile 0
		t.Fatalf("wrap tile = %d, want 0", s.TileOf(16*4))
	}
}

func TestExecuteComputeSetAndCharges(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 16)
	y := g.AddVariable("y", Float, 16)
	g.MapLinearly(x)
	g.MapLinearly(y)
	cs := g.AddComputeSet("double")
	for _, r := range x.MappingRegions() {
		in := x.Slice(r.Start, r.End)
		out := y.Slice(r.Start, r.End)
		cs.AddVertex(r.Tile, func(w *Worker) {
			for i, v := range in.Data() {
				out.Data()[i] = 2 * v
			}
			w.ChargeVec(int64(in.Len()))
		}).Reads(in).Writes(out)
	}
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Execute(cs), dev)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	x.HostWrite(vals)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := y.HostRead()
	for i := range got {
		if got[i] != 2*float64(i) {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], 2*float64(i))
		}
	}
	s := dev.Stats()
	if s.Supersteps != 1 || s.ComputeCycles == 0 {
		t.Fatalf("stats = %+v", s)
	}
	// x and y are mapped identically, so everything was tile-local.
	if s.BytesExchanged != 0 {
		t.Fatalf("local compute exchanged %d bytes", s.BytesExchanged)
	}
}

func TestExchangeChargedForRemoteReads(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 64)
	out := g.AddVariable("out", Float, 1)
	g.MapLinearly(x) // spread over tiles
	g.MapAllTo(out, 0)
	cs := g.AddComputeSet("gather")
	all := x.All()
	o := out.All()
	cs.AddVertex(0, func(w *Worker) {
		var sum float64
		for _, v := range all.Data() {
			sum += v
		}
		o.Data()[0] = sum
		w.Charge(64)
	}).Reads(all).Writes(o)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Execute(cs), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	// Tile 0's own chunk (64/16 = 4 elements) stays local; 60 elements
	// × 4 bytes move.
	if s.BytesExchanged != 60*4 {
		t.Fatalf("BytesExchanged = %d, want 240", s.BytesExchanged)
	}
	if s.ExchangeCycles == 0 {
		t.Fatal("exchange cycles not charged")
	}
}

func TestRaceDetectionWriteWrite(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 8)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("racy")
	ref := x.Slice(0, 8)
	cs.AddVertex(0, func(w *Worker) {}).Writes(ref)
	cs.AddVertex(1, func(w *Worker) {}).Writes(x.Slice(4, 8))
	dev := newDev(t, cfg)
	_, err := NewEngine(g, Execute(cs), dev)
	if err == nil || !strings.Contains(err.Error(), "race") {
		t.Fatalf("want race error (C1), got %v", err)
	}
}

func TestRaceDetectionReadWrite(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 8)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("racy")
	cs.AddVertex(0, func(w *Worker) {}).Reads(x.Slice(0, 5))
	cs.AddVertex(1, func(w *Worker) {}).Writes(x.Slice(4, 8))
	dev := newDev(t, cfg)
	if _, err := NewEngine(g, Execute(cs), dev); err == nil {
		t.Fatal("read/write overlap must be rejected")
	}
}

func TestDisjointWritesAllowed(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 8)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("ok")
	cs.AddVertex(0, func(w *Worker) {}).Writes(x.Slice(0, 4))
	cs.AddVertex(1, func(w *Worker) {}).Writes(x.Slice(4, 8)).Reads(x.Slice(4, 8))
	dev := newDev(t, cfg)
	if _, err := NewEngine(g, Execute(cs), dev); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatProgram(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 1)
	g.MapAllTo(x, 0)
	cs := g.AddComputeSet("inc")
	ref := x.All()
	cs.AddVertex(0, func(w *Worker) {
		ref.Data()[0]++
		w.Charge(1)
	}).Reads(ref).Writes(ref)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Repeat(10, Execute(cs)), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := x.ScalarValue(); got != 10 {
		t.Fatalf("x = %g, want 10", got)
	}
	if dev.Stats().Supersteps != 10 {
		t.Fatalf("supersteps = %d, want 10", dev.Stats().Supersteps)
	}
}

func TestRepeatWhileTrue(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	counter := g.AddVariable("counter", Float, 1)
	pred := g.AddVariable("pred", Bool, 1)
	g.MapAllTo(counter, 0)
	g.MapAllTo(pred, 0)
	cs := g.AddComputeSet("step")
	c := counter.All()
	p := pred.All()
	cs.AddVertex(0, func(w *Worker) {
		c.Data()[0]++
		if c.Data()[0] >= 5 {
			p.Data()[0] = 0
		}
		w.Charge(2)
	}).Reads(c).Writes(c, p)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, RepeatWhileTrue(pred, Execute(cs)), dev)
	if err != nil {
		t.Fatal(err)
	}
	pred.SetScalar(1)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if counter.ScalarValue() != 5 {
		t.Fatalf("counter = %g, want 5", counter.ScalarValue())
	}
}

func TestRepeatWhileTrueBudget(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	pred := g.AddVariable("pred", Bool, 1)
	g.MapAllTo(pred, 0)
	cs := g.AddComputeSet("spin")
	cs.AddVertex(0, func(w *Worker) { w.Charge(1) })
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, RepeatWhileTrue(pred, Execute(cs)), dev, WithMaxSupersteps(100))
	if err != nil {
		t.Fatal(err)
	}
	pred.SetScalar(1) // never cleared → must hit the backstop
	if err := eng.Run(); err == nil {
		t.Fatal("non-terminating loop must fail, not hang")
	}
}

func TestIfProgram(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	pred := g.AddVariable("pred", Bool, 1)
	x := g.AddVariable("x", Float, 1)
	g.MapAllTo(pred, 0)
	g.MapAllTo(x, 0)
	ref := x.All()
	then := g.AddComputeSet("then")
	then.AddVertex(0, func(w *Worker) { ref.Data()[0] = 1; w.Charge(1) }).Writes(ref)
	els := g.AddComputeSet("else")
	els.AddVertex(0, func(w *Worker) { ref.Data()[0] = 2; w.Charge(1) }).Writes(ref)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, If(pred, Execute(then), Execute(els)), dev)
	if err != nil {
		t.Fatal(err)
	}
	pred.SetScalar(1)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if x.ScalarValue() != 1 {
		t.Fatalf("then-branch not taken: x = %g", x.ScalarValue())
	}
	pred.SetScalar(0)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if x.ScalarValue() != 2 {
		t.Fatalf("else-branch not taken: x = %g", x.ScalarValue())
	}
}

func TestCopyProgram(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	a := g.AddVariable("a", Float, 16)
	b := g.AddVariable("b", Float, 16)
	g.MapAllTo(a, 0)
	g.MapAllTo(b, 5)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Copy(a.All(), b.All()), dev)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i * i)
	}
	a.HostWrite(vals)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := b.HostRead()
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("b[%d] = %g, want %g", i, got[i], vals[i])
		}
	}
	if dev.Stats().BytesExchanged != 16*4 {
		t.Fatalf("copy exchanged %d bytes, want 64", dev.Stats().BytesExchanged)
	}
}

func TestCopySameTileIsFree(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	a := g.AddVariable("a", Float, 8)
	b := g.AddVariable("b", Float, 8)
	g.MapAllTo(a, 3)
	g.MapAllTo(b, 3)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Copy(a.All(), b.All()), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BytesExchanged != 0 {
		t.Fatalf("same-tile copy exchanged %d bytes", dev.Stats().BytesExchanged)
	}
}

func TestCopyLengthMismatch(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	a := g.AddVariable("a", Float, 8)
	b := g.AddVariable("b", Float, 4)
	g.MapAllTo(a, 0)
	g.MapAllTo(b, 0)
	dev := newDev(t, cfg)
	if _, err := NewEngine(g, Copy(a.All(), b.All()), dev); err == nil {
		t.Fatal("length mismatch must fail compile")
	}
}

func TestReduceOps(t *testing.T) {
	for _, tc := range []struct {
		op   ReduceOp
		want float64
	}{
		{ReduceMin, 1}, {ReduceMax, 64}, {ReduceSum, 64 * 65 / 2},
	} {
		cfg := smallCfg()
		g := NewGraph(cfg)
		x := g.AddVariable("x", Float, 64)
		out := g.AddVariable("out", Float, 1)
		g.MapLinearly(x)
		g.MapAllTo(out, 0)
		prog := Reduce(g, x, out, tc.op, "r")
		dev := newDev(t, cfg)
		eng, err := NewEngine(g, prog, dev)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		x.HostWrite(vals)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if got := out.ScalarValue(); got != tc.want {
			t.Fatalf("op %d: got %g, want %g", tc.op, got, tc.want)
		}
		// 16 tiles → 16 partials > 2·6 threads, so the gather splits
		// into a chunk stage plus the final combine: 3 supersteps.
		if dev.Stats().Supersteps != 3 {
			t.Fatalf("reduce should be 3 supersteps, got %d", dev.Stats().Supersteps)
		}
	}
}

func TestReduceRows(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	m := g.AddVariable("m", Float, 4, 8)
	mins := g.AddVariable("mins", Float, 4)
	g.MapRowBlocks(m, 1)
	for i := 0; i < 4; i++ {
		g.SetTileMapping(mins, i, i, i+1)
	}
	prog := ReduceRows(g, m, mins, ReduceMin, "rowmin")
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(100 - i)
	}
	m.HostWrite(vals)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := mins.HostRead()
	want := []float64{93, 85, 77, 69}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d min = %g, want %g", i, got[i], want[i])
		}
	}
	// Row-aligned mapping ⇒ no exchange.
	if dev.Stats().BytesExchanged != 0 {
		t.Fatalf("row reduce exchanged %d bytes", dev.Stats().BytesExchanged)
	}
}

func TestSortRowsDesc(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	m := g.AddVariable("m", Float, 2, 5)
	g.MapRowBlocks(m, 1)
	prog := SortRowsDesc(g, m, "s")
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	m.HostWrite([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := m.HostRead()
	want := []float64{5, 4, 3, 1, 1, 9, 6, 5, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}

func TestFill(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 33)
	g.MapLinearly(x)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Fill(g, x, 7, "f"), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range x.HostRead() {
		if v != 7 {
			t.Fatalf("x[%d] = %g, want 7", i, v)
		}
	}
}

// Determinism: the same graph built and run twice, on two devices,
// yields identical data and identical cycle counts.
func TestDeterminismAcrossEngines(t *testing.T) {
	build := func() (int64, float64) {
		cfg := smallCfg()
		g := NewGraph(cfg)
		x := g.AddVariable("x", Float, 256)
		out := g.AddVariable("out", Float, 1)
		g.MapLinearly(x)
		g.MapAllTo(out, 0)
		prog := Sequence(Fill(g, x, 3, "f"), Reduce(g, x, out, ReduceSum, "r"))
		dev, _ := ipu.NewDevice(cfg)
		eng, err := NewEngine(g, prog, dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().TotalCycles(), out.ScalarValue()
	}
	c1, d1 := build()
	c2, d2 := build()
	if c1 != c2 {
		t.Fatalf("cycles differ across engines: %d vs %d", c1, c2)
	}
	if d1 != d2 || d1 != 768 {
		t.Fatalf("data differs: %g vs %g, want 768", d1, d2)
	}
}

func TestTileOfUnmappedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph(smallCfg())
	x := g.AddVariable("x", Float, 4)
	x.TileOf(0)
}

func TestChargeSortCost(t *testing.T) {
	var w Worker
	w.ChargeSort(8) // 8 * log2(8) = 24
	if w.cycles != 24 {
		t.Fatalf("ChargeSort(8) = %d, want 24", w.cycles)
	}
	var w2 Worker
	w2.ChargeSort(1)
	if w2.cycles != 1 {
		t.Fatalf("ChargeSort(1) = %d, want 1", w2.cycles)
	}
}

func TestChargeVecPairsFloats(t *testing.T) {
	var w Worker
	w.ChargeVec(7)
	if w.cycles != 4 {
		t.Fatalf("ChargeVec(7) = %d, want 4 (two floats per cycle)", w.cycles)
	}
}

// Randomised copy layouts exercise the region-walking logic.
func TestCopyRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		cfg := smallCfg()
		g := NewGraph(cfg)
		n := 1 + rng.Intn(100)
		a := g.AddVariable("a", Float, n)
		b := g.AddVariable("b", Float, n)
		// Random contiguous chunk mappings.
		for _, tns := range []*Tensor{a, b} {
			pos := 0
			for pos < n {
				end := pos + 1 + rng.Intn(n-pos)
				g.SetTileMapping(tns, rng.Intn(16), pos, end)
				pos = end
			}
		}
		dev := newDev(t, cfg)
		eng, err := NewEngine(g, Copy(a.All(), b.All()), dev)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		a.HostWrite(vals)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		got := b.HostRead()
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("trial %d: b[%d] = %g, want %g", trial, i, got[i], vals[i])
			}
		}
	}
}

// Multicast: a slice read by many tiles charges each receiver but the
// sender only once (the IPU exchange fabric multicasts).
func TestMulticastReadAccounting(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	src := g.AddVariable("src", Float, 8)
	dst := g.AddVariable("dst", Float, 8*4)
	g.MapAllTo(src, 0)
	for k := 0; k < 4; k++ {
		g.SetTileMapping(dst, k+1, k*8, (k+1)*8)
	}
	cs := g.AddComputeSet("bcast")
	all := src.All()
	for k := 0; k < 4; k++ {
		out := dst.Slice(k*8, (k+1)*8)
		cs.AddVertex(k+1, func(w *Worker) {
			copy(out.Data(), all.Data())
			w.ChargeVec(8)
		}).Reads(all).Writes(out)
	}
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Execute(cs), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 receivers × 32 bytes in; the exchange phase is gated by the
	// busiest port — the sender would have been 128 bytes without
	// multicast, with it the busiest port is one receiver's 32.
	s := dev.Stats()
	if s.BytesExchanged != 4*32 {
		t.Fatalf("BytesExchanged = %d, want 128 (receiver side)", s.BytesExchanged)
	}
	want := cfg.ExchangeLatencyCycles + int64(32/cfg.ExchangeBytesPerCycle)
	if s.ExchangeCycles != want {
		t.Fatalf("ExchangeCycles = %d, want %d (multicast sender pays once)", s.ExchangeCycles, want)
	}
}

func TestEngineProfile(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 16)
	g.MapLinearly(x)
	dev := newDev(t, cfg)
	prog := Repeat(5, Fill(g, x, 1, "p"))
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Profile()) != 0 {
		t.Fatalf("profile before any run = %+v", eng.Profile())
	}
	// Each run, after ResetReport, reports that one run.
	for run := 0; run < 2; run++ {
		eng.ResetReport()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		prof := eng.Profile()
		if len(prof) != 1 {
			t.Fatalf("run %d: profile entries = %d, want 1", run, len(prof))
		}
		p := prof[0]
		if p.Name != "p/fill" || p.Executions != 5 || p.ComputeCycles == 0 {
			t.Fatalf("run %d: profile = %+v", run, p)
		}
	}
}

func TestTraceExport(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 16)
	g.MapLinearly(x)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Repeat(3, Fill(g, x, 2, "tr")), dev)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTrace(true)
	// Each run, after ResetReport, records that one run.
	for run := 0; run < 2; run++ {
		eng.ResetReport()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if eng.TraceEventCount() != 3 {
			t.Fatalf("run %d: trace events = %d, want 3", run, eng.TraceEventCount())
		}
	}
	var buf bytes.Buffer
	if err := eng.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 || parsed.TraceEvents[0].Name != "tr/fill" {
		t.Fatalf("parsed trace: %+v", parsed.TraceEvents)
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Fatalf("bad event: %+v", ev)
		}
	}
	// With recording off, WriteTrace errors and the timeline is gone.
	eng.SetTrace(false)
	if err := eng.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace with recording off should fail")
	}
	if eng.TraceEventCount() != 0 {
		t.Fatalf("trace events after recording off = %d, want 0", eng.TraceEventCount())
	}
}

func TestDTypeStringAndBytes(t *testing.T) {
	if Float.String() != "float" || Int.String() != "int" || Bool.String() != "bool" {
		t.Fatal("DType names wrong")
	}
	if DType(9).String() == "" {
		t.Fatal("unknown dtype should still print")
	}
	if Float.DeviceBytes() != 4 || Int.DeviceBytes() != 4 || Bool.DeviceBytes() != 1 {
		t.Fatal("device byte widths wrong")
	}
}

func TestGraphConfigAndNumVertices(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	if g.Config().Tiles() != 16 {
		t.Fatal("Config() wrong")
	}
	cs := g.AddComputeSet("c")
	cs.AddVertex(0, func(w *Worker) {})
	cs.AddVertex(1, func(w *Worker) {})
	if cs.NumVertices() != 2 {
		t.Fatal("NumVertices wrong")
	}
}

func TestPanicPaths(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative dimension", func() { NewGraph(smallCfg()).AddVariable("x", Float, -1) }},
		{"bad tile", func() {
			g := NewGraph(smallCfg())
			v := g.AddVariable("x", Float, 4)
			g.SetTileMapping(v, 99, 0, 4)
		}},
		{"bad range", func() {
			g := NewGraph(smallCfg())
			v := g.AddVariable("x", Float, 4)
			g.SetTileMapping(v, 0, 2, 9)
		}},
		{"slice bounds", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).Slice(0, 5)
		}},
		{"rows on 1D", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).Rows()
		}},
		{"cols on 1D", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).Cols()
		}},
		{"rowsPerTile 0", func() {
			g := NewGraph(smallCfg())
			g.MapRowBlocks(g.AddVariable("x", Float, 2, 2), 0)
		}},
		{"segSize 0", func() {
			g := NewGraph(smallCfg())
			g.MapSegments(g.AddVariable("x", Float, 4), 0)
		}},
		{"hostwrite length", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).HostWrite([]float64{1})
		}},
		{"setscalar non-scalar", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).SetScalar(1)
		}},
		{"scalarvalue non-scalar", func() {
			g := NewGraph(smallCfg())
			g.AddVariable("x", Float, 4).ScalarValue()
		}},
		{"reduce non-scalar dst", func() {
			g := NewGraph(smallCfg())
			src := g.AddVariable("s", Float, 4)
			g.MapAllTo(src, 0)
			dst := g.AddVariable("d", Float, 2)
			g.MapAllTo(dst, 0)
			Reduce(g, src, dst, ReduceMin, "r")
		}},
		{"reducerows bad dst", func() {
			g := NewGraph(smallCfg())
			src := g.AddVariable("s", Float, 2, 2)
			g.MapRowBlocks(src, 1)
			dst := g.AddVariable("d", Float, 5)
			g.MapAllTo(dst, 0)
			ReduceRows(g, src, dst, ReduceMin, "r")
		}},
		{"vertex after compile", func() {
			g := NewGraph(smallCfg())
			cs := g.AddComputeSet("c")
			cs.AddVertex(0, func(w *Worker) {})
			dev, _ := ipu.NewDevice(smallCfg())
			if _, err := NewEngine(g, Execute(cs), dev); err != nil {
				t.Fatal(err)
			}
			cs.AddVertex(1, func(w *Worker) {})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestCompileErrorPaths(t *testing.T) {
	cfg := smallCfg()
	// Repeat with negative count.
	g := NewGraph(cfg)
	dev := newDev(t, cfg)
	if _, err := NewEngine(g, Repeat(-1, Sequence()), dev); err == nil {
		t.Fatal("negative repeat accepted")
	}
	// Non-scalar RepeatWhileTrue predicate.
	g2 := NewGraph(cfg)
	p2 := g2.AddVariable("p", Bool, 3)
	g2.MapAllTo(p2, 0)
	if _, err := NewEngine(g2, RepeatWhileTrue(p2, Sequence()), newDev(t, cfg)); err == nil {
		t.Fatal("non-scalar while predicate accepted")
	}
	// Non-scalar If predicate.
	g3 := NewGraph(cfg)
	p3 := g3.AddVariable("p", Bool, 2)
	g3.MapAllTo(p3, 0)
	if _, err := NewEngine(g3, If(p3, Sequence(), nil), newDev(t, cfg)); err == nil {
		t.Fatal("non-scalar if predicate accepted")
	}
	// Nil program.
	g4 := NewGraph(cfg)
	if _, err := NewEngine(g4, nil, newDev(t, cfg)); err == nil {
		t.Fatal("nil program accepted")
	}
	// Vertex without codelet.
	g5 := NewGraph(cfg)
	cs := g5.AddComputeSet("c")
	cs.AddVertex(0, nil)
	if _, err := NewEngine(g5, Execute(cs), newDev(t, cfg)); err == nil {
		t.Fatal("nil codelet accepted")
	}
	// Vertex on invalid tile.
	g6 := NewGraph(cfg)
	cs6 := g6.AddComputeSet("c")
	cs6.AddVertex(-1, func(w *Worker) {})
	if _, err := NewEngine(g6, Execute(cs6), newDev(t, cfg)); err == nil {
		t.Fatal("invalid vertex tile accepted")
	}
	// Mismatched device.
	g7 := NewGraph(cfg)
	big := ipu.MK2()
	devBig, _ := ipu.NewDevice(big)
	if _, err := NewEngine(g7, Sequence(), devBig); err == nil {
		t.Fatal("tile-count mismatch accepted")
	}
}

// TestComputeSetChargesSlowestTile: a compute set runs every vertex
// exactly once per execution, and its superstep's compute phase costs the slowest
// tile's time (C3), not the sum over tiles. Tiles hold fewer, as many
// and more vertices than the 6 threads, each vertex with its own
// charge, so which thread slot a vertex's work lands in decides the
// time; each tile takes a turn as the slowest.
func TestComputeSetChargesSlowestTile(t *testing.T) {
	cfg := smallCfg()
	counts := []int{1, 5, 6, 7, 13} // vertices on tiles 0, 1, ...
	total := 0
	for _, n := range counts {
		total += n
	}
	for slow := range counts {
		g := NewGraph(cfg)
		x := g.AddVariable("x", Float, total)
		cs := g.AddComputeSet("uneven")
		var want, slowest int64
		e := 0
		for tile, n := range counts {
			g.SetTileMapping(x, tile, e, e+n)
			cycles := make([]int64, n)
			for j := range cycles {
				cycles[j] = int64((5*j+tile)%7 + 1)
				if tile == slow {
					cycles[j] *= 100
				}
				ref, work := x.Index(e), cycles[j]
				cs.AddVertex(tile, func(w *Worker) {
					ref.Data()[0]++
					w.Charge(work)
				}).Writes(ref)
				e++
			}
			want = max(want, cfg.TileTime(cycles))
			if tile == slow {
				slowest = cfg.TileTime(cycles)
			}
		}
		if want != slowest {
			t.Fatalf("slow tile %d: its time %d is not the maximum %d", slow, slowest, want)
		}
		dev := newDev(t, cfg)
		eng, err := NewEngine(g, Execute(cs), dev)
		if err != nil {
			t.Fatal(err)
		}
		// Two runs: the second must start from clear thread slots.
		for run := 0; run < 2; run++ {
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range x.HostRead() {
			if v != 2 {
				t.Fatalf("slow tile %d: vertex %d ran %g times in two runs, want 2", slow, i, v)
			}
		}
		if got := dev.Stats().ComputeCycles; got != 2*want {
			t.Fatalf("slow tile %d: ComputeCycles = %d over two runs, want twice the slowest tile's %d", slow, got, want)
		}
	}
}

func TestDynamicSliceAndUpdate(t *testing.T) {
	cfg := smallCfg()
	g := NewGraph(cfg)
	data := g.AddVariable("data", Int, 12)
	for tile := 0; tile < 3; tile++ {
		g.SetTileMapping(data, tile, tile*4, (tile+1)*4)
	}
	idx := g.AddVariable("idx", Int, 1)
	out := g.AddVariable("out", Int, 1)
	val := g.AddVariable("val", Int, 1)
	g.MapAllTo(idx, 5)
	g.MapAllTo(out, 5)
	g.MapAllTo(val, 5)
	prog := Sequence(
		DynamicUpdate(g, data, idx, val, "upd"),
		DynamicSlice(g, data, idx, out, -99, "slc"),
	)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetScalar(7)
	val.SetScalar(123)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.ScalarValue() != 123 {
		t.Fatalf("slice after update = %g, want 123", out.ScalarValue())
	}
	// Out-of-range index: no write, miss value on read.
	idx.SetScalar(-3)
	val.SetScalar(7)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.ScalarValue() != -99 {
		t.Fatalf("miss value = %g, want -99", out.ScalarValue())
	}
	for i, v := range data.HostRead() {
		want := 0.0
		if i == 7 {
			want = 123
		}
		if v != want {
			t.Fatalf("data[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestDynamicSlicePanicsOnNonScalar(t *testing.T) {
	g := NewGraph(smallCfg())
	data := g.AddVariable("d", Int, 4)
	g.MapAllTo(data, 0)
	idx := g.AddVariable("i", Int, 2)
	out := g.AddVariable("o", Int, 1)
	g.MapAllTo(idx, 0)
	g.MapAllTo(out, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DynamicSlice(g, data, idx, out, -1, "x")
}

func TestReduceSingleRegion(t *testing.T) {
	// A tensor on one tile: the short (2-superstep) reduce path.
	cfg := smallCfg()
	g := NewGraph(cfg)
	x := g.AddVariable("x", Float, 9)
	out := g.AddVariable("o", Float, 1)
	g.MapAllTo(x, 3)
	g.MapAllTo(out, 0)
	prog := Reduce(g, x, out, ReduceSum, "r1")
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 9)
	for i := range vals {
		vals[i] = 2
	}
	x.HostWrite(vals)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.ScalarValue() != 18 {
		t.Fatalf("sum = %g, want 18", out.ScalarValue())
	}
	if dev.Stats().Supersteps != 2 {
		t.Fatalf("single-region reduce should be 2 supersteps, got %d", dev.Stats().Supersteps)
	}
}

func TestEmptyTensorAllowed(t *testing.T) {
	// Zero-element tensors compile and no-op.
	cfg := smallCfg()
	g := NewGraph(cfg)
	g.AddVariable("empty", Float, 0)
	dev := newDev(t, cfg)
	eng, err := NewEngine(g, Sequence(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
