package ipu

import (
	"errors"
	"testing"

	"hunipu/internal/faultinject"
)

// fabricConfig returns an MK2-derived config with k chips and a small
// tile grid so per-tile arithmetic stays easy to reason about.
func fabricConfig(k int) Config {
	cfg := MK2()
	cfg.IPUs = k
	cfg.TilesPerIPU = 64
	return cfg
}

// TestCrossIPUChargedAtLinkRate pins the exchange-pricing formula in
// Device.Superstep for K∈{1,2,4}: bytes flagged as crossing chips are
// charged against InterIPUBytesPerCycle (amortised over the fabric's
// tile count), on top of — never instead of — the on-chip port cost.
func TestCrossIPUChargedAtLinkRate(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		cfg := fabricConfig(k)
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const maxBytes, cross = int64(8192), int64(1 << 20)
		d.Superstep(0, Exchange{MaxPortBytes: maxBytes, TotalBytes: maxBytes, CrossBytes: cross}, 0)

		want := cfg.ExchangeLatencyCycles +
			int64(float64(maxBytes)/cfg.ExchangeBytesPerCycle) +
			int64(float64(cross)/float64(cfg.Tiles())/cfg.InterIPUBytesPerCycle)
		if got := d.Stats().ExchangeCycles; got != want {
			t.Errorf("K=%d: ExchangeCycles = %d, want %d", k, got, want)
		}
	}
}

// TestIntraIPUNotChargedAtLinkRate pins the complement: the same
// traffic with CrossBytes=0 pays only the on-chip exchange rate,
// regardless of how many chips the fabric has.
func TestIntraIPUNotChargedAtLinkRate(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		cfg := fabricConfig(k)
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const maxBytes = int64(8192)
		d.Superstep(0, Exchange{MaxPortBytes: maxBytes, TotalBytes: maxBytes}, 0)

		want := cfg.ExchangeLatencyCycles +
			int64(float64(maxBytes)/cfg.ExchangeBytesPerCycle)
		if got := d.Stats().ExchangeCycles; got != want {
			t.Errorf("K=%d: ExchangeCycles = %d, want %d (no IPU-Link term)", k, got, want)
		}
	}
}

// TestCrossIPUAmortisedOverTiles pins that the IPU-Link term divides by
// the whole fabric's tile count: the same cross-chip byte volume gets
// cheaper per superstep as chips (and thus link ports) are added.
func TestCrossIPUAmortisedOverTiles(t *testing.T) {
	cost := func(k int) int64 {
		d, err := NewDevice(fabricConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		d.Superstep(0, Exchange{MaxPortBytes: 1, TotalBytes: 1, CrossBytes: 1 << 22}, 0)
		return d.Stats().ExchangeCycles
	}
	c1, c2, c4 := cost(1), cost(2), cost(4)
	if !(c1 > c2 && c2 > c4) {
		t.Fatalf("cross-IPU cost should shrink with fabric size: K=1:%d K=2:%d K=4:%d", c1, c2, c4)
	}
}

func TestValidateProblemFits(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 4
	// n=4096 over 4 shards → 1024 rows/shard → 1 row/tile on 1472
	// tiles → 4096·8 = 32 KiB per tile, well inside 624 KiB.
	if err := cfg.ValidateProblem(4096, 4); err != nil {
		t.Fatalf("ValidateProblem(4096, 4) = %v", err)
	}
	// n ≤ 0 is not a capacity question.
	if err := cfg.ValidateProblem(0, 4); err != nil {
		t.Fatalf("ValidateProblem(0, 4) = %v", err)
	}
}

func TestValidateProblemRejectsOversize(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 2
	cfg.TilesPerIPU = 4
	cfg.TileMemory = 4096
	// n=128 over 2 shards → 64 rows/shard → 16 rows/tile →
	// 16·128·8 = 16384 bytes > 4096 budget.
	err := cfg.ValidateProblem(128, 2)
	ce, ok := AsCapacity(err)
	if !ok {
		t.Fatalf("ValidateProblem = %v, want *CapacityError", err)
	}
	if ce.N != 128 || ce.Shards != 2 || ce.RowsPerTile != 16 ||
		ce.NeedBytes != 16384 || ce.TileMemory != 4096 {
		t.Fatalf("CapacityError fields = %+v", ce)
	}
	if ce.Constraint != "C2 tile memory" {
		t.Fatalf("Constraint = %q, want the C2 name", ce.Constraint)
	}
	// More shards spread the same rows thinner and fit again.
	cfg.IPUs = 8
	if err := cfg.ValidateProblem(128, 8); err != nil {
		t.Fatalf("ValidateProblem(128, 8) = %v", err)
	}
}

func TestValidateProblemDefaultsShardsToIPUs(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 2
	cfg.TilesPerIPU = 4
	cfg.TileMemory = 4096
	got := cfg.ValidateProblem(128, 0)
	want := cfg.ValidateProblem(128, 2)
	if (got == nil) != (want == nil) {
		t.Fatalf("shards=0 (%v) should behave like shards=IPUs (%v)", got, want)
	}
	ce, ok := AsCapacity(got)
	if !ok || ce.Shards != 2 {
		t.Fatalf("shards=0 error = %v, want Shards=2 in report", got)
	}
}

func TestValidateProblemChecksConfigFirst(t *testing.T) {
	cfg := MK2()
	cfg.TilesPerIPU = 0
	if err := cfg.ValidateProblem(16, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFabricIndexTargetsDeviceRules pins the multi-chip fault points: a
// device of three chips consults the injector once per chip in
// ascending order, so a device= rule fires on the chip it names and the
// FaultError carries that chip's fabric index.
func TestFabricIndexTargetsDeviceRules(t *testing.T) {
	sched, err := faultinject.ParseSchedule("deviceloss at=0 device=1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(fabricConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	d.SetInjector(sched)
	fe := d.CheckFault("s4_find", faultinject.KindSuperstep)
	if fe == nil || fe.Class != faultinject.DeviceLoss || fe.Point.Device != 1 {
		t.Fatalf("fault = %+v, want DeviceLoss on chip 1", fe)
	}
	var target *faultinject.FaultError
	if !errors.As(fe, &target) {
		t.Fatal("FaultError must stay errors.As-matchable")
	}

	var seen []int
	d.SetInjector(injectorFunc(func(p faultinject.Point) *faultinject.FaultError {
		seen = append(seen, p.Device)
		return nil
	}))
	d.CheckFault("s4_find", faultinject.KindSuperstep)
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("checked chips %v, want [0 1 2]", seen)
	}
}

// TestDefaultFabricIndexIsZero pins the single-chip contract: exactly
// one check per fault point, reported as device 0, so schedules that
// never mention device= keep matching.
func TestDefaultFabricIndexIsZero(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	d.SetInjector(injectorFunc(func(p faultinject.Point) *faultinject.FaultError {
		checks++
		if p.Device != 0 {
			t.Fatalf("single chip reported device %d", p.Device)
		}
		return &faultinject.FaultError{Class: faultinject.ExchangeCorruption, Point: p}
	}))
	if fe := d.CheckFault("phase", faultinject.KindSuperstep); fe == nil || fe.Point.Device != 0 {
		t.Fatalf("fault = %+v, want device-0 point", fe)
	}
	if checks != 1 {
		t.Fatalf("%d checks for one fault point, want 1", checks)
	}
}

// injectorFunc adapts a function to faultinject.Injector.
type injectorFunc func(faultinject.Point) *faultinject.FaultError

func (f injectorFunc) Check(p faultinject.Point) *faultinject.FaultError { return f(p) }
