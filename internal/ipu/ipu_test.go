package ipu

import (
	"testing"
	"testing/quick"
)

func TestMK2Config(t *testing.T) {
	cfg := MK2()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Tiles() != 1472 {
		t.Fatalf("Tiles() = %d, want 1472", cfg.Tiles())
	}
	if cfg.ThreadsPerTile != 6 {
		t.Fatalf("ThreadsPerTile = %d, want 6", cfg.ThreadsPerTile)
	}
	if cfg.TileMemory != 624*1024 {
		t.Fatalf("TileMemory = %d, want 624 KiB", cfg.TileMemory)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.IPUs = 0 },
		func(c *Config) { c.TilesPerIPU = -1 },
		func(c *Config) { c.ThreadsPerTile = 0 },
		func(c *Config) { c.TileMemory = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.ExchangeBytesPerCycle = 0 },
		func(c *Config) { c.IPUs = 2; c.InterIPUBytesPerCycle = 0 },
		func(c *Config) { c.IPUs = 4; c.InterIPUBytesPerCycle = -0.5 },
		func(c *Config) { c.SyncCycles = -1 },
		func(c *Config) { c.ExchangeLatencyCycles = -1 },
		func(c *Config) { c.VertexOverheadCycles = -1 },
	}
	for i, mutate := range bad {
		cfg := MK2()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	// Single-chip configs never touch the IPU-Link, so a zero inter-IPU
	// bandwidth is fine there; zero fixed cycle costs are also legal.
	good := []func(*Config){
		func(c *Config) { c.IPUs = 1; c.InterIPUBytesPerCycle = 0 },
		func(c *Config) { c.SyncCycles = 0; c.ExchangeLatencyCycles = 0; c.VertexOverheadCycles = 0 },
	}
	for i, mutate := range good {
		cfg := MK2()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

func TestIPUOf(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 4
	if got := cfg.IPUOf(0); got != 0 {
		t.Fatalf("IPUOf(0) = %d", got)
	}
	if got := cfg.IPUOf(1471); got != 0 {
		t.Fatalf("IPUOf(1471) = %d", got)
	}
	if got := cfg.IPUOf(1472); got != 1 {
		t.Fatalf("IPUOf(1472) = %d", got)
	}
	if got := cfg.IPUOf(4*1472 - 1); got != 3 {
		t.Fatalf("IPUOf(last) = %d", got)
	}
}

func TestAllocAccounting(t *testing.T) {
	d, err := NewDevice(MK2())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(0, 600*1024); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(0, 100*1024); err == nil {
		t.Fatal("allocation past 624 KiB must fail (C2)")
	}
	if err := d.Alloc(1, 100*1024); err != nil {
		t.Fatalf("other tiles unaffected: %v", err)
	}
	if d.Allocated(0) != 600*1024 {
		t.Fatalf("Allocated(0) = %d", d.Allocated(0))
	}
	if d.MaxAllocated() != 600*1024 {
		t.Fatalf("MaxAllocated = %d", d.MaxAllocated())
	}
	if err := d.Alloc(-1, 1); err == nil {
		t.Fatal("negative tile accepted")
	}
	if err := d.Alloc(99999, 1); err == nil {
		t.Fatal("out-of-range tile accepted")
	}
	if err := d.Alloc(1, -5); err == nil {
		t.Fatal("negative size accepted")
	}
}

// TestSuperstepChargesSlowestTile: the caller passes the slowest tile's
// time (C3; see poplar's TestComputeSetChargesSlowestTile) and the
// compute phase costs exactly that, plus a fixed sync.
func TestSuperstepChargesSlowestTile(t *testing.T) {
	d, _ := NewDevice(MK2())
	d.Superstep(900, Exchange{}, 3)
	s := d.Stats()
	if s.ComputeCycles != 900 {
		t.Fatalf("ComputeCycles = %d, want 900 (max tile, C3)", s.ComputeCycles)
	}
	if s.SyncCycles != MK2().SyncCycles {
		t.Fatalf("SyncCycles = %d", s.SyncCycles)
	}
	if s.ExchangeCycles != 0 {
		t.Fatalf("ExchangeCycles = %d, want 0 with no traffic", s.ExchangeCycles)
	}
	if s.Supersteps != 1 || s.VerticesRun != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSuperstepExchangeCost(t *testing.T) {
	cfg := MK2()
	d, _ := NewDevice(cfg)
	// Tile 3 receives 4096 bytes that tiles 5 and 7 send (2048 each):
	// the phase is gated by the busiest port (tile 3's 4096 in), and
	// the traffic total counts each byte once (receiver side).
	d.Superstep(0, Exchange{MaxPortBytes: 4096, TotalBytes: 4096}, 0)
	s := d.Stats()
	want := cfg.ExchangeLatencyCycles + int64(4096/cfg.ExchangeBytesPerCycle)
	if s.ExchangeCycles != want {
		t.Fatalf("ExchangeCycles = %d, want %d", s.ExchangeCycles, want)
	}
	if s.BytesExchanged != 4096 {
		t.Fatalf("BytesExchanged = %d, want 4096", s.BytesExchanged)
	}
}

func TestSuperstepCrossIPUIsSlower(t *testing.T) {
	cfg := MK2()
	cfg.IPUs = 2
	dOn, _ := NewDevice(cfg)
	dOff, _ := NewDevice(cfg)
	traffic := Exchange{MaxPortBytes: 1 << 20, TotalBytes: 1 << 20}
	dOn.Superstep(0, traffic, 0)
	traffic.CrossBytes = 1 << 20
	dOff.Superstep(0, traffic, 0)
	if dOff.Stats().ExchangeCycles <= dOn.Stats().ExchangeCycles {
		t.Fatalf("cross-IPU exchange (%d) should cost more than on-chip (%d)",
			dOff.Stats().ExchangeCycles, dOn.Stats().ExchangeCycles)
	}
}

func TestTileTimeBarrelModel(t *testing.T) {
	cfg := MK2()
	// One vertex of w cycles occupies 6·(w+overhead) device cycles.
	w := int64(1000)
	one := cfg.TileTime([]int64{w})
	if one != 6*(w+cfg.VertexOverheadCycles) {
		t.Fatalf("TileTime(1 vertex) = %d", one)
	}
	// Six equal vertices on six threads take the same wall time as one:
	// this is the "six threads for free" property the paper exploits.
	six := cfg.TileTime([]int64{w, w, w, w, w, w})
	if six != one {
		t.Fatalf("TileTime(6 equal vertices) = %d, want %d", six, one)
	}
	// A seventh vertex wraps onto thread 0 and doubles its load.
	seven := cfg.TileTime([]int64{w, w, w, w, w, w, w})
	if seven != 2*one {
		t.Fatalf("TileTime(7 vertices) = %d, want %d", seven, 2*one)
	}
	if cfg.TileTime(nil) != 0 {
		t.Fatal("empty tile should cost 0")
	}
}

func TestModeledTimeAndReset(t *testing.T) {
	d, _ := NewDevice(MK2())
	d.Superstep(1_325_000_000, Exchange{}, 1) // ~1 s of compute
	ms := d.ModeledTime().Milliseconds()
	if ms < 999 || ms > 1010 {
		t.Fatalf("ModeledTime ≈ %dms, want ~1000ms", ms)
	}
	d.ResetClock()
	if d.Stats().TotalCycles() != 0 {
		t.Fatal("ResetClock did not zero stats")
	}
}

func TestChargeSync(t *testing.T) {
	d, _ := NewDevice(MK2())
	d.ChargeSync()
	d.ChargeSync()
	if got := d.Stats().SyncCycles; got != 2*MK2().SyncCycles {
		t.Fatalf("SyncCycles = %d", got)
	}
}

// TestResumeClock pins the clock hand-over a solve uses when it moves
// onto a new device after a chip loss: counters continue from the old
// device's, so fault-point supersteps stay monotone.
func TestResumeClock(t *testing.T) {
	d, _ := NewDevice(MK2())
	d.ResumeClock(Stats{Supersteps: 40, ComputeCycles: 7})
	d.Superstep(5, Exchange{}, 1)
	if s := d.Stats(); s.Supersteps != 41 || s.ComputeCycles != 12 {
		t.Fatalf("stats after resume = %+v, want 41 supersteps and 12 compute cycles", s)
	}
}

// Property: TileTime is monotone — adding a vertex never reduces the
// tile's compute time.
func TestTileTimeMonotoneProperty(t *testing.T) {
	cfg := MK2()
	f := func(work []uint16, extra uint16) bool {
		cycles := make([]int64, len(work))
		for i, w := range work {
			cycles[i] = int64(w)
		}
		before := cfg.TileTime(cycles)
		after := cfg.TileTime(append(cycles, int64(extra)))
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationConfigs(t *testing.T) {
	mk1 := MK1()
	if err := mk1.Validate(); err != nil {
		t.Fatal(err)
	}
	if mk1.Tiles() != 1216 || mk1.TileMemory != 256*1024 {
		t.Fatalf("Mk1 shape: %+v", mk1)
	}
	bow := BOW()
	if err := bow.Validate(); err != nil {
		t.Fatal(err)
	}
	if bow.Tiles() != 1472 || bow.ClockHz <= MK2().ClockHz {
		t.Fatalf("Bow shape: %+v", bow)
	}
}
