package faultinject

import (
	"math/rand"
	"strings"
	"testing"
)

// TestDevicePredicate pins device= matching: a scoped rule fires only
// on points carrying the named device index, an unscoped rule fires on
// any device, and zero-valued struct-literal rules (Device == 0) keep
// their pre-fabric behaviour of matching only device 0.
func TestDevicePredicate(t *testing.T) {
	s := mustParse(t, "deviceloss at=3 device=2")
	for dev := 0; dev < 4; dev++ {
		fe := s.Check(Point{Superstep: 3, Kind: KindSuperstep, Device: dev})
		if (fe != nil) != (dev == 2) {
			t.Fatalf("device %d: fault = %v, want fire only on device 2", dev, fe)
		}
		if fe != nil && fe.Point.Device != 2 {
			t.Fatalf("fault point = %+v, want Device 2", fe.Point)
		}
		s.Reset()
	}

	any := mustParse(t, "linkloss at=3")
	for dev := 0; dev < 4; dev++ {
		if fe := any.Check(Point{Superstep: 3, Kind: KindSuperstep, Device: dev}); fe == nil {
			t.Fatalf("unscoped rule skipped device %d", dev)
		}
		any.Reset()
	}

	// A Rule built as a struct literal before Device existed has
	// Device == 0: it must keep matching exactly the points it used to
	// see — all of which report device 0.
	legacy := NewSchedule(1, Rule{Class: ExchangeCorruption, At: 5, Times: 1})
	if fe := legacy.Check(Point{Superstep: 5, Kind: KindSuperstep, Device: 1}); fe != nil {
		t.Fatalf("zero-valued Device matched device 1: %v", fe)
	}
	if fe := legacy.Check(Point{Superstep: 5, Kind: KindSuperstep}); fe == nil {
		t.Fatal("zero-valued Device no longer matches device 0")
	}
}

// TestShardClassSemantics pins the two fabric classes: losing a chip is
// fatal (the device never comes back), a flapped link is transient, and
// neither is silent — both surface typed errors at the point.
func TestShardClassSemantics(t *testing.T) {
	if DeviceLoss.Transient() {
		t.Error("DeviceLoss must be fatal: a lost device does not come back")
	}
	if !LinkLoss.Transient() {
		t.Error("LinkLoss must be transient: the devices on both ends survive")
	}
	if DeviceLoss.Silent() || LinkLoss.Silent() {
		t.Error("fabric classes are announced, not silent")
	}
	for _, c := range []Class{DeviceLoss, LinkLoss} {
		if c.appliesToKinds() != (kindSet{KindSuperstep: true}) {
			t.Errorf("%v should instrument supersteps only", c)
		}
	}
}

type kindSet [4]bool

func (c Class) appliesToKinds() kindSet {
	var ks kindSet
	r := Rule{Class: c}
	for k := KindSuperstep; k <= KindAlloc; k++ {
		ks[k] = r.appliesTo(k)
	}
	return ks
}

// TestDeviceClauseRoundTrip pins spec grammar round-trips for the new
// classes and the device= field, including the canonical String form.
func TestDeviceClauseRoundTrip(t *testing.T) {
	specs := []string{
		"seed=3; deviceloss at=40 device=2",
		"seed=3; linkloss every=64 p=0.5",
		"seed=9; deviceloss at=10 device=0; linkloss every=8 device=3 times=2",
		"seed=1; deviceloss every=16 phase=s4_* device=1 times=1",
	}
	for _, spec := range specs {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Fatalf("round trip of %q rendered %q", spec, got)
		}
	}
	for _, bad := range []string{
		"deviceloss device=-1",
		"linkloss device=x",
		"deviceloss device=1 device=2",
		"stall device=",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestDeviceCoinIndependence pins two properties of the probabilistic
// coin: device 0 hashes exactly as the pre-fabric coin did (so old
// replays are byte-identical), and distinct devices flip distinct coins
// (so a p= rule does not fault every shard of a superstep in lockstep).
func TestDeviceCoinIndependence(t *testing.T) {
	p := Point{Superstep: 12, Phase: "s6_update", Kind: KindSuperstep}
	base := coin(7, 0, p)
	p.Device = 0
	if coin(7, 0, p) != base {
		t.Fatal("device 0 changed the coin; pre-fabric replays would diverge")
	}
	distinct := map[float64]bool{base: true}
	for dev := 1; dev < 8; dev++ {
		p.Device = dev
		distinct[coin(7, 0, p)] = true
	}
	if len(distinct) < 8 {
		t.Fatalf("coins collide across devices: %d distinct of 8", len(distinct))
	}
}

// TestFaultErrorDeviceSuffix pins the error text: device 0 keeps the
// historical message, other devices append their index.
func TestFaultErrorDeviceSuffix(t *testing.T) {
	fe := &FaultError{Class: DeviceLoss, Point: Point{Superstep: 4, Phase: "s4_status", Kind: KindSuperstep}}
	if strings.Contains(fe.Error(), ", device") {
		t.Fatalf("device-0 message changed: %q", fe.Error())
	}
	fe.Point.Device = 3
	if !strings.Contains(fe.Error(), ", device 3") {
		t.Fatalf("fabric message misses device index: %q", fe.Error())
	}
}

// TestRandomShardScheduleAlwaysValid mirrors the RandomSchedule pin:
// every drawn shard schedule parses back from its canonical string,
// targets only devices inside the fabric, and keeps chip losses
// bounded.
func TestRandomShardScheduleAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const devices = 4
	sawDeviceScoped, sawLoss := false, false
	for i := 0; i < 500; i++ {
		s := RandomShardSchedule(rng, devices)
		if len(s.Rules) == 0 {
			t.Fatal("RandomShardSchedule produced no rules")
		}
		if _, err := ParseSchedule(s.String()); err != nil {
			t.Fatalf("unparseable spec %q: %v", s.String(), err)
		}
		for _, r := range s.Rules {
			if r.Device >= devices {
				t.Fatalf("rule targets device %d outside %d-chip fabric: %q", r.Device, devices, s.String())
			}
			if r.Device >= 0 {
				sawDeviceScoped = true
			}
			if r.Class == DeviceLoss {
				sawLoss = true
				if r.Times < 0 {
					t.Fatalf("unbounded device-loss storm: %q", s.String())
				}
			}
		}
	}
	if !sawDeviceScoped || !sawLoss {
		t.Fatalf("sweep lacks coverage: deviceScoped=%v loss=%v", sawDeviceScoped, sawLoss)
	}
}
