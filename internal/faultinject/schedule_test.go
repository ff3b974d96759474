package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return s
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;", "seed=42", " ; seed=9 ; "} {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", spec, err)
		}
		if len(s.Rules) != 0 {
			t.Fatalf("ParseSchedule(%q): got %d rules, want 0", spec, len(s.Rules))
		}
		if s.Check(Point{Superstep: 0, Kind: KindSuperstep}) != nil {
			t.Fatalf("empty schedule %q injected a fault", spec)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus",
		"exchange at=x",
		"exchange at=-1",
		"exchange after=-2",
		"exchange every=0",
		"exchange times=0",
		"exchange times=-3",
		"exchange p=0",
		"exchange p=1.5",
		"exchange p=NaN",
		"exchange p=nope",
		"exchange phase=[",
		"exchange at=1 at=2",
		"exchange at",
		"exchange at=",
		"exchange frequency=2",
		"seed=1; seed=2",
		"seed=abc",
		"seed=1 extra",
	}
	for _, spec := range bad {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q): expected error, got nil", spec)
		}
	}
}

func TestParseTimesDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want int64
	}{
		{"exchange", 1},
		{"exchange at=5", 1},
		{"exchange every=3", -1},
		{"exchange every=3 p=0.5", -1},
		{"exchange p=0.5", -1},
		{"exchange p=1", 1},
		{"exchange every=3 times=2", 2},
		{"exchange times=-1", -1},
	}
	for _, c := range cases {
		s := mustParse(t, c.spec)
		if got := s.Rules[0].Times; got != c.want {
			t.Errorf("ParseSchedule(%q): Times = %d, want %d", c.spec, got, c.want)
		}
	}
}

// testPhases are phase globs of the shapes real programs declare.
var testPhases = []string{"", "s1_*", "compress", "copy:*", "host:*", "*"}

func TestStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := RandomSchedule(rng, testPhases)
		spec := s.String()
		s2, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("round-trip parse of %q: %v", spec, err)
		}
		if s2.Seed != s.Seed || len(s2.Rules) != len(s.Rules) {
			t.Fatalf("round trip of %q changed shape: %+v vs %+v", spec, s, s2)
		}
		for ri := range s.Rules {
			if s.Rules[ri] != s2.Rules[ri] {
				t.Fatalf("round trip of %q: rule %d %+v != %+v", spec, ri, s.Rules[ri], s2.Rules[ri])
			}
		}
		if spec2 := s2.String(); spec2 != spec {
			t.Fatalf("String not canonical: %q vs %q", spec, spec2)
		}
	}
}

func TestCheckAtFiresOnce(t *testing.T) {
	s := mustParse(t, "reset at=7")
	for step := int64(0); step < 20; step++ {
		fe := s.Check(Point{Superstep: step, Phase: "s1_row_min", Kind: KindSuperstep})
		if (fe != nil) != (step == 7) {
			t.Fatalf("step %d: fault = %v", step, fe)
		}
		if fe != nil {
			if fe.Class != DeviceReset || fe.Point.Superstep != 7 || fe.Rule != 0 {
				t.Fatalf("wrong fault: %+v", fe)
			}
			if fe.Transient() {
				t.Fatal("reset must be fatal")
			}
		}
	}
	// Replaying superstep 7 after the one-shot fired: no refire.
	if fe := s.Check(Point{Superstep: 7, Kind: KindSuperstep}); fe != nil {
		t.Fatalf("one-shot rule refired: %v", fe)
	}
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", s.Fired())
	}
}

func TestCheckEveryAfterTimes(t *testing.T) {
	s := mustParse(t, "exchange every=4 after=8 times=2")
	var fired []int64
	for step := int64(0); step < 40; step++ {
		if fe := s.Check(Point{Superstep: step, Kind: KindSuperstep}); fe != nil {
			fired = append(fired, step)
		}
	}
	want := []int64{8, 12}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestCheckPhaseGlob(t *testing.T) {
	s := mustParse(t, "exchange phase=s4_* times=-1")
	if fe := s.Check(Point{Superstep: 1, Phase: "s1_row_min", Kind: KindSuperstep}); fe != nil {
		t.Fatalf("glob matched wrong phase: %v", fe)
	}
	if fe := s.Check(Point{Superstep: 2, Phase: "s4_prime_scan", Kind: KindSuperstep}); fe == nil {
		t.Fatal("glob failed to match s4_prime_scan")
	}
}

func TestCheckKindApplicability(t *testing.T) {
	cases := []struct {
		class Class
		kinds map[Kind]bool
	}{
		{ExchangeCorruption, map[Kind]bool{KindSuperstep: true}},
		{DeviceReset, map[Kind]bool{KindSuperstep: true}},
		{TileMemoryPressure, map[Kind]bool{KindSuperstep: true, KindAlloc: true}},
		{HostTransferStall, map[Kind]bool{KindHostWrite: true, KindHostRead: true}},
	}
	allKinds := []Kind{KindSuperstep, KindHostWrite, KindHostRead, KindAlloc}
	for _, c := range cases {
		for _, k := range allKinds {
			s := NewSchedule(0, Rule{Class: c.class, At: -1, Times: -1})
			fe := s.Check(Point{Superstep: 3, Phase: "x", Kind: k})
			if (fe != nil) != c.kinds[k] {
				t.Errorf("%v at kind %v: fired=%v, want %v", c.class, k, fe != nil, c.kinds[k])
			}
		}
	}
}

func TestCheckProbDeterministic(t *testing.T) {
	run := func() []int64 {
		s := mustParse(t, "seed=99; exchange p=0.3")
		var fired []int64
		for step := int64(0); step < 200; step++ {
			if s.Check(Point{Superstep: step, Phase: "ph", Kind: KindSuperstep}) != nil {
				fired = append(fired, step)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times — gate looks broken", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("probabilistic schedule not deterministic: %v vs %v", a, b)
	}
	// A different seed should give a different firing pattern.
	s2 := mustParse(t, "seed=7; exchange p=0.3")
	var c []int64
	for step := int64(0); step < 200; step++ {
		if s2.Check(Point{Superstep: step, Phase: "ph", Kind: KindSuperstep}) != nil {
			c = append(c, step)
		}
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("seeds 99 and 7 produced identical firing patterns")
	}
}

func TestCloneResetsCounters(t *testing.T) {
	s := mustParse(t, "reset at=3")
	if s.Check(Point{Superstep: 3, Kind: KindSuperstep}) == nil {
		t.Fatal("rule did not fire")
	}
	c := s.Clone()
	if c.Fired() != 0 {
		t.Fatalf("clone Fired = %d, want 0", c.Fired())
	}
	if c.Check(Point{Superstep: 3, Kind: KindSuperstep}) == nil {
		t.Fatal("cloned rule did not fire fresh")
	}
	if s.Fired() != 1 {
		t.Fatalf("original Fired = %d after clone fired, want 1", s.Fired())
	}
	s.Reset()
	if s.Fired() != 0 || s.Check(Point{Superstep: 3, Kind: KindSuperstep}) == nil {
		t.Fatal("Reset did not restore the one-shot rule")
	}
}

func TestNilScheduleSafe(t *testing.T) {
	var s *Schedule
	if s.Check(Point{}) != nil || s.Fired() != 0 || s.Clone() != nil {
		t.Fatal("nil schedule must be inert")
	}
	s.Reset() // must not panic
}

func TestFaultErrorClassification(t *testing.T) {
	fe := &FaultError{Class: HostTransferStall, Point: Point{Superstep: 4, Phase: "host:write", Kind: KindHostWrite}}
	wrapped := fmt.Errorf("engine: %w", fe)
	got, ok := AsFault(wrapped)
	if !ok || got != fe {
		t.Fatal("AsFault failed to unwrap")
	}
	if !IsTransient(wrapped) {
		t.Fatal("stall must be transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
	if IsTransient(fmt.Errorf("w: %w", &FaultError{Class: DeviceReset})) {
		t.Fatal("reset classified transient")
	}
	for _, fe := range []*FaultError{
		{Class: ExchangeCorruption, Point: Point{Superstep: 1, Phase: "s1", Kind: KindSuperstep}},
		{Class: TileMemoryPressure, Point: Point{Kind: KindAlloc, Phase: "alloc"}},
	} {
		if !strings.Contains(fe.Error(), fe.Class.String()) {
			t.Errorf("Error() %q does not name class %v", fe.Error(), fe.Class)
		}
	}
}

func TestCheckConcurrentSafety(t *testing.T) {
	s := mustParse(t, "exchange every=1 times=500")
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for step := int64(0); step < 1000; step++ {
				if s.Check(Point{Superstep: step, Kind: KindSuperstep}) != nil {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if total != 500 || s.Fired() != 500 {
		t.Fatalf("times cap violated under concurrency: fired %d (counter %d), want 500", total, s.Fired())
	}
}

func TestRandomScheduleAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := RandomSchedule(rng, testPhases)
		if len(s.Rules) == 0 {
			t.Fatal("RandomSchedule produced no rules")
		}
		if _, err := ParseSchedule(s.String()); err != nil {
			t.Fatalf("RandomSchedule produced unparseable spec %q: %v", s.String(), err)
		}
	}
}
