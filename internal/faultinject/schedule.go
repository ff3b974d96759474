package faultinject

import (
	"fmt"
	"math/rand"
	"path"
	"strconv"
	"strings"
	"sync"
)

// Rule binds one fault class to the predicates selecting where it
// fires. All set predicates must hold for the rule to fire; an unset
// predicate matches everything. A rule only ever examines point kinds
// its class applies to (exchange/reset → supersteps, memory →
// supersteps and allocations, stall → host transfers).
type Rule struct {
	// Class is the fault to inject.
	Class Class
	// At fires only at this exact superstep count (-1 = unset).
	At int64
	// After fires only at superstep counts ≥ After (0 = unset).
	After int64
	// Every fires only at superstep counts divisible by Every (0 = unset).
	Every int64
	// Prob gates each otherwise-matching point by a deterministic coin
	// derived from (seed, rule, superstep, phase); 0 or 1 = always.
	Prob float64
	// Phase restricts firing to phases matching this path.Match glob
	// ("" = any phase).
	Phase string
	// Times caps the number of fires (-1 = unlimited). ParseSchedule
	// resolves an unset times field to 1 for one-shot rules (at=,
	// bare) and unlimited for recurring ones (every= or p= present).
	Times int64
	// Device restricts firing to one chip of a multi-device fabric
	// (-1 = any device; ParseSchedule's default when no device= field
	// is present). The zero value matches only device 0 — which is
	// every point outside a fabric, so rules built as struct literals
	// before sharding existed keep their old behaviour.
	Device int64
}

// appliesTo reports whether the rule's class instruments point kind k.
func (r Rule) appliesTo(k Kind) bool {
	switch r.Class {
	case ExchangeCorruption, DeviceReset, SilentTileBitflip, SilentExchangeBitflip, SilentStaleRead,
		DeviceLoss, LinkLoss, SilentLinkBitflip, SilentShardBitflip:
		return k == KindSuperstep
	case TileMemoryPressure:
		return k == KindSuperstep || k == KindAlloc
	case HostTransferStall:
		return k == KindHostWrite || k == KindHostRead
	default:
		return false
	}
}

// Schedule is a deterministic fault plan: a seed plus rules. It
// implements Injector and is safe for concurrent use. The zero value
// (or a nil *Schedule) injects nothing.
type Schedule struct {
	// Seed drives the probabilistic gates.
	Seed int64
	// Rules are consulted in order; the first match fires.
	Rules []Rule
	// Guard optionally names the guard policy a chaos harness should run
	// this schedule under ("off", "checksums", "invariants", "paranoid";
	// "" = unspecified). It does not affect injection — it rides along in
	// the spec so one string replays both the faults and the defense.
	Guard string

	mu    sync.Mutex
	fired []int64
	total int64
}

// GuardPolicyNames are the guard-policy tokens the spec grammar
// accepts in a guard= clause, in increasing strictness order.
var GuardPolicyNames = []string{"off", "checksums", "invariants", "paranoid"}

// ValidGuardPolicy reports whether name is a known guard-policy token.
func ValidGuardPolicy(name string) bool {
	for _, n := range GuardPolicyNames {
		if n == name {
			return true
		}
	}
	return false
}

// NewSchedule builds a schedule from explicit rules.
func NewSchedule(seed int64, rules ...Rule) *Schedule {
	return &Schedule{Seed: seed, Rules: rules}
}

// Clone returns a schedule with the same seed and rules but fresh fire
// counters — use one clone per device attempt so a rule consumed on
// the primary device still fires on a fallback.
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Schedule{Seed: s.Seed, Rules: append([]Rule(nil), s.Rules...), Guard: s.Guard}
}

// Fired returns how many faults the schedule has injected so far.
func (s *Schedule) Fired() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Reset zeroes all fire counters, making the schedule replayable.
func (s *Schedule) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fired = nil
	s.total = 0
}

// Check implements Injector.
func (s *Schedule) Check(p Point) *FaultError {
	if s == nil || len(s.Rules) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired == nil {
		s.fired = make([]int64, len(s.Rules))
	}
	for ri := range s.Rules {
		r := &s.Rules[ri]
		if !r.appliesTo(p.Kind) {
			continue
		}
		if r.Times >= 0 && s.fired[ri] >= r.Times {
			continue
		}
		if r.At >= 0 && p.Superstep != r.At {
			continue
		}
		if p.Superstep < r.After {
			continue
		}
		if r.Every > 0 && p.Superstep%r.Every != 0 {
			continue
		}
		if r.Device >= 0 && int64(p.Device) != r.Device {
			continue
		}
		if r.Phase != "" {
			if ok, err := path.Match(r.Phase, p.Phase); err != nil || !ok {
				continue
			}
		}
		if r.Prob > 0 && r.Prob < 1 && coin(s.Seed, int64(ri), p) >= r.Prob {
			continue
		}
		s.fired[ri]++
		s.total++
		return &FaultError{Class: r.Class, Point: p, Rule: ri}
	}
	return nil
}

// coin derives a deterministic uniform value in [0, 1) from the
// schedule seed, the rule index, and the execution point.
func coin(seed, rule int64, p Point) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(rule)<<32 ^ uint64(p.Superstep)
	for i := 0; i < len(p.Phase); i++ {
		h = (h ^ uint64(p.Phase[i])) * 0x100000001b3
	}
	h ^= uint64(p.Kind) << 17
	// Device 0 (every point outside a fabric) contributes nothing, so
	// pre-fabric probabilistic replays stay byte-identical.
	h ^= uint64(p.Device) << 41
	// splitmix64 finaliser.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// String renders the schedule in the canonical spec grammar accepted
// by ParseSchedule. ParseSchedule(s.String()) reproduces the schedule
// exactly, so specs are a faithful wire/replay format.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	if s.Guard != "" {
		fmt.Fprintf(&b, "; guard=%s", s.Guard)
	}
	for _, r := range s.Rules {
		b.WriteString("; ")
		b.WriteString(r.Class.String())
		if r.At >= 0 {
			fmt.Fprintf(&b, " at=%d", r.At)
		}
		if r.After > 0 {
			fmt.Fprintf(&b, " after=%d", r.After)
		}
		if r.Every > 0 {
			fmt.Fprintf(&b, " every=%d", r.Every)
		}
		if r.Prob > 0 && r.Prob < 1 {
			fmt.Fprintf(&b, " p=%g", r.Prob)
		}
		if r.Phase != "" {
			fmt.Fprintf(&b, " phase=%s", r.Phase)
		}
		if r.Device >= 0 {
			fmt.Fprintf(&b, " device=%d", r.Device)
		}
		// Times prints only when it differs from the value ParseSchedule
		// would infer for this rule shape, so the spec stays canonical:
		// ParseSchedule(s.String()).String() == s.String().
		defTimes := int64(1)
		if r.Every > 0 || (r.Prob > 0 && r.Prob < 1) {
			defTimes = -1
		}
		if r.Times != defTimes {
			fmt.Fprintf(&b, " times=%d", r.Times)
		}
	}
	return b.String()
}

// ParseSchedule parses the fault-schedule spec grammar:
//
//	spec   := clause (';' clause)*
//	clause := "seed=" int | "guard=" policy | rule
//	rule   := class field*
//	class  := "exchange" | "memory" | "reset" | "stall" |
//	          "bitflip" | "exbitflip" | "stale" |
//	          "deviceloss" | "linkloss" |
//	          "linkflip" | "shardflip"
//	policy := "off" | "checksums" | "invariants" | "paranoid"
//	field  := "at=" int | "after=" int | "every=" int |
//	          "p=" float | "phase=" glob | "times=" int |
//	          "device=" int
//
// Fields within a rule are whitespace-separated and may appear at most
// once. Example:
//
//	"seed=7; guard=invariants; bitflip every=40 p=0.5; reset at=900 phase=s6_*"
//	"seed=3; deviceloss at=40 device=2; linkloss every=64 p=0.5"
//	"seed=9; guard=checksums; linkflip every=16 p=0.5 device=1; shardflip at=30 device=3"
//
// An empty spec (or one containing only a seed) is valid and injects
// nothing. Unset times resolves to 1 for one-shot rules and unlimited
// for recurring (every= or p=) ones; unset device matches every chip
// of a fabric (and plain single-device execution, which is device 0).
func ParseSchedule(spec string) (*Schedule, error) {
	s := &Schedule{}
	seenSeed := false
	for ci, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		fields := strings.Fields(clause)
		if v, ok := strings.CutPrefix(fields[0], "seed="); ok {
			if len(fields) != 1 {
				return nil, fmt.Errorf("faultinject: clause %d: seed takes no extra fields", ci)
			}
			if seenSeed {
				return nil, fmt.Errorf("faultinject: clause %d: duplicate seed", ci)
			}
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %d: bad seed %q", ci, v)
			}
			s.Seed = seed
			seenSeed = true
			continue
		}
		if v, ok := strings.CutPrefix(fields[0], "guard="); ok {
			if len(fields) != 1 {
				return nil, fmt.Errorf("faultinject: clause %d: guard takes no extra fields", ci)
			}
			if s.Guard != "" {
				return nil, fmt.Errorf("faultinject: clause %d: duplicate guard", ci)
			}
			if !ValidGuardPolicy(v) {
				return nil, fmt.Errorf("faultinject: clause %d: unknown guard policy %q (want %s)",
					ci, v, strings.Join(GuardPolicyNames, "|"))
			}
			s.Guard = v
			continue
		}
		r, err := parseRule(fields)
		if err != nil {
			return nil, fmt.Errorf("faultinject: clause %d: %w", ci, err)
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

// parseClass maps a spec keyword to its Class.
func parseClass(word string) (Class, error) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == word {
			return c, nil
		}
	}
	names := make([]string, numClasses)
	for c := Class(0); c < numClasses; c++ {
		names[c] = c.String()
	}
	return 0, fmt.Errorf("unknown fault class %q (want %s)", word, strings.Join(names, "|"))
}

// parseRule parses one whitespace-split rule clause.
func parseRule(fields []string) (Rule, error) {
	r := Rule{At: -1, Times: -2, Device: -1} // -2: times unset, resolved below
	class, err := parseClass(fields[0])
	if err != nil {
		return r, err
	}
	r.Class = class
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || val == "" {
			return r, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		if seen[key] {
			return r, fmt.Errorf("duplicate field %q", key)
		}
		seen[key] = true
		switch key {
		case "at", "after", "every", "times", "device":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return r, fmt.Errorf("field %s=%q: not an integer", key, val)
			}
			switch key {
			case "at":
				if n < 0 {
					return r, fmt.Errorf("at=%d, want ≥ 0", n)
				}
				r.At = n
			case "after":
				if n < 0 {
					return r, fmt.Errorf("after=%d, want ≥ 0", n)
				}
				r.After = n
			case "every":
				if n < 1 {
					return r, fmt.Errorf("every=%d, want ≥ 1", n)
				}
				r.Every = n
			case "times":
				if n < -1 || n == 0 {
					return r, fmt.Errorf("times=%d, want ≥ 1 or -1 for unlimited", n)
				}
				r.Times = n
			case "device":
				if n < 0 {
					return r, fmt.Errorf("device=%d, want ≥ 0", n)
				}
				r.Device = n
			}
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p != p {
				return r, fmt.Errorf("field p=%q: not a number", val)
			}
			if p <= 0 || p > 1 {
				return r, fmt.Errorf("p=%g, want in (0, 1]", p)
			}
			if p < 1 { // p=1 means "always": same as no gate, normalised away
				r.Prob = p
			}
		case "phase":
			if _, err := path.Match(val, "probe"); err != nil {
				return r, fmt.Errorf("field phase=%q: bad glob", val)
			}
			r.Phase = val
		default:
			return r, fmt.Errorf("unknown field %q", key)
		}
	}
	if r.Times == -2 {
		if r.Every > 0 || (r.Prob > 0 && r.Prob < 1) {
			r.Times = -1
		} else {
			r.Times = 1
		}
	}
	return r, nil
}

// RandomSchedule draws a schedule for chaos sweeps: 1–3 rules mixing
// classes, one-shot and recurring triggers, phase filters and
// probability gates. Each rule's phase filter is drawn uniformly from
// phases, the globs of the program the schedule is meant for ("" is no
// filter), so a rule can reach the compute sets it names. The result
// is deterministic in rng's state and phases, and biases toward
// schedules that actually fire at small solve sizes.
func RandomSchedule(rng *rand.Rand, phases []string) *Schedule {
	s := &Schedule{Seed: rng.Int63n(1 << 20)}
	// Announced classes only: silent classes raise no error, so an
	// unbounded silent storm would wedge a guard-less solver forever
	// (use RandomSilentSchedule + a guard for those). The explicit list
	// also keeps pre-existing replays byte-identical as classes grow.
	classes := []Class{ExchangeCorruption, TileMemoryPressure, DeviceReset, HostTransferStall}
	nRules := 1 + rng.Intn(3)
	for i := 0; i < nRules; i++ {
		r := Rule{Class: classes[rng.Intn(len(classes))], At: -1, Times: 1, Device: -1}
		switch rng.Intn(3) {
		case 0:
			r.At = int64(rng.Intn(60))
		case 1:
			r.Every = int64(1 + rng.Intn(8))
			r.Times = int64(1 + rng.Intn(3))
		default:
			r.Every = int64(1 + rng.Intn(4))
			r.Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				r.Times = int64(1 + rng.Intn(3))
			} else {
				r.Times = -1
			}
		}
		if r.Class.Transient() && r.Times < 0 && rng.Intn(2) == 0 {
			// Keep some transient storms bounded so recovery can win.
			r.Times = int64(1 + rng.Intn(2))
		}
		r.Phase = phases[rng.Intn(len(phases))]
		s.Rules = append(s.Rules, r)
	}
	return s
}

// RandomShardSchedule draws a schedule for multi-device chaos sweeps
// over a fabric of the given device count: device-scoped chip losses
// (deviceloss), link flaps (linkloss), and the pre-existing announced
// classes, mixed with device= predicates so faults land on specific
// chips. Kept separate from RandomSchedule so single-device chaos
// replays stay byte-identical. Device losses are always bounded (a
// fabric only has so many chips to lose); link storms may be unlimited
// — the rollback retry budget is what bounds those runs.
func RandomShardSchedule(rng *rand.Rand, devices int) *Schedule {
	if devices < 1 {
		devices = 1
	}
	s := &Schedule{Seed: rng.Int63n(1 << 20)}
	classes := []Class{DeviceLoss, DeviceLoss, LinkLoss, LinkLoss, ExchangeCorruption, HostTransferStall, DeviceReset}
	phases := []string{"", "", "s4_*", "s6_*", "s1_*", "s*", "*"}
	nRules := 1 + rng.Intn(3)
	for i := 0; i < nRules; i++ {
		r := Rule{Class: classes[rng.Intn(len(classes))], At: -1, Times: 1, Device: -1}
		switch rng.Intn(3) {
		case 0:
			r.At = int64(rng.Intn(80))
		case 1:
			r.Every = int64(1 + rng.Intn(12))
			r.Times = int64(1 + rng.Intn(3))
		default:
			r.Every = int64(1 + rng.Intn(6))
			r.Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			if r.Class.Transient() && rng.Intn(2) == 0 {
				r.Times = -1
			} else {
				r.Times = int64(1 + rng.Intn(3))
			}
		}
		// Half the rules target a specific chip; the rest hit whichever
		// chip reaches the matching point first.
		if rng.Intn(2) == 0 {
			r.Device = int64(rng.Intn(devices))
		}
		r.Phase = phases[rng.Intn(len(phases))]
		s.Rules = append(s.Rules, r)
	}
	return s
}

// RandomSilentSchedule draws a schedule of silent fault classes only
// (bitflip, exbitflip, stale) for SDC chaos sweeps. Kept separate from
// RandomSchedule so existing chaos replays stay byte-identical. Fires
// are bounded (no unlimited storms): the interesting question for
// silent faults is detection, not survival of an endless barrage.
//
// An optional fabric size extends the sweep across K shards: with
// devices[0] > 1 the draw adds the fabric-native silent classes
// (linkflip upsets of data crossing to a chip, shardflip upsets of a
// chip's tile memory) and device= predicates so corruption lands on
// specific chips — plus, half the time, one
// bounded loud loss rule (deviceloss or linkloss), so sharded silent
// sweeps mix loss and corruption the way real fabrics fail. Calling
// it without a fabric size draws exactly the pre-fabric schedule, so
// single-device silent replays stay byte-identical.
func RandomSilentSchedule(rng *rand.Rand, devices ...int) *Schedule {
	k := 1
	if len(devices) > 0 && devices[0] > 1 {
		k = devices[0]
	}
	if k == 1 {
		s := &Schedule{Seed: rng.Int63n(1 << 20)}
		classes := []Class{SilentTileBitflip, SilentExchangeBitflip, SilentStaleRead}
		phases := []string{"", "", "s1_*", "s4_*", "s6_*", "compress", "copy:*", "*"}
		nRules := 1 + rng.Intn(2)
		for i := 0; i < nRules; i++ {
			r := Rule{Class: classes[rng.Intn(len(classes))], At: -1, Times: 1, Device: -1}
			switch rng.Intn(3) {
			case 0:
				r.At = int64(rng.Intn(60))
			case 1:
				r.Every = int64(1 + rng.Intn(8))
				r.Times = int64(1 + rng.Intn(3))
			default:
				r.Every = int64(1 + rng.Intn(4))
				r.Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
				r.Times = int64(1 + rng.Intn(3))
			}
			r.Phase = phases[rng.Intn(len(phases))]
			s.Rules = append(s.Rules, r)
		}
		return s
	}
	s := &Schedule{Seed: rng.Int63n(1 << 20)}
	classes := []Class{
		SilentLinkBitflip, SilentLinkBitflip,
		SilentShardBitflip, SilentShardBitflip,
		SilentTileBitflip, SilentExchangeBitflip,
	}
	phases := []string{"", "", "s4_*", "s6_*", "s1_*", "s*", "*"}
	nRules := 1 + rng.Intn(2)
	for i := 0; i < nRules; i++ {
		r := Rule{Class: classes[rng.Intn(len(classes))], At: -1, Times: 1, Device: -1}
		switch rng.Intn(3) {
		case 0:
			r.At = int64(rng.Intn(60))
		case 1:
			r.Every = int64(1 + rng.Intn(8))
			r.Times = int64(1 + rng.Intn(3))
		default:
			r.Every = int64(1 + rng.Intn(4))
			r.Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			r.Times = int64(1 + rng.Intn(3))
		}
		// Half the rules target a specific chip so every chip of the
		// fabric sees corruption across a sweep; the rest hit whichever
		// chip reaches the matching point first.
		if rng.Intn(2) == 0 {
			r.Device = int64(rng.Intn(k))
		}
		r.Phase = phases[rng.Intn(len(phases))]
		s.Rules = append(s.Rules, r)
	}
	// Mixed loss + corruption: half the schedules also lose a chip or
	// flap a link, bounded, so the loss and quarantine paths run while
	// silent corruption is in flight.
	if rng.Intn(2) == 0 {
		r := Rule{Class: DeviceLoss, At: int64(rng.Intn(80)), Times: 1, Device: int64(rng.Intn(k))}
		if rng.Intn(2) == 0 {
			r.Class = LinkLoss
			r.At = -1
			r.Every = int64(1 + rng.Intn(12))
			r.Times = int64(1 + rng.Intn(2))
		}
		s.Rules = append(s.Rules, r)
	}
	return s
}
