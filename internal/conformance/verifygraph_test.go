package conformance

import (
	"math/rand"
	"sort"
	"testing"

	"hunipu"
	"hunipu/internal/poplar"
)

// poplarBacked names the registry entries whose Solve path compiles a
// poplar graph; each must trigger at least one static verification.
var poplarBacked = map[string]bool{
	"HunIPU":            true,
	"HunIPU-nocompress": true,
	"HunIPU-2D":         true,
	"HunIPU-shard2":     true,
	"HunIPU-shard4":     true,
	"IPU-Auction":       true,
}

// TestCompiledGraphsPassStaticVerification drives every registered
// solver through a solve and requires that every poplar graph compiled
// along the way passed the ahead-of-run verifier with zero findings —
// the static counterpart to the dual-certificate oracle: the result is
// optimal AND the graph that produced it provably respects C1 and C2.
func TestCompiledGraphsPassStaticVerification(t *testing.T) {
	type seenReport struct {
		report *poplar.VerifyReport
	}
	var seen []seenReport
	poplar.SetVerifyObserver(func(r *poplar.VerifyReport) {
		seen = append(seen, seenReport{report: r})
	})
	defer poplar.SetVerifyObserver(nil)

	uniform := Families()[0]
	if uniform.Name != "uniform" {
		t.Fatalf("first generator family is %q, want uniform", uniform.Name)
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			n := 16
			if e.MaxN > 0 && n > e.MaxN {
				n = e.MaxN
			}
			m := uniform.Gen(rand.New(rand.NewSource(12345)), n)
			s, err := e.New()
			if err != nil {
				t.Fatal(err)
			}
			// A program cached by an earlier test would skip the compile
			// this test inspects.
			hunipu.ClearProgramCache()
			before := len(seen)
			if _, err := s.Solve(m.Clone()); err != nil {
				t.Fatalf("%s failed to solve: %v", e.Name, err)
			}
			reports := seen[before:]
			if poplarBacked[e.Name] && len(reports) == 0 {
				t.Fatalf("%s is poplar-backed but compiled no verified graph", e.Name)
			}
			for _, sr := range reports {
				if n := len(sr.report.Findings); n != 0 {
					var msgs []string
					for _, f := range sr.report.Findings {
						msgs = append(msgs, f.String())
					}
					sort.Strings(msgs)
					t.Fatalf("%s compiled a graph with %d verification findings:\n%v", e.Name, n, msgs)
				}
			}
		})
	}
}

// TestPoplarBackedSetMatchesRegistry keeps poplarBacked honest: every
// name in it must exist in the registry.
func TestPoplarBackedSetMatchesRegistry(t *testing.T) {
	for name := range poplarBacked {
		if _, err := Lookup(name); err != nil {
			t.Errorf("poplarBacked lists %q, which is not registered: %v", name, err)
		}
	}
}
