package conformance

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/datasets"
	"hunipu/internal/ipuauction"
	"hunipu/internal/poplar"
)

// TestReplayDigest pins what the repository replays, so a refactor that
// claims byte-identical replays is checked rather than trusted:
//
//   - the profile and Chrome trace of HunIPU at n=32 (Gaussian k=100,
//     seed 1: what `hunipu -n 32 -profile -trace` prints and writes);
//   - a warm-started IPU-auction solve: assignment, duals, cycles and
//     supersteps;
//   - one row of tallies per sweep, target and CI chaos seed 1–3, the
//     silent sweeps at each active guard.
//
// A change that moves a row on purpose re-pins it and lists old → new.
func TestReplayDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("replay digests run the full sweeps at three seeds")
	}
	t.Run("hunipu-n32", func(t *testing.T) {
		m, err := datasets.Gaussian(32, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		res, err := hunipu.Solve(rowsOf(m), hunipu.OnIPU(),
			hunipu.WithIPUOptions(core.Options{Profile: true, TraceWriter: &trace}))
		if err != nil {
			t.Fatal(err)
		}
		r := res.Report.Attempts[len(res.Report.Attempts)-1].IPUDetail
		h := sha256.New()
		fmt.Fprintf(h, "cost=%g modeled=%v stats=%+v asg=%v\n", res.Cost, res.Modeled, r.Stats, res.Assignment)
		for _, p := range r.Profile {
			fmt.Fprintf(h, "%+v\n", p)
		}
		h.Write(trace.Bytes())
		const want = "sha256:b4b2abbe7dc3a13781e8ec4f78c754a863c5c5f6ed0f287509f5fa83ebf24ab5"
		if got := fmt.Sprintf("sha256:%x", h.Sum(nil)); got != want {
			t.Errorf("HunIPU n=32 profile+trace digest %s, want %s", got, want)
		}
	})
	t.Run("ipu-auction-warm", func(t *testing.T) {
		prev := genUniform(rand.New(rand.NewSource(5)), 16)
		next := prev.Clone()
		rng := rand.New(rand.NewSource(6))
		for k := 0; k < 8; k++ {
			next.Data[rng.Intn(len(next.Data))] = float64(1 + rng.Intn(160))
		}
		o := ipuauction.Options{Config: smallIPU(), Epsilon: 0.05}
		s, err := ipuauction.New(o)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range sol.Potentials.V {
			o.WarmPrices = append(o.WarmPrices, -v)
		}
		if s, err = ipuauction.New(o); err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveDetailed(next)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("asg=%v u=%v v=%v cycles=%d supersteps=%d",
			r.Solution.Assignment, r.Solution.Potentials.U, r.Solution.Potentials.V,
			r.Stats.TotalCycles(), r.Stats.Supersteps)
		const want = "asg=[3 0 8 15 12 4 2 7 10 11 6 13 14 1 5 9] u=[272.0859375 238.396484375 233.017578125 241.70703125 274.19140625 263.0859375 284.8125 242.912109375 253.1171875 243.912109375 265.6015625 247.0859375 271.19140625 245.501953125 238.912109375 291.359375] v=[-229.70703125 -235.8125 -225.123046875 -271.0859375 -238.0859375 -234.912109375 -252.6015625 -234.912109375 -220.328125 -281.359375 -251.1171875 -224.912109375 -256.19140625 -230.396484375 -240.501953125 -229.017578125] cycles=32600 supersteps=66"
		if got != want {
			t.Errorf("warm IPU-auction solve\n got %s\nwant %s", got, want)
		}
	})
	t.Run("sweeps", func(t *testing.T) {
		var got []string
		for seed := int64(1); seed <= 3; seed++ {
			sweeps := []Sweep{AnnouncedSweep(), FabricLossSweep()}
			for _, g := range []poplar.GuardPolicy{poplar.GuardChecksums, poplar.GuardInvariants, poplar.GuardParanoid} {
				sweeps = append(sweeps, SilentSweep(g), FabricSilentSweep(g))
			}
			sweeps = append(sweeps, BoundedSweep(0), BoundedSweep(0.01), BoundedSweep(0.1))
			for _, sw := range sweeps {
				sw.Seed = seed
				got = append(got, targetRows(t, sw)...)
			}
		}
		want := strings.Split(strings.TrimSpace(wantSweepRows), "\n")
		if len(got) != len(want) {
			t.Errorf("%d rows, want %d", len(got), len(want))
		}
		for i, row := range got {
			if i >= len(want) || row != want[i] {
				t.Errorf("row %d changed:\n got %s", i, row)
			}
		}
		if t.Failed() {
			t.Logf("replayed rows:\n%s", strings.Join(got, "\n"))
		}
	})
}

// targetRows runs sw once per target, each alone in its group. A
// sweep draws its schedules per group whatever the group's targets, so
// every isolated run replays exactly the target's share of the sweep.
func targetRows(t *testing.T, sw Sweep) []string {
	t.Helper()
	var rows []string
	k := 0
	for g, group := range sw.Groups {
		for _, target := range group.Targets {
			iso := sw
			iso.Groups = append([]Group(nil), sw.Groups...)
			for i := range iso.Groups {
				iso.Groups[i].Targets = nil
			}
			iso.Groups[g].Targets = []Target{target}
			rep, err := iso.Run()
			if err != nil {
				t.Fatal(err)
			}
			s, err := target(nil, sw.Retries)
			if err != nil {
				t.Fatal(err)
			}
			row := fmt.Sprintf("%s seed=%d %s#%d: runs=%d clean=%d survived=%d typed=%d corruptions=%d detections=%d maxlat=%d rollbacks=%d lost=%d reshards=%d quarantined=%d wrong=%d untyped=%d",
				sw.Name, sw.Seed, s.Name(), k, rep.Runs, rep.Clean, rep.Survived, rep.TypedFaults,
				rep.Corruptions, rep.Detections, rep.MaxLatency, rep.Rollbacks,
				rep.ChipsLost, rep.Reshards, rep.Quarantined, len(rep.Wrong), len(rep.Untyped))
			if sw.Quality.IsBounded() {
				row += fmt.Sprintf(" gaprefusals=%d maxgap=%.6g maxtruegap=%.6g", rep.GapRefusals, rep.MaxGap, rep.MaxTrueGap)
			}
			rows = append(rows, row)
			k++
		}
	}
	return rows
}

// wantSweepRows are the pinned tallies, one line per row targetRows
// and the bounded sweeps print, in replay order.
const wantSweepRows = `
announced seed=1 HunIPU#0: runs=120 clean=35 survived=24 typed=61 corruptions=0 detections=0 maxlat=0 rollbacks=54 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-nocompress#1: runs=120 clean=43 survived=22 typed=55 corruptions=0 detections=0 maxlat=0 rollbacks=50 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-2D#2: runs=120 clean=35 survived=24 typed=61 corruptions=0 detections=0 maxlat=0 rollbacks=54 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-shard2#3: runs=120 clean=35 survived=42 typed=43 corruptions=0 detections=0 maxlat=0 rollbacks=56 lost=78 reshards=49 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-shard4#4: runs=120 clean=35 survived=64 typed=21 corruptions=0 detections=0 maxlat=0 rollbacks=61 lost=100 reshards=93 quarantined=0 wrong=0 untyped=0
announced seed=1 FastHA#5: runs=120 clean=30 survived=0 typed=90 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 IPU-Auction#6: runs=120 clean=28 survived=22 typed=70 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=1 HunIPU-shard2#0: runs=100 clean=14 survived=60 typed=26 corruptions=0 detections=0 maxlat=0 rollbacks=77 lost=76 reshards=58 quarantined=0 wrong=0 untyped=0
fabric-loss seed=1 HunIPU-shard4#1: runs=100 clean=15 survived=65 typed=20 corruptions=0 detections=0 maxlat=0 rollbacks=121 lost=61 reshards=61 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU#0: runs=50 clean=16 survived=31 typed=0 corruptions=3 detections=44 maxlat=20001 rollbacks=41 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU-nocompress#1: runs=50 clean=16 survived=31 typed=0 corruptions=3 detections=50 maxlat=20001 rollbacks=47 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU-2D#2: runs=50 clean=16 survived=31 typed=0 corruptions=3 detections=44 maxlat=20001 rollbacks=41 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=91 typed=0 corruptions=1 detections=89 maxlat=48 rollbacks=127 lost=35 reshards=35 quarantined=11 wrong=0 untyped=0
fabric-silent@checksums seed=1 HunIPU-shard4#1: runs=100 clean=12 survived=88 typed=0 corruptions=0 detections=99 maxlat=69 rollbacks=116 lost=47 reshards=47 quarantined=19 wrong=0 untyped=0
silent@invariants seed=1 HunIPU#0: runs=50 clean=16 survived=31 typed=0 corruptions=3 detections=44 maxlat=20001 rollbacks=41 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=1 HunIPU-nocompress#1: runs=50 clean=16 survived=30 typed=0 corruptions=4 detections=54 maxlat=20001 rollbacks=50 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=1 HunIPU-2D#2: runs=50 clean=16 survived=31 typed=0 corruptions=3 detections=44 maxlat=20001 rollbacks=41 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=91 typed=0 corruptions=1 detections=89 maxlat=48 rollbacks=127 lost=35 reshards=35 quarantined=11 wrong=0 untyped=0
fabric-silent@invariants seed=1 HunIPU-shard4#1: runs=100 clean=12 survived=88 typed=0 corruptions=0 detections=99 maxlat=69 rollbacks=116 lost=47 reshards=47 quarantined=19 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU#0: runs=50 clean=16 survived=29 typed=0 corruptions=5 detections=58 maxlat=20001 rollbacks=53 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU-nocompress#1: runs=50 clean=16 survived=28 typed=0 corruptions=6 detections=63 maxlat=20001 rollbacks=57 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU-2D#2: runs=50 clean=16 survived=29 typed=0 corruptions=5 detections=58 maxlat=20001 rollbacks=53 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=90 typed=0 corruptions=2 detections=117 maxlat=40 rollbacks=141 lost=48 reshards=48 quarantined=24 wrong=0 untyped=0
fabric-silent@paranoid seed=1 HunIPU-shard4#1: runs=100 clean=12 survived=88 typed=0 corruptions=0 detections=138 maxlat=100 rollbacks=134 lost=68 reshards=68 quarantined=40 wrong=0 untyped=0
bounded@0 seed=1 IPU@bounded(0)#0: runs=100 clean=31 survived=20 typed=49 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=1 IPU@bounded(0.01)#0: runs=100 clean=21 survived=27 typed=52 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.001587 maxtruegap=0
bounded@0.1 seed=1 IPU@bounded(0.1)#0: runs=100 clean=19 survived=26 typed=55 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0264472 maxtruegap=0
announced seed=2 HunIPU#0: runs=120 clean=26 survived=38 typed=56 corruptions=0 detections=0 maxlat=0 rollbacks=112 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-nocompress#1: runs=120 clean=30 survived=37 typed=53 corruptions=0 detections=0 maxlat=0 rollbacks=104 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-2D#2: runs=120 clean=26 survived=38 typed=56 corruptions=0 detections=0 maxlat=0 rollbacks=112 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-shard2#3: runs=120 clean=25 survived=51 typed=44 corruptions=0 detections=0 maxlat=0 rollbacks=120 lost=71 reshards=43 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-shard4#4: runs=120 clean=24 survived=67 typed=29 corruptions=0 detections=0 maxlat=0 rollbacks=123 lost=99 reshards=90 quarantined=0 wrong=0 untyped=0
announced seed=2 FastHA#5: runs=120 clean=32 survived=0 typed=88 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 IPU-Auction#6: runs=120 clean=29 survived=18 typed=73 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=2 HunIPU-shard2#0: runs=100 clean=15 survived=53 typed=32 corruptions=0 detections=0 maxlat=0 rollbacks=103 lost=68 reshards=52 quarantined=0 wrong=0 untyped=0
fabric-loss seed=2 HunIPU-shard4#1: runs=100 clean=12 survived=62 typed=26 corruptions=0 detections=0 maxlat=0 rollbacks=146 lost=62 reshards=60 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU#0: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=39 maxlat=19986 rollbacks=32 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU-nocompress#1: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=40 maxlat=19980 rollbacks=33 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU-2D#2: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=39 maxlat=19986 rollbacks=32 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=2 HunIPU-shard2#0: runs=100 clean=4 survived=96 typed=0 corruptions=0 detections=86 maxlat=32 rollbacks=110 lost=36 reshards=36 quarantined=10 wrong=0 untyped=0
fabric-silent@checksums seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=95 maxlat=52 rollbacks=123 lost=38 reshards=38 quarantined=10 wrong=0 untyped=0
silent@invariants seed=2 HunIPU#0: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=39 maxlat=19986 rollbacks=32 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=2 HunIPU-nocompress#1: runs=50 clean=12 survived=27 typed=0 corruptions=11 detections=54 maxlat=19980 rollbacks=43 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=2 HunIPU-2D#2: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=39 maxlat=19986 rollbacks=32 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=2 HunIPU-shard2#0: runs=100 clean=4 survived=96 typed=0 corruptions=0 detections=86 maxlat=32 rollbacks=110 lost=36 reshards=36 quarantined=10 wrong=0 untyped=0
fabric-silent@invariants seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=95 maxlat=52 rollbacks=123 lost=38 reshards=38 quarantined=10 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU#0: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=41 maxlat=19986 rollbacks=34 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU-nocompress#1: runs=50 clean=12 survived=27 typed=0 corruptions=11 detections=55 maxlat=19980 rollbacks=44 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU-2D#2: runs=50 clean=12 survived=31 typed=0 corruptions=7 detections=41 maxlat=19986 rollbacks=34 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=2 HunIPU-shard2#0: runs=100 clean=4 survived=92 typed=4 corruptions=0 detections=129 maxlat=16 rollbacks=128 lost=61 reshards=57 quarantined=35 wrong=0 untyped=0
fabric-silent@paranoid seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=127 maxlat=28 rollbacks=135 lost=57 reshards=57 quarantined=30 wrong=0 untyped=0
bounded@0 seed=2 IPU@bounded(0)#0: runs=100 clean=22 survived=33 typed=45 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=2 IPU@bounded(0.01)#0: runs=100 clean=20 survived=27 typed=53 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.00187473 maxtruegap=0
bounded@0.1 seed=2 IPU@bounded(0.1)#0: runs=100 clean=19 survived=28 typed=53 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0308636 maxtruegap=0
announced seed=3 HunIPU#0: runs=120 clean=25 survived=35 typed=60 corruptions=0 detections=0 maxlat=0 rollbacks=95 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-nocompress#1: runs=120 clean=26 survived=37 typed=57 corruptions=0 detections=0 maxlat=0 rollbacks=92 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-2D#2: runs=120 clean=25 survived=35 typed=60 corruptions=0 detections=0 maxlat=0 rollbacks=95 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-shard2#3: runs=120 clean=25 survived=53 typed=42 corruptions=0 detections=0 maxlat=0 rollbacks=102 lost=72 reshards=46 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-shard4#4: runs=120 clean=25 survived=70 typed=25 corruptions=0 detections=0 maxlat=0 rollbacks=101 lost=100 reshards=91 quarantined=0 wrong=0 untyped=0
announced seed=3 FastHA#5: runs=120 clean=36 survived=0 typed=84 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 IPU-Auction#6: runs=120 clean=34 survived=13 typed=73 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=3 HunIPU-shard2#0: runs=100 clean=18 survived=46 typed=36 corruptions=0 detections=0 maxlat=0 rollbacks=139 lost=58 reshards=42 quarantined=0 wrong=0 untyped=0
fabric-loss seed=3 HunIPU-shard4#1: runs=100 clean=16 survived=64 typed=20 corruptions=0 detections=0 maxlat=0 rollbacks=157 lost=55 reshards=55 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU#0: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=32 maxlat=20001 rollbacks=28 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU-nocompress#1: runs=50 clean=19 survived=25 typed=0 corruptions=6 detections=30 maxlat=20001 rollbacks=24 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU-2D#2: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=32 maxlat=20001 rollbacks=28 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=3 HunIPU-shard2#0: runs=100 clean=7 survived=93 typed=0 corruptions=0 detections=96 maxlat=96 rollbacks=110 lost=43 reshards=43 quarantined=12 wrong=0 untyped=0
fabric-silent@checksums seed=3 HunIPU-shard4#1: runs=100 clean=8 survived=92 typed=0 corruptions=0 detections=89 maxlat=116 rollbacks=129 lost=33 reshards=33 quarantined=16 wrong=0 untyped=0
silent@invariants seed=3 HunIPU#0: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=32 maxlat=20001 rollbacks=28 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=3 HunIPU-nocompress#1: runs=50 clean=19 survived=25 typed=0 corruptions=6 detections=30 maxlat=20001 rollbacks=24 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=3 HunIPU-2D#2: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=32 maxlat=20001 rollbacks=28 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=3 HunIPU-shard2#0: runs=100 clean=7 survived=93 typed=0 corruptions=0 detections=96 maxlat=96 rollbacks=110 lost=43 reshards=43 quarantined=12 wrong=0 untyped=0
fabric-silent@invariants seed=3 HunIPU-shard4#1: runs=100 clean=8 survived=92 typed=0 corruptions=0 detections=89 maxlat=116 rollbacks=129 lost=33 reshards=33 quarantined=16 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU#0: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=42 maxlat=20001 rollbacks=38 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU-nocompress#1: runs=50 clean=19 survived=25 typed=0 corruptions=6 detections=40 maxlat=20001 rollbacks=34 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU-2D#2: runs=50 clean=18 survived=28 typed=0 corruptions=4 detections=42 maxlat=20001 rollbacks=38 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=3 HunIPU-shard2#0: runs=100 clean=7 survived=85 typed=6 corruptions=2 detections=128 maxlat=96 rollbacks=120 lost=63 reshards=57 quarantined=32 wrong=0 untyped=0
fabric-silent@paranoid seed=3 HunIPU-shard4#1: runs=100 clean=8 survived=92 typed=0 corruptions=0 detections=113 maxlat=116 rollbacks=140 lost=46 reshards=46 quarantined=29 wrong=0 untyped=0
bounded@0 seed=3 IPU@bounded(0)#0: runs=100 clean=35 survived=28 typed=37 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=3 IPU@bounded(0.01)#0: runs=100 clean=29 survived=22 typed=49 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.00155435 maxtruegap=0
bounded@0.1 seed=3 IPU@bounded(0.1)#0: runs=100 clean=31 survived=22 typed=47 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0298339 maxtruegap=0
`
