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
		const want = "sha256:c662683c11c1b0bf6fcae267702487554c0c9684f01a0f83703734a7dbfbd650"
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
announced seed=1 HunIPU#0: runs=120 clean=34 survived=22 typed=64 corruptions=0 detections=0 maxlat=0 rollbacks=54 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-nocompress#1: runs=120 clean=40 survived=20 typed=60 corruptions=0 detections=0 maxlat=0 rollbacks=51 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-2D#2: runs=120 clean=34 survived=22 typed=64 corruptions=0 detections=0 maxlat=0 rollbacks=54 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-shard2#3: runs=120 clean=34 survived=40 typed=46 corruptions=0 detections=0 maxlat=0 rollbacks=55 lost=82 reshards=50 quarantined=0 wrong=0 untyped=0
announced seed=1 HunIPU-shard4#4: runs=120 clean=34 survived=65 typed=21 corruptions=0 detections=0 maxlat=0 rollbacks=62 lost=104 reshards=97 quarantined=0 wrong=0 untyped=0
announced seed=1 FastHA#5: runs=120 clean=30 survived=0 typed=90 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=1 IPU-Auction#6: runs=120 clean=28 survived=22 typed=70 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=1 HunIPU-shard2#0: runs=100 clean=18 survived=54 typed=28 corruptions=0 detections=0 maxlat=0 rollbacks=79 lost=76 reshards=58 quarantined=0 wrong=0 untyped=0
fabric-loss seed=1 HunIPU-shard4#1: runs=100 clean=13 survived=68 typed=19 corruptions=0 detections=0 maxlat=0 rollbacks=122 lost=64 reshards=64 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU#0: runs=50 clean=15 survived=32 typed=0 corruptions=3 detections=48 maxlat=20001 rollbacks=45 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU-nocompress#1: runs=50 clean=15 survived=34 typed=0 corruptions=1 detections=47 maxlat=20001 rollbacks=46 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=1 HunIPU-2D#2: runs=50 clean=15 survived=32 typed=0 corruptions=3 detections=48 maxlat=20001 rollbacks=45 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=90 typed=0 corruptions=2 detections=88 maxlat=56 rollbacks=126 lost=34 reshards=34 quarantined=10 wrong=0 untyped=0
fabric-silent@checksums seed=1 HunIPU-shard4#1: runs=100 clean=11 survived=89 typed=0 corruptions=0 detections=101 maxlat=69 rollbacks=115 lost=50 reshards=50 quarantined=22 wrong=0 untyped=0
silent@invariants seed=1 HunIPU#0: runs=50 clean=15 survived=32 typed=0 corruptions=3 detections=48 maxlat=20001 rollbacks=45 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=1 HunIPU-nocompress#1: runs=50 clean=15 survived=33 typed=0 corruptions=2 detections=51 maxlat=20001 rollbacks=49 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=1 HunIPU-2D#2: runs=50 clean=15 survived=32 typed=0 corruptions=3 detections=48 maxlat=20001 rollbacks=45 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=90 typed=0 corruptions=2 detections=88 maxlat=56 rollbacks=126 lost=34 reshards=34 quarantined=10 wrong=0 untyped=0
fabric-silent@invariants seed=1 HunIPU-shard4#1: runs=100 clean=11 survived=89 typed=0 corruptions=0 detections=101 maxlat=69 rollbacks=115 lost=50 reshards=50 quarantined=22 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU#0: runs=50 clean=15 survived=30 typed=0 corruptions=5 detections=61 maxlat=20001 rollbacks=56 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU-nocompress#1: runs=50 clean=15 survived=29 typed=0 corruptions=6 detections=64 maxlat=20001 rollbacks=58 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=1 HunIPU-2D#2: runs=50 clean=15 survived=30 typed=0 corruptions=5 detections=61 maxlat=20001 rollbacks=56 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=1 HunIPU-shard2#0: runs=100 clean=8 survived=90 typed=0 corruptions=2 detections=118 maxlat=48 rollbacks=143 lost=47 reshards=47 quarantined=23 wrong=0 untyped=0
fabric-silent@paranoid seed=1 HunIPU-shard4#1: runs=100 clean=11 survived=89 typed=0 corruptions=0 detections=144 maxlat=108 rollbacks=135 lost=73 reshards=73 quarantined=45 wrong=0 untyped=0
bounded@0 seed=1 IPU@bounded(0)#0: runs=100 clean=32 survived=19 typed=49 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=1 IPU@bounded(0.01)#0: runs=100 clean=21 survived=27 typed=52 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.001587 maxtruegap=0
bounded@0.1 seed=1 IPU@bounded(0.1)#0: runs=100 clean=19 survived=26 typed=55 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0264472 maxtruegap=0
announced seed=2 HunIPU#0: runs=120 clean=28 survived=38 typed=54 corruptions=0 detections=0 maxlat=0 rollbacks=112 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-nocompress#1: runs=120 clean=29 survived=36 typed=55 corruptions=0 detections=0 maxlat=0 rollbacks=104 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-2D#2: runs=120 clean=28 survived=38 typed=54 corruptions=0 detections=0 maxlat=0 rollbacks=112 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-shard2#3: runs=120 clean=27 survived=49 typed=44 corruptions=0 detections=0 maxlat=0 rollbacks=120 lost=69 reshards=41 quarantined=0 wrong=0 untyped=0
announced seed=2 HunIPU-shard4#4: runs=120 clean=26 survived=64 typed=30 corruptions=0 detections=0 maxlat=0 rollbacks=123 lost=97 reshards=87 quarantined=0 wrong=0 untyped=0
announced seed=2 FastHA#5: runs=120 clean=32 survived=0 typed=88 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=2 IPU-Auction#6: runs=120 clean=29 survived=18 typed=73 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=2 HunIPU-shard2#0: runs=100 clean=10 survived=55 typed=35 corruptions=0 detections=0 maxlat=0 rollbacks=113 lost=75 reshards=56 quarantined=0 wrong=0 untyped=0
fabric-loss seed=2 HunIPU-shard4#1: runs=100 clean=5 survived=66 typed=29 corruptions=0 detections=0 maxlat=0 rollbacks=158 lost=71 reshards=69 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU#0: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=42 maxlat=19986 rollbacks=33 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU-nocompress#1: runs=50 clean=11 survived=32 typed=0 corruptions=7 detections=42 maxlat=19980 rollbacks=35 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=2 HunIPU-2D#2: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=42 maxlat=19986 rollbacks=33 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=2 HunIPU-shard2#0: runs=100 clean=5 survived=95 typed=0 corruptions=0 detections=91 maxlat=42 rollbacks=114 lost=37 reshards=37 quarantined=11 wrong=0 untyped=0
fabric-silent@checksums seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=98 maxlat=52 rollbacks=125 lost=39 reshards=39 quarantined=11 wrong=0 untyped=0
silent@invariants seed=2 HunIPU#0: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=42 maxlat=19986 rollbacks=33 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=2 HunIPU-nocompress#1: runs=50 clean=11 survived=28 typed=0 corruptions=11 detections=55 maxlat=19980 rollbacks=44 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=2 HunIPU-2D#2: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=42 maxlat=19986 rollbacks=33 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=2 HunIPU-shard2#0: runs=100 clean=5 survived=95 typed=0 corruptions=0 detections=91 maxlat=42 rollbacks=114 lost=37 reshards=37 quarantined=11 wrong=0 untyped=0
fabric-silent@invariants seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=98 maxlat=52 rollbacks=125 lost=39 reshards=39 quarantined=11 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU#0: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=45 maxlat=19986 rollbacks=36 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU-nocompress#1: runs=50 clean=11 survived=28 typed=0 corruptions=11 detections=55 maxlat=19980 rollbacks=44 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=2 HunIPU-2D#2: runs=50 clean=12 survived=29 typed=0 corruptions=9 detections=45 maxlat=19986 rollbacks=36 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=2 HunIPU-shard2#0: runs=100 clean=5 survived=91 typed=4 corruptions=0 detections=134 maxlat=16 rollbacks=133 lost=61 reshards=57 quarantined=35 wrong=0 untyped=0
fabric-silent@paranoid seed=2 HunIPU-shard4#1: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=130 maxlat=28 rollbacks=136 lost=59 reshards=59 quarantined=32 wrong=0 untyped=0
bounded@0 seed=2 IPU@bounded(0)#0: runs=100 clean=24 survived=33 typed=43 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=2 IPU@bounded(0.01)#0: runs=100 clean=20 survived=27 typed=53 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.00187473 maxtruegap=0
bounded@0.1 seed=2 IPU@bounded(0.1)#0: runs=100 clean=19 survived=28 typed=53 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0308636 maxtruegap=0
announced seed=3 HunIPU#0: runs=120 clean=25 survived=37 typed=58 corruptions=0 detections=0 maxlat=0 rollbacks=96 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-nocompress#1: runs=120 clean=28 survived=37 typed=55 corruptions=0 detections=0 maxlat=0 rollbacks=92 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-2D#2: runs=120 clean=25 survived=37 typed=58 corruptions=0 detections=0 maxlat=0 rollbacks=96 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-shard2#3: runs=120 clean=23 survived=53 typed=44 corruptions=0 detections=0 maxlat=0 rollbacks=102 lost=74 reshards=46 quarantined=0 wrong=0 untyped=0
announced seed=3 HunIPU-shard4#4: runs=120 clean=23 survived=68 typed=29 corruptions=0 detections=0 maxlat=0 rollbacks=102 lost=109 reshards=96 quarantined=0 wrong=0 untyped=0
announced seed=3 FastHA#5: runs=120 clean=36 survived=0 typed=84 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
announced seed=3 IPU-Auction#6: runs=120 clean=34 survived=13 typed=73 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-loss seed=3 HunIPU-shard2#0: runs=100 clean=15 survived=47 typed=38 corruptions=0 detections=0 maxlat=0 rollbacks=147 lost=59 reshards=41 quarantined=0 wrong=0 untyped=0
fabric-loss seed=3 HunIPU-shard4#1: runs=100 clean=11 survived=70 typed=19 corruptions=0 detections=0 maxlat=0 rollbacks=160 lost=62 reshards=62 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU#0: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=32 maxlat=20001 rollbacks=27 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU-nocompress#1: runs=50 clean=18 survived=26 typed=0 corruptions=6 detections=31 maxlat=20001 rollbacks=25 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@checksums seed=3 HunIPU-2D#2: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=32 maxlat=20001 rollbacks=27 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@checksums seed=3 HunIPU-shard2#0: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=104 maxlat=32 rollbacks=118 lost=43 reshards=43 quarantined=12 wrong=0 untyped=0
fabric-silent@checksums seed=3 HunIPU-shard4#1: runs=100 clean=9 survived=91 typed=0 corruptions=0 detections=97 maxlat=52 rollbacks=136 lost=35 reshards=35 quarantined=17 wrong=0 untyped=0
silent@invariants seed=3 HunIPU#0: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=32 maxlat=20001 rollbacks=27 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=3 HunIPU-nocompress#1: runs=50 clean=18 survived=26 typed=0 corruptions=6 detections=31 maxlat=20001 rollbacks=25 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@invariants seed=3 HunIPU-2D#2: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=32 maxlat=20001 rollbacks=27 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@invariants seed=3 HunIPU-shard2#0: runs=100 clean=6 survived=94 typed=0 corruptions=0 detections=104 maxlat=32 rollbacks=118 lost=43 reshards=43 quarantined=12 wrong=0 untyped=0
fabric-silent@invariants seed=3 HunIPU-shard4#1: runs=100 clean=9 survived=91 typed=0 corruptions=0 detections=97 maxlat=52 rollbacks=136 lost=35 reshards=35 quarantined=17 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU#0: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=40 maxlat=20001 rollbacks=35 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU-nocompress#1: runs=50 clean=18 survived=26 typed=0 corruptions=6 detections=40 maxlat=20001 rollbacks=34 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
silent@paranoid seed=3 HunIPU-2D#2: runs=50 clean=18 survived=27 typed=0 corruptions=5 detections=40 maxlat=20001 rollbacks=35 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0
fabric-silent@paranoid seed=3 HunIPU-shard2#0: runs=100 clean=6 survived=88 typed=6 corruptions=0 detections=134 maxlat=24 rollbacks=128 lost=63 reshards=57 quarantined=32 wrong=0 untyped=0
fabric-silent@paranoid seed=3 HunIPU-shard4#1: runs=100 clean=9 survived=91 typed=0 corruptions=0 detections=123 maxlat=143 rollbacks=146 lost=51 reshards=51 quarantined=33 wrong=0 untyped=0
bounded@0 seed=3 IPU@bounded(0)#0: runs=100 clean=32 survived=28 typed=40 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0 maxtruegap=0
bounded@0.01 seed=3 IPU@bounded(0.01)#0: runs=100 clean=29 survived=22 typed=49 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.00155435 maxtruegap=0
bounded@0.1 seed=3 IPU@bounded(0.1)#0: runs=100 clean=31 survived=22 typed=47 corruptions=0 detections=0 maxlat=0 rollbacks=0 lost=0 reshards=0 quarantined=0 wrong=0 untyped=0 gaprefusals=0 maxgap=0.0298339 maxtruegap=0
`
