package main

import (
	"time"

	"hunipu/internal/ipu"
)

// op is one operation a workload attempted, with every duration the
// benchmark can see from outside the program. Offsets count from the
// start of the window the op ran in.
type op struct {
	due, sent, done time.Duration // due == sent on closed loops
	lag             time.Duration // how late the generator released an open-loop arrival
	size            int           // index of the op's shape in the workload
	expired         bool          // its budget ran out before a connection freed; never sent
	status          int           // HTTP status; 200 for an in-process answer
	late            bool          // answered after its deadline
	certified       bool
	wall, modeled   time.Duration // Result.Wall / wall_us and Result.Modeled / modeled_us
	gap, ratio      float64       // certified gap as reported, and cost over the optimum
	bounded         bool          // served at Bounded(ε>0)
	attempts        int
	violation       string // why the answer failed certification
	failure         string // an outcome that is neither an answer nor a typed shed

	// In-process solves only: the attempt that served and its engine profile.
	attemptWall, compileHost time.Duration
	stats                    ipu.Stats

	// Stream frames are certified after the window, once regenerated.
	stream, frame int
	assignment    []int
	cost, eps     float64
}

// good reports whether the op delivered a certified answer in time.
func (o *op) good() bool { return o.certified && !o.late }

// cacheDelta is the program cache's work during a window.
type cacheDelta struct {
	hits, misses, builds int64
}

// serveDelta is what the daemon's /debug/vars counters moved by during a
// window.
type serveDelta struct {
	brownouts, shedDeadline, warmStarts int64
	servedIPU, servedAll                int64
	queueHighWater                      int64
}

// window is one measured interval of a workload.
type window struct {
	ops     []op
	elapsed time.Duration
	heapSys uint64 // of the process that runs the solver, at the window's end
	gcCount int64
	gcPause time.Duration
	mallocs int64 // in-process only
	cache   cacheDelta
	serve   *serveDelta // nil for in-process workloads
}

// pass is one complete run of a workload: set-up, the fixed first pass,
// and its measured windows.
type pass struct {
	served    bool
	setup     []time.Duration // one per cold start
	coldBuild []time.Duration // per cold start: time the first answers spent building programs
	first     []op            // the fixed first pass, identical on every run of a seed
	main      window
	traced    *window // the traced window, in trace mode
}

// opSets lists the ops of the first pass and of every window.
func (p *pass) opSets() [][]op {
	sets := [][]op{p.first, p.main.ops}
	if p.traced != nil {
		sets = append(sets, p.traced.ops)
	}
	return sets
}

// problems lists every violation and every untyped failure of the pass.
func (p *pass) problems() (violations, failures []string) {
	for _, ops := range p.opSets() {
		for i := range ops {
			if v := ops[i].violation; v != "" {
				violations = append(violations, v)
			}
			if f := ops[i].failure; f != "" {
				failures = append(failures, f)
			}
		}
	}
	return violations, failures
}
