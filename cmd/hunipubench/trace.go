package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hunipu/internal/poplar"
)

// span is one layer's interval within one operation, as an offset from
// the start of the traced window. The benchmark times its own calls; a
// child interval comes from a duration the layer below returned and is
// anchored at its parent's end.
type span struct {
	op           int
	name, parent string
	start, end   time.Duration
}

// opSpans lays out the spans of one answered operation, outermost
// first. Every child is clamped into its parent.
func opSpans(i int, o *op, served bool) []span {
	var out []span
	add := func(name string, parent int, start, end time.Duration) int {
		s := span{op: i, name: name, start: start, end: end}
		if parent >= 0 {
			p := out[parent]
			s.parent = p.name
			s.end = min(s.end, p.end)
			s.start = min(max(s.start, p.start), s.end)
		}
		out = append(out, s)
		return len(out) - 1
	}
	if served {
		root := add("loadgen.request", -1, o.due, o.done)
		req := add("hunipud.request", root, o.sent, o.done)
		add("hunipu.solve", req, o.done-o.wall, o.done)
		return out
	}
	run := o.attemptWall - o.compileHost
	root := add("hunipu.SolveContext", -1, o.sent, o.done)
	solve := add("hunipu.solve", root, o.done-o.wall, o.done)
	att := add("hunipu.attempt", solve, o.done-o.attemptWall, o.done)
	add("engine.run", att, o.done-run, o.done)
	add("progcache.acquire", att, o.done-run-o.compileHost, o.done-run)
	return out
}

// selfTimes sums each layer's self time over spans: its duration less
// the part its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.name] += s.end - s.start
		if s.parent != "" {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// traceMetrics compares the traced window with the untraced one and
// writes every span of the traced window to path as JSON lines,
// followed by each layer's mean self time and, in-process, the engine's
// per-compute-set profile.
func traceMetrics(p *pass, path string, profile []poplar.CSProfile) (map[string]metric, error) {
	var spans []span
	var roots time.Duration
	n := 0
	for i := range p.traced.ops {
		o := &p.traced.ops[i]
		if !o.good() {
			continue
		}
		s := opSpans(i, o, p.served)
		roots += s[0].end - s[0].start
		spans = append(spans, s...)
		n++
	}
	self := selfTimes(spans)
	var selfSum time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		selfSum += d
		names = append(names, name)
	}
	sort.Strings(names)

	latency := func(o *op) float64 { return ms(o.done - o.due) }
	untraced := median(collect(p.main.ops, good, latency))
	traced := median(collect(p.traced.ops, good, latency))
	m := map[string]metric{
		"trace.overhead_share":     {ratio(traced-untraced, untraced), n, ""},
		"trace.self_time_coverage": {ratio(float64(selfSum), float64(roots)), n, ""},
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		line := map[string]any{"op": s.op, "span": s.name, "start_us": us(s.start), "end_us": us(s.end)}
		if s.parent != "" {
			line["parent"] = s.parent
		}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		if err := enc.Encode(map[string]any{"self_time": name, "mean_us": us(self[name]) / float64(max(n, 1))}); err != nil {
			return nil, err
		}
	}
	for _, cs := range profile {
		if err := enc.Encode(map[string]any{"compute_set": cs.Name, "executions": cs.Executions, "compute_cycles": cs.ComputeCycles, "vertices": cs.Vertices}); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return m, f.Close()
}
