package main

import (
	"net/http"
	"strings"
	"time"
)

// metricDef declares one printed metric. BENCHMARK.json declares the
// same set with the same units; e2e metrics are its end_to_end list and
// the rest its per_layer list (a test keeps the two in step).
type metricDef struct {
	name, unit string
	e2e        bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p95_ms", "ms", true},
	{"goodput_ops_s", "1/s", true},
	{"cost_ratio", "ratio", true},
	{"modeled_us_per_op", "us", true},
	{"heap_sys_mb", "MB", true},

	{"failed_share", "share", false},
	{"mean_gap", "gap", false},
	{"loadgen.lag_p95_ms", "ms", false},
	{"loadgen.expired_share", "share", false},
	{"hunipud.overhead_p50_ms", "ms", false},
	{"hunipud.overhead_p95_ms", "ms", false},
	{"hunipud.timeout_share", "share", false},
	{"serve.brownout_share", "share", false},
	{"serve.shed_deadline_share", "share", false},
	{"serve.warm_start_share", "share", false},
	{"serve.queue_high_water", "count", false},
	{"serve.served_ipu_share", "share", false},
	{"progcache.hit_ratio", "ratio", false},
	{"progcache.builds_in_window", "count", false},
	{"progcache.cold_build_ms", "ms", false},
	{"progcache.acquire_p50_us", "us", false},
	{"hunipu.solve_p50_ms", "ms", false},
	{"hunipu.prep_p50_us", "us", false},
	{"hunipu.attempts_per_solve", "count", false},
	{"engine.run_p50_ms", "ms", false},
	{"engine.host_ns_per_superstep", "ns", false},
	{"engine.host_ns_per_vertex", "ns", false},
	{"engine.supersteps_per_solve", "count", false},
	{"engine.vertices_per_solve", "count", false},
	{"engine.compute_cycles_per_solve", "cycles", false},
	{"engine.sync_cycles_per_solve", "cycles", false},
	{"engine.exchange_cycles_per_solve", "cycles", false},
	{"engine.guard_cycles_per_solve", "cycles", false},
	{"engine.allocs_per_solve", "count", false},
	{"auction.solve_p50_ms", "ms", false},
	{"auction.modeled_us_p50", "us", false},
	{"auction.gap_mean", "gap", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"check.certified_ops", "count", false},
	{"check.violations", "count", false},
	{"trace.overhead_share", "share", false},
	{"trace.self_time_coverage", "share", false},
}

// metric is one measured value. n is the number of samples behind it;
// n = 0 marks a layer the workload does not reach, whose value is 0.
type metric struct {
	value float64
	n     int
	note  string
}

// ratio is part/whole, 0 for an empty whole.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// collect gathers f over the ops that keep returns true.
func collect(ops []op, keep func(*op) bool, f func(*op) float64) []float64 {
	var out []float64
	for i := range ops {
		if keep(&ops[i]) {
			out = append(out, f(&ops[i]))
		}
	}
	return out
}

func good(o *op) bool { return o.good() }

// endToEnd computes the end-to-end metrics from the untraced window.
func endToEnd(p *pass) map[string]metric {
	w := &p.main
	m := map[string]metric{}
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	m["setup_s"] = metric{median(setup), len(setup), ""}

	lat := collect(w.ops, good, func(o *op) float64 { return ms(o.done - o.due) })
	tail, ok := tailPercentile(len(lat))
	note := "tail=p" + ftoa(tail)
	if !ok {
		note = "tail=unsupported"
	}
	m["latency_p50_ms"] = metric{median(lat), len(lat), ""}
	m["latency_p95_ms"] = metric{percentile(lat, 95), len(lat), note}
	m["goodput_ops_s"] = metric{float64(len(lat)) / w.elapsed.Seconds(), len(w.ops), ""}
	ratios := collect(w.ops, func(o *op) bool { return o.certified }, func(o *op) float64 { return o.ratio })
	m["cost_ratio"] = metric{mean(ratios), len(ratios), ""}
	modeled := collect(p.first, func(o *op) bool { return o.certified }, func(o *op) float64 { return us(o.modeled) })
	m["modeled_us_per_op"] = metric{mean(modeled), len(modeled), ""}
	m["heap_sys_mb"] = metric{float64(w.heapSys) / (1 << 20), 1, ""}
	return m
}

// perLayer computes the per-layer metrics from w, the traced window in
// trace mode and the untraced one otherwise.
func perLayer(p *pass, w *window) map[string]metric {
	m := map[string]metric{}
	ops := w.ops
	attempted := int64(len(ops))
	var goodN, expired, sent int64
	for i := range ops {
		if ops[i].good() {
			goodN++
		}
		if ops[i].expired {
			expired++
		} else {
			sent++
		}
	}
	m["failed_share"] = metric{ratio(float64(attempted-goodN), float64(attempted)), int(attempted), ""}
	gaps := collect(ops, func(o *op) bool { return o.certified }, func(o *op) float64 { return o.gap })
	m["mean_gap"] = metric{mean(gaps), len(gaps), ""}

	sentOp := func(o *op) bool { return !o.expired }
	if p.served {
		lags := collect(ops, sentOp, func(o *op) float64 { return ms(o.lag) })
		m["loadgen.lag_p95_ms"] = metric{percentile(lags, 95), len(lags), ""}
		m["loadgen.expired_share"] = metric{ratio(float64(expired), float64(attempted)), int(attempted), ""}
		over := collect(ops, good, func(o *op) float64 { return ms(o.done - o.sent - o.wall) })
		m["hunipud.overhead_p50_ms"] = metric{median(over), len(over), ""}
		m["hunipud.overhead_p95_ms"] = metric{percentile(over, 95), len(over), ""}
		timeouts := collect(ops, sentOp, func(o *op) float64 {
			if o.status == http.StatusGatewayTimeout {
				return 1
			}
			return 0
		})
		m["hunipud.timeout_share"] = metric{mean(timeouts), len(timeouts), ""}
		s := w.serve
		m["serve.brownout_share"] = metric{ratio(float64(s.brownouts), float64(sent)), int(sent), ""}
		m["serve.shed_deadline_share"] = metric{ratio(float64(s.shedDeadline), float64(sent)), int(sent), ""}
		m["serve.warm_start_share"] = metric{ratio(float64(s.warmStarts), float64(sent)), int(sent), ""}
		m["serve.queue_high_water"] = metric{float64(s.queueHighWater), 1, ""}
		m["serve.served_ipu_share"] = metric{ratio(float64(s.servedIPU), float64(s.servedAll)), int(s.servedAll), ""}
	}

	lookups := w.cache.hits + w.cache.misses
	m["progcache.hit_ratio"] = metric{ratio(float64(w.cache.hits), float64(lookups)), int(lookups), ""}
	m["progcache.builds_in_window"] = metric{float64(w.cache.builds), int(sent), ""}
	cold := make([]float64, len(p.coldBuild))
	for i, d := range p.coldBuild {
		cold[i] = ms(d)
	}
	m["progcache.cold_build_ms"] = metric{median(cold), len(cold), ""}

	solve := collect(ops, good, func(o *op) float64 { return ms(o.wall) })
	m["hunipu.solve_p50_ms"] = metric{median(solve), len(solve), ""}
	attempts := collect(ops, good, func(o *op) float64 { return float64(o.attempts) })
	m["hunipu.attempts_per_solve"] = metric{mean(attempts), len(attempts), ""}

	if !p.served {
		acquire := collect(ops, good, func(o *op) float64 { return us(o.compileHost) })
		m["progcache.acquire_p50_us"] = metric{median(acquire), len(acquire), ""}
		prep := collect(ops, good, func(o *op) float64 { return us(o.wall - o.attemptWall) })
		m["hunipu.prep_p50_us"] = metric{median(prep), len(prep), ""}
		run := collect(ops, good, func(o *op) float64 { return ms(o.attemptWall - o.compileHost) })
		m["engine.run_p50_ms"] = metric{median(run), len(run), ""}
		var runNS, steps, verts float64
		for i := range ops {
			if o := &ops[i]; o.good() {
				runNS += float64(o.attemptWall - o.compileHost)
				steps += float64(o.stats.Supersteps)
				verts += float64(o.stats.VerticesRun)
			}
		}
		if steps > 0 {
			m["engine.host_ns_per_superstep"] = metric{runNS / steps, len(run), ""}
			m["engine.host_ns_per_vertex"] = metric{runNS / verts, len(run), ""}
		}
		perSolve := func(f func(o *op) int64) metric {
			xs := collect(p.first, func(o *op) bool { return o.certified }, func(o *op) float64 { return float64(f(o)) })
			return metric{mean(xs), len(xs), "first pass"}
		}
		m["engine.supersteps_per_solve"] = perSolve(func(o *op) int64 { return o.stats.Supersteps })
		m["engine.vertices_per_solve"] = perSolve(func(o *op) int64 { return o.stats.VerticesRun })
		m["engine.compute_cycles_per_solve"] = perSolve(func(o *op) int64 { return o.stats.ComputeCycles })
		m["engine.sync_cycles_per_solve"] = perSolve(func(o *op) int64 { return o.stats.SyncCycles })
		m["engine.exchange_cycles_per_solve"] = perSolve(func(o *op) int64 { return o.stats.ExchangeCycles })
		m["engine.guard_cycles_per_solve"] = perSolve(func(o *op) int64 { return o.stats.GuardCycles })
		m["engine.allocs_per_solve"] = metric{ratio(float64(w.mallocs), float64(len(run))), len(run), ""}
	}

	bounded := func(o *op) bool { return o.good() && o.bounded }
	aSolve := collect(ops, bounded, func(o *op) float64 { return ms(o.wall) })
	m["auction.solve_p50_ms"] = metric{median(aSolve), len(aSolve), ""}
	aModeled := collect(ops, bounded, func(o *op) float64 { return us(o.modeled) })
	m["auction.modeled_us_p50"] = metric{median(aModeled), len(aModeled), ""}
	aGap := collect(ops, bounded, func(o *op) float64 { return o.gap })
	m["auction.gap_mean"] = metric{mean(aGap), len(aGap), ""}

	m["runtime.gc_cycles"] = metric{float64(w.gcCount), 1, ""}
	m["runtime.gc_pause_ms"] = metric{ms(w.gcPause), int(w.gcCount), ""}

	var certified, violations int64
	for _, o := range [][]op{p.first, ops} {
		for i := range o {
			if o[i].certified {
				certified++
			}
			if o[i].violation != "" {
				violations++
			}
		}
	}
	m["check.certified_ops"] = metric{float64(certified), int(certified), ""}
	m["check.violations"] = metric{float64(violations), int(certified + violations), ""}

	// Every declared layer metric is reported; a layer this workload
	// does not reach reads 0 with n=0.
	for _, d := range metricDefs {
		if _, ok := m[d.name]; !ok && !d.e2e && !strings.HasPrefix(d.name, "trace.") {
			m[d.name] = metric{}
		}
	}
	return m
}
