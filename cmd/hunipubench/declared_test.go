package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestBenchmarkFileDeclaresEveryMetric keeps BENCHMARK.json and the
// metric and workload tables in step: same names, units and reasons,
// end-to-end metrics with a bound and the per-layer ones without.
func TestBenchmarkFileDeclaresEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/hunipubench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	declared := map[string]declaredMetric{}
	for _, list := range [][]declaredMetric{b.EndToEnd, b.PerLayer} {
		for _, d := range list {
			declared[d.Name] = d
		}
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the benchmark %d", len(declared), len(metricDefs))
	}
	for _, d := range metricDefs {
		got, ok := declared[d.name]
		switch {
		case !ok:
			t.Errorf("%s is not declared", d.name)
		case got.Unit != d.unit:
			t.Errorf("%s: declared unit %q, printed %q", d.name, got.Unit, d.unit)
		case got.Better != "lower" && got.Better != "higher":
			t.Errorf("%s: better = %q", d.name, got.Better)
		case d.e2e != (got.Bound != nil):
			t.Errorf("%s: end-to-end %v but bound %v", d.name, d.e2e, got.Bound)
		case got.Bound != nil && (*got.Bound <= 0 || *got.Bound > 0.25):
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, *got.Bound)
		}
	}
}

// TestSmokeEveryWorkload runs every workload briefly through the real
// command path, with tracing, and checks that each prints exactly the
// declared metrics and certifies every answer.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs hunipud")
	}
	b := readBenchmarkFile(t)
	traceDir := t.TempDir()
	var out, errs bytes.Buffer
	if code := run(context.Background(), []string{"-seed", "1", "-seconds", "1", "-trace", "1", "-trace-dir", traceDir}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
	}
	printed := map[string]map[string]string{} // workload → metric → unit
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if strings.HasPrefix(last, "#") || strings.HasPrefix(last, "{") || len(f) < 5 {
			continue
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string]string{}
		}
		printed[f[0]][f[1]] = f[3]
	}
	for _, w := range workloads {
		got := printed[w.name]
		for _, list := range [][]declaredMetric{b.EndToEnd, b.PerLayer} {
			for _, d := range list {
				if got[d.Name] != d.Unit {
					t.Errorf("%s: %s printed with unit %q, declared %q", w.name, d.Name, got[d.Name], d.Unit)
				}
			}
		}
		if len(got) != len(metricDefs) {
			t.Errorf("%s printed %d metrics, want %d", w.name, len(got), len(metricDefs))
		}
		if _, err := os.Stat(filepath.Join(traceDir, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s wrote no trace: %v", w.name, err)
		}
	}
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("summary %+v", sum)
	}
	if want := len(workloads) * len(b.PerLayer); len(sum.Metrics) != want {
		t.Errorf("traced summary carries %d metrics, want every per-layer metric of every workload (%d)", len(sum.Metrics), want)
	}
	for _, w := range workloads {
		if m := sum.Metrics[w.name+"/check.violations"]; m.Value != 0 {
			t.Errorf("%s: %v violations", w.name, m.Value)
		}
		if m := sum.Metrics[w.name+"/progcache.builds_in_window"]; m.Value != 0 {
			t.Errorf("%s: %v builds in the window", w.name, m.Value)
		}
	}
}

// TestUntracedSummaryCarriesEndToEndMetrics checks the summary of an
// untraced single-workload run: exactly the end-to-end metrics, by
// their bare names.
func TestUntracedSummaryCarriesEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a workload")
	}
	b := readBenchmarkFile(t)
	var out, errs bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "batch-exact-n128", "-seconds", "1"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Metrics) != len(b.EndToEnd) {
		t.Errorf("summary carries %d metrics, want %d", len(sum.Metrics), len(b.EndToEnd))
	}
	for _, d := range b.EndToEnd {
		if m, ok := sum.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s: summary has %+v (present %v); want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
}
