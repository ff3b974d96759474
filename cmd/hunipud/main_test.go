package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hunipu"
	"hunipu/internal/faultinject"
	"hunipu/internal/serve"
)

func newTestDaemon(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDaemon(srv, hunipu.Exact()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestDaemon(t, serve.Config{Workers: 2})
	for _, body := range []string{
		`{"costs":[[4,1,3],[2,0,5],[3,2,2]]}`,
		// Deadlines too long for time.Duration are no deadline.
		`{"costs":[[4,1,3],[2,0,5],[3,2,2]],"deadline_ms":9223372036855}`,
		`{"costs":[[4,1,3],[2,0,5],[3,2,2]],"deadline_ms":4611686018427387904}`,
	} {
		resp, raw := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", body, resp.StatusCode, raw)
		}
		var out solveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad JSON %s: %v", raw, err)
		}
		if out.Cost != 5 || len(out.Assignment) != 3 {
			t.Fatalf("response = %+v, want cost 5 with 3 assignments", out)
		}
		if out.Device != "IPU" || out.FellBack {
			t.Fatalf("response = %+v, want clean IPU serve", out)
		}
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	_, ts := newTestDaemon(t, serve.Config{Workers: 1, SeedCostPerCell: time.Millisecond})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed json", `{"costs": [[1,`, http.StatusBadRequest, "bad_request"},
		{"nan entry", `{"costs":[[1,2],[3,"x"]]}`, http.StatusBadRequest, "bad_request"},
		{"ragged matrix", `{"costs":[[1,2],[3]]}`, http.StatusBadRequest, "invalid_input"},
		// Priced by its first row, this body would need 100² ms.
		{"ragged with deadline", `{"costs":[[` + strings.Repeat("0,", 99) + `0],[3]],"deadline_ms":50}`, http.StatusBadRequest, "invalid_input"},
		{"max float entry", `{"costs":[[1,1.7976931348623157e308],[3,4]]}`, http.StatusBadRequest, "invalid_input"},
		{"deadline too short", `{"costs":[[4,1,3],[2,0,5],[3,2,2]],"deadline_ms":1}`, http.StatusUnprocessableEntity, "deadline_too_short"},
		// Last: if served, it would teach the cost model that 3×3 is cheap.
		{"trailing bytes", `{"costs":[[4,1,3],[2,0,5],[3,2,2]]} trailing garbage`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postSolve(t, ts, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			var e errorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("bad error JSON %s", raw)
			}
			if e.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (%s)", e.Code, tc.wantCode, e.Error)
			}
		})
	}
}

// TestSolveBodyTooLarge: a body one byte past the limit is answered
// 413, not 400; it is too long, not malformed.
func TestSolveBodyTooLarge(t *testing.T) {
	_, ts := newTestDaemon(t, serve.Config{Workers: 1})
	head, tail := `{"costs":[[1]]`, `}`
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(head)+len(tail))),
		strings.NewReader(tail))
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", body))
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("bad error JSON %s", rec.Body.Bytes())
	}
	if rec.Code != http.StatusRequestEntityTooLarge || e.Code != "too_large" {
		t.Fatalf("status %d code %q (%s), want 413 too_large", rec.Code, e.Code, e.Error)
	}
}

// spaces reads as endless JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestDaemon(t, serve.Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	// Draining flips readiness but not liveness, and sheds new solves.
	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", resp.StatusCode)
	}
	solveResp, raw := postSolve(t, ts, `{"costs":[[1]]}`)
	if solveResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining = %d (%s), want 503", solveResp.StatusCode, raw)
	}
}

// TestReadyzAllBreakersOpen: when every device in the ladder has an
// open breaker, readiness must fail even though the process is alive.
func TestReadyzAllBreakersOpen(t *testing.T) {
	sched := faultinject.NewSchedule(1, faultinject.Rule{
		Class: faultinject.DeviceReset, At: -1, Every: 1, Times: -1,
	})
	srv, ts := newTestDaemon(t, serve.Config{
		Workers: 1,
		Devices: []hunipu.Device{hunipu.DeviceIPU},
		Breaker: serve.BreakerConfig{Window: 2, Failures: 2, OpenFor: time.Hour},
		Inject:  map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched},
	})
	body := `{"costs":[[4,1,3],[2,0,5],[3,2,2]]}`
	for i := 0; i < 2; i++ {
		resp, _ := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted solve %d = %d, want 500", i, resp.StatusCode)
		}
	}
	if got := srv.BreakerState(hunipu.DeviceIPU); got != serve.BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all breakers open = %d, want 503", resp.StatusCode)
	}
	resp2, _ := postSolve(t, ts, body)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with all breakers open = %d, want 503", resp2.StatusCode)
	}
}

func TestDebugVars(t *testing.T) {
	_, ts := newTestDaemon(t, serve.Config{Workers: 1})
	if resp, _ := postSolve(t, ts, `{"costs":[[4,1,3],[2,0,5],[3,2,2]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars = %d", resp.StatusCode)
	}
	body := string(raw)
	for _, want := range []string{`"hunipu_serve"`, `"admitted"`, `"breaker_state"`, `"queue_high_water"`, `"guard_trips"`, `"attestation_failures"`, `"rollback_epochs"`, `"progcache"`, `"hits"`, `"misses"`, `"evictions"`, `"builds"`, `"in_flight"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/vars missing %s:\n%s", want, body)
		}
	}
}

// TestProgcacheVars checks the compiled-program cache counters move
// through the serving layer: a served IPU solve is at least one cache
// acquisition, so hits+misses must be positive in Vars.
func TestProgcacheVars(t *testing.T) {
	srv, ts := newTestDaemon(t, serve.Config{Workers: 1})
	for i := 0; i < 2; i++ {
		if resp, _ := postSolve(t, ts, `{"costs":[[4,1,3],[2,0,5],[3,2,2]]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d = %d", i, resp.StatusCode)
		}
	}
	pc, ok := srv.Vars()["progcache"].(map[string]int64)
	if !ok {
		t.Fatalf("Vars()[progcache] missing or mistyped: %#v", srv.Vars()["progcache"])
	}
	if pc["hits"]+pc["misses"] < 2 {
		t.Errorf("progcache hits+misses = %d+%d after two served solves, want ≥ 2", pc["hits"], pc["misses"])
	}
	if pc["capacity"] <= 0 {
		t.Errorf("progcache capacity = %d, want the default bound", pc["capacity"])
	}
}

// parseTestFlags parses args as the daemon's command line.
func parseTestFlags(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("hunipud", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestDaemonFlags parses the command line hunipubench's served
// workloads start the daemon with (its daemonArgs, after -addr) and
// checks the serve.Config it yields. Every flag that was removed for
// want of a user must be rejected, not silently ignored.
func TestDaemonFlags(t *testing.T) {
	f, err := parseTestFlags("-addr", "127.0.0.1:0", "-workers", "2", "-queue", "64", "-brownout", "0.01,0.05,0.1")
	if err != nil {
		t.Fatal(err)
	}
	if f.addr != "127.0.0.1:0" {
		t.Fatalf("addr = %q", f.addr)
	}
	cfg, err := f.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 || cfg.QueueDepth != 64 || cfg.Retries != 2 {
		t.Fatalf("Workers %d QueueDepth %d Retries %d, want 2, 64, 2", cfg.Workers, cfg.QueueDepth, cfg.Retries)
	}
	// An empty ladder is serve's default, IPU → GPU → CPU.
	if cfg.Devices != nil {
		t.Fatalf("Devices = %v, want serve's default ladder", cfg.Devices)
	}
	if want := []float64{0.01, 0.05, 0.1}; !slices.Equal(cfg.BrownoutTiers, want) {
		t.Fatalf("BrownoutTiers = %v, want %v", cfg.BrownoutTiers, want)
	}
	if cfg.Guard != hunipu.GuardOff || cfg.GuardSet || cfg.Inject != nil || cfg.Shards != 0 {
		t.Fatalf("config %+v, want no guard, injector or fabric", cfg)
	}
	q, err := f.defaultQuality()
	if err != nil || q != hunipu.Exact() {
		t.Fatalf("defaultQuality = %v, %v, want exact", q, err)
	}
	for _, removed := range []string{"-devices=cpu", "-backoff=5ms", "-latency-budget=1s",
		"-breaker-window=8", "-breaker-failures=4", "-breaker-open=2s", "-deadline=1s", "-faults-gpu=reset at=1"} {
		if _, err := parseTestFlags(removed); err == nil {
			t.Errorf("%s accepted", removed)
		}
	}
}

// TestGuardFlag: -guard sets the policy, and only an explicit -guard
// (off included) forces it through to sharded solves.
func TestGuardFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want hunipu.GuardPolicy
		set  bool
	}{
		{nil, hunipu.GuardOff, false},
		{[]string{"-guard", "off"}, hunipu.GuardOff, true},
		{[]string{"-guard", "invariants"}, hunipu.GuardInvariants, true},
	} {
		f, err := parseTestFlags(tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := f.serverConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Guard != tc.want || cfg.GuardSet != tc.set {
			t.Fatalf("%v: Guard = %v GuardSet = %v, want %v %v", tc.args, cfg.Guard, cfg.GuardSet, tc.want, tc.set)
		}
	}
	f, err := parseTestFlags("-guard", "bogus")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.serverConfig(); err == nil {
		t.Fatal("-guard bogus accepted")
	}
}

// TestBoundedQualityEndpoint drives the degradation-ladder wire
// surface: a bounded(ε) request comes back reporting the serving tier
// and a certified gap within ε, and a malformed spec is a client
// error.
func TestBoundedQualityEndpoint(t *testing.T) {
	_, ts := newTestDaemon(t, serve.Config{Workers: 1})
	resp, raw := postSolve(t, ts, `{"costs":[[4,1,3],[2,0,5],[3,2,2]],"quality":"bounded(0.1)","key":"stream-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var out solveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", raw, err)
	}
	if out.Quality != "bounded(0.1)" {
		t.Fatalf("quality = %q, want bounded(0.1)", out.Quality)
	}
	if out.Gap < 0 || out.Gap > 0.1 {
		t.Fatalf("gap = %v, want within [0, 0.1]", out.Gap)
	}
	if out.Cost > 5*(1+0.1)+0.1 {
		t.Fatalf("cost = %v, not within ε of the optimum 5", out.Cost)
	}
	resp, raw = postSolve(t, ts, `{"costs":[[1]],"quality":"bounded(-1)"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed quality = %d (%s), want 400", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "invalid_input" {
		t.Fatalf("malformed quality code = %q (%s)", e.Code, raw)
	}
}

// TestQualityAndBrownoutFlags checks the flag plumbing end to end:
// -brownout becomes the serve ladder, -quality the per-request
// default, and malformed specs fail startup.
func TestQualityAndBrownoutFlags(t *testing.T) {
	f, err := parseTestFlags("-brownout", "0.01, 0.05,0.1", "-quality", "bounded(0.05)")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.01, 0.05, 0.1}; !slices.Equal(cfg.BrownoutTiers, want) {
		t.Fatalf("BrownoutTiers = %v, want %v", cfg.BrownoutTiers, want)
	}
	q, err := f.defaultQuality()
	if err != nil || !q.IsBounded() || q.Epsilon() != 0.05 {
		t.Fatalf("defaultQuality = %v, %v", q, err)
	}
	for _, args := range [][]string{{"-brownout", "0.01,zero"}, {"-quality", "approx"}, {"-faults-ipu", "bogus"}} {
		f, err := parseTestFlags(args...)
		if err != nil {
			t.Fatal(err)
		}
		_, cerr := f.serverConfig()
		_, qerr := f.defaultQuality()
		if cerr == nil && qerr == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
