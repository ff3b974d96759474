// Command hunipud is the HTTP/JSON serving daemon around the
// internal/serve front-end: a bounded admission queue with
// deadline-aware load shedding, per-device circuit breakers over the
// IPU→GPU→CPU degradation ladder, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /solve       {"costs": [[...]], "maximize": false, "deadline_ms": 500}
//	GET  /healthz     liveness (200 while the process runs)
//	GET  /readyz      readiness (503 while draining or when every breaker is open)
//	GET  /debug/vars  expvar counters (admitted, shed, served per device,
//	                  breaker states and transitions, queue high-water mark,
//	                  guard trips / attestation failures / rollback epochs,
//	                  compiled-program cache hits / misses / evictions /
//	                  builds / in-flight under "progcache", sharded-solve
//	                  counts / devices lost / reshards / rollbacks /
//	                  quarantined chips under "shard")
//
// Shedding is typed on the wire: 429 overloaded, 422 deadline too
// short, 503 draining / no device, 504 deadline expired mid-solve,
// 413 body over 64 MiB, 400 invalid input.
//
// A /solve body is read once into one buffer and decoded in one pass
// that checks each cost against the JSON number grammar as it converts
// it, into rows sharing one backing array. A body that pass does not
// recognise exactly (null, an escaped, non-ASCII, unknown or repeated
// key, a value of another type, anything malformed) goes to
// json.Unmarshal, the reference: every body decodes, or is refused,
// exactly as json.Unmarshal into the request struct decides. So bytes
// other than whitespace after the object are a 400. A deadline_ms too
// long for time.Duration is no deadline.
//
// Usage:
//
//	hunipud -addr :8080 -workers 4 -queue 64 -drain 10s
//	hunipud -guard invariants                      # arm SDC detection + attestation
//	hunipud -faults-ipu 'reset every=1 times=40'   # chaos drill
//	hunipud -progcache 32                          # cache 32 compiled shapes
//	hunipud -shards 4 -min-fabric 2                # 4-chip fabric, survive down to 2
//	hunipud -quality 'bounded(0.05)'               # default quality tier for requests
//	hunipud -brownout 0.01,0.05,0.1                # ε brownout ladder under pressure
//
// What no flag sets is fixed: the ladder is IPU→GPU→CPU, a device's
// breaker opens for 2s after 4 failed attempts among its last 8, a
// request without deadline_ms has no deadline, and a transient fault
// is retried (up to -retries times) from the last checkpoint at once,
// since faults fire on the simulated superstep clock.
//
// Sharded solves run HunIPU over a multi-chip tile space and are
// guarded by default (GuardChecksums): checksums are kept per chip, a
// chip caught corrupting state twice is quarantined, and answers are
// attested. Pass -guard off explicitly to measure the unguarded fabric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hunipu"
	"hunipu/internal/faultinject"
	"hunipu/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hunipud:", err)
		os.Exit(1)
	}
}

// flags groups the daemon configuration.
type flags struct {
	addr      string
	workers   int
	queue     int
	retries   int
	drain     time.Duration
	guard     string
	guardSet  bool // -guard was given, even as "off"
	faultsIPU string
	progcache int
	shards    int
	minFabric int
	quality   string
	brownout  string
}

// parseFlags defines the daemon's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{}
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.IntVar(&f.workers, "workers", 0, "solve workers (0 = GOMAXPROCS, capped at 8)")
	fs.IntVar(&f.queue, "queue", 64, "admission queue depth")
	fs.IntVar(&f.retries, "retries", 2, "transient-fault checkpoint retries per solve")
	fs.DurationVar(&f.drain, "drain", 10*time.Second, "drain deadline after SIGTERM")
	fs.StringVar(&f.guard, "guard", "off", "silent-corruption guard policy on IPU solves: off, checksums, invariants, paranoid")
	fs.StringVar(&f.faultsIPU, "faults-ipu", "", "shared fault schedule injected on the IPU (chaos drills)")
	fs.IntVar(&f.progcache, "progcache", hunipu.DefaultProgramCacheCapacity, "compiled-program cache capacity in shapes, for HunIPU and the IPU auction each (0 = disable caching; every solve recompiles)")
	fs.IntVar(&f.shards, "shards", 0, "run IPU solves sharded over this many simulated chips; survives chip loss by re-sharding (0 = single device)")
	fs.IntVar(&f.minFabric, "min-fabric", 0, "smallest fabric a sharded solve may continue on after chip losses (0 = 1; requires -shards)")
	fs.StringVar(&f.quality, "quality", "exact", "default quality tier for requests that send none: exact or bounded(ε), e.g. bounded(0.05)")
	fs.StringVar(&f.brownout, "brownout", "", "comma-separated ascending ε brownout ladder, e.g. 0.01,0.05,0.1; under pressure requests are served at the loosest tier their deadline affords instead of being shed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "guard" {
			f.guardSet = true
		}
	})
	return f, nil
}

// defaultQuality maps the -quality flag to the tier applied when a
// request sends no quality field.
func (f *flags) defaultQuality() (hunipu.Quality, error) {
	q, err := hunipu.ParseQuality(f.quality)
	if err != nil {
		return hunipu.Quality{}, fmt.Errorf("-quality: %w", err)
	}
	return q, nil
}

// parseBrownout maps the -brownout flag to the ε ladder.
func parseBrownout(spec string) ([]float64, error) {
	var tiers []float64
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		eps, err := strconv.ParseFloat(w, 64)
		if err != nil {
			return nil, fmt.Errorf("-brownout: tier %q: %w", w, err)
		}
		tiers = append(tiers, eps)
	}
	return tiers, nil
}

// serverConfig assembles the serve.Config from flags. The ladder, the
// breakers and the admission cost model keep serve's defaults.
func (f *flags) serverConfig() (serve.Config, error) {
	guard, err := hunipu.ParseGuardPolicy(f.guard)
	if err != nil {
		return serve.Config{}, fmt.Errorf("-guard: %w", err)
	}
	tiers, err := parseBrownout(f.brownout)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Workers:         f.workers,
		QueueDepth:      f.queue,
		Retries:         f.retries,
		Guard:           guard,
		GuardSet:        f.guardSet,
		Shards:          f.shards,
		MinShardDevices: f.minFabric,
		BrownoutTiers:   tiers,
	}
	if f.faultsIPU != "" {
		sched, err := faultinject.ParseSchedule(f.faultsIPU)
		if err != nil {
			return serve.Config{}, fmt.Errorf("-faults-ipu: %w", err)
		}
		cfg.Inject = map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched}
	}
	return cfg, nil
}

// maxBodyBytes bounds a POST /solve body; a longer one is answered 413.
const maxBodyBytes = 64 << 20

// solveRequest is the POST /solve body. Quality is a ParseQuality
// spec ("exact" or "bounded(ε)"); empty means the daemon's -quality
// default. Key names the client's solve stream for per-key dual
// warm-starting (see serve.Request.Key).
type solveRequest struct {
	Costs      [][]float64 `json:"costs"`
	Maximize   bool        `json:"maximize,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
	Quality    string      `json:"quality,omitempty"`
	Key        string      `json:"key,omitempty"`
}

// solveResponse is the success body. Quality is the tier that actually
// served (the brownout controller may loosen the requested tier) and
// Gap its certified normalized optimality gap — 0 for exact serves.
type solveResponse struct {
	Assignment []int   `json:"assignment"`
	Cost       float64 `json:"cost"`
	Device     string  `json:"device"`
	FellBack   bool    `json:"fell_back"`
	Attempts   int     `json:"attempts"`
	ModeledUS  int64   `json:"modeled_us"`
	WallUS     int64   `json:"wall_us"`
	Quality    string  `json:"quality"`
	Gap        float64 `json:"gap"`
}

// errorResponse is the failure body.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// activeServer backs the process-wide expvar publication (expvar
// names can be published only once, but tests build many daemons).
var (
	activeServer atomic.Pointer[serve.Server]
	publishOnce  sync.Once
)

func publishVars() {
	publishOnce.Do(func() {
		expvar.Publish("hunipu_serve", expvar.Func(func() any {
			if s := activeServer.Load(); s != nil {
				return s.Vars()
			}
			return nil
		}))
	})
}

// daemon binds the HTTP surface to one serve.Server.
type daemon struct {
	srv            *serve.Server
	defaultQuality hunipu.Quality
}

// newDaemon wires the mux; defaultQuality serves requests that send no
// quality field. The returned handler is what hunipud listens on and
// what the tests drive via httptest.
func newDaemon(srv *serve.Server, defaultQuality hunipu.Quality) http.Handler {
	d := &daemon{srv: srv, defaultQuality: defaultQuality}
	activeServer.Store(srv)
	publishVars()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", d.handleSolve)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !d.srv.Ready() {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			fmt.Sprintf("draining=%v", d.srv.Draining()))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (d *daemon) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	var req solveRequest
	if err == nil {
		req, err = decodeSolveRequest(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	quality := d.defaultQuality
	if req.Quality != "" {
		var err error
		if quality, err = hunipu.ParseQuality(req.Quality); err != nil {
			status, code := classify(err)
			writeError(w, status, code, err.Error())
			return
		}
	}
	ctx := r.Context()
	// A deadline too long for time.Duration can never bind, so it is no
	// deadline, as a non-positive one is.
	if req.DeadlineMS > 0 && req.DeadlineMS <= int64(math.MaxInt64/time.Millisecond) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	res, err := d.srv.Submit(ctx, serve.Request{
		Costs: req.Costs, Maximize: req.Maximize,
		Quality: quality, Key: req.Key,
	})
	if err != nil {
		status, code := classify(err)
		writeError(w, status, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(solveResponse{
		Assignment: res.Assignment,
		Cost:       res.Cost,
		Device:     res.Device.String(),
		FellBack:   res.Report != nil && res.Report.FellBack,
		Attempts:   len(res.Report.Attempts),
		ModeledUS:  res.Modeled.Microseconds(),
		WallUS:     res.Wall.Microseconds(),
		Quality:    res.Quality.String(),
		Gap:        res.Gap,
	})
}

// classify maps a Submit error to its wire status and code.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, serve.ErrDeadlineTooShort):
		return http.StatusUnprocessableEntity, "deadline_too_short"
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, serve.ErrNoDevice):
		return http.StatusServiceUnavailable, "no_device"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "client_closed_request" // nginx's convention
	case errors.Is(err, hunipu.ErrInvalidInput), errors.Is(err, hunipu.ErrInvalidOption):
		return http.StatusBadRequest, "invalid_input"
	default:
		return http.StatusInternalServerError, "solve_failed"
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Code: code})
}

func run() error {
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}
	// Rebound the compiled-program cache before the first solve so a
	// memory-tuned daemon never transiently holds more shapes than asked.
	hunipu.SetProgramCacheCapacity(f.progcache)
	cfg, err := f.serverConfig()
	if err != nil {
		return err
	}
	quality, err := f.defaultQuality()
	if err != nil {
		return err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: f.addr, Handler: newDaemon(srv, quality)}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("hunipud listening on %s (drain %v)", f.addr, f.drain)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("hunipud draining (deadline %v)", f.drain)
	srv.BeginDrain() // readyz flips not-ready, admission stops
	drainCtx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		// In-flight HTTP requests outlived the deadline; the serve
		// layer below will cancel their solves.
		log.Printf("hunipud: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("hunipud drained cleanly")
	return nil
}
