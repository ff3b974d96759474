package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"hunipu"
)

// daemonArgs is the one hunipud configuration every served workload
// shares; every other flag keeps its default (-retries 2 among them).
var daemonArgs = []string{"-workers", "2", "-queue", "64", "-brownout", "0.01,0.05,0.1"}

// connections bounds the load generator: one process with at most two
// connections, one per core of the machine the bounds were set on.
const connections = 2

// daemon is one hunipud process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    bytes.Buffer
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// startDaemon launches bin and waits until it reports ready. A launch
// that loses its port to another process is retried.
func startDaemon(ctx context.Context, bin string, c *http.Client) (*daemon, error) {
	var err error
	for try := 0; try < 3 && ctx.Err() == nil; try++ {
		var d *daemon
		if d, err = launch(bin); err != nil {
			return nil, err
		}
		if err = d.waitReady(ctx, c); err == nil {
			return d, nil
		}
		_ = d.stop() // the readiness error is the one worth reporting
	}
	return nil, err
}

func launch(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, daemonArgs...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hunipud: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	giveUp := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("hunipud exited before ready (%v): %s", d.err, d.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(giveUp) {
			return errors.New("hunipud not ready after 20s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that fails to drain is killed and reported.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("hunipud drain: %v: %s", d.err, d.log.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the drain failure is what is reported
		<-d.exited
		return errors.New("hunipud did not drain within 15s")
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}}
}

// answer is hunipud's POST /solve success body.
type answer struct {
	Assignment []int   `json:"assignment"`
	Cost       float64 `json:"cost"`
	Attempts   int     `json:"attempts"`
	ModeledUS  int64   `json:"modeled_us"`
	WallUS     int64   `json:"wall_us"`
	Quality    string  `json:"quality"`
	Gap        float64 `json:"gap"`
}

// post sends one solve. The answer is nil unless the status is 200; err
// describes a transport failure or a non-200 body.
func (d *daemon) post(ctx context.Context, c *http.Client, body []byte) (int, *answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // for the message only
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var a answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode answer: %w", err)
	}
	return resp.StatusCode, &a, nil
}

// isShed reports whether a status is one of hunipud's typed load-shedding
// answers: 429 queue full, 422 deadline too short, 504 deadline expired
// mid-solve. They count against failed_share and goodput, not as
// benchmark failures.
func isShed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusUnprocessableEntity || status == http.StatusGatewayTimeout
}

// recordServed records one daemon outcome on o. With inst nil the answer
// is kept for certification after the window.
func (o *op) recordServed(inst *instance, status int, a *answer, err error) {
	o.status = status
	if a == nil {
		if !isShed(status) {
			o.failure = err.Error()
		}
		return
	}
	o.wall = time.Duration(a.WallUS) * time.Microsecond
	o.modeled = time.Duration(a.ModeledUS) * time.Microsecond
	o.attempts = a.Attempts
	q, qerr := hunipu.ParseQuality(a.Quality)
	if qerr != nil {
		o.violation = fmt.Sprintf("served quality: %v", qerr)
		return
	}
	if inst == nil {
		o.assignment, o.cost, o.gap, o.eps = a.Assignment, a.Cost, a.Gap, q.Epsilon()
		o.bounded = o.eps > 0
		return
	}
	o.recordAnswer(inst, a.Assignment, a.Cost, a.Gap, q.Epsilon())
}

// debugVars is the part of hunipud's /debug/vars the benchmark reads.
type debugVars struct {
	Memstats struct {
		HeapSys      uint64
		NumGC        uint32
		PauseTotalNs uint64
	} `json:"memstats"`
	Serve struct {
		Shed struct {
			Deadline int64 `json:"deadline_too_short"`
		} `json:"shed"`
		Served         map[string]int64 `json:"served"`
		QueueHighWater int64            `json:"queue_high_water"`
		Bounded        struct {
			Brownouts  int64 `json:"brownouts"`
			WarmStarts int64 `json:"warm_starts"`
		} `json:"bounded"`
		Progcache struct {
			Hits, Misses, Builds int64
		} `json:"progcache"`
	} `json:"hunipu_serve"`
}

func (d *daemon) vars(ctx context.Context, c *http.Client) (*debugVars, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v debugVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &v, nil
}

// servedWindow measures one window of load and what the daemon's
// counters moved by during it.
func servedWindow(ctx context.Context, d *daemon, c *http.Client, load func() ([]op, time.Duration)) (window, error) {
	v0, err := d.vars(ctx, c)
	if err != nil {
		return window{}, err
	}
	ops, elapsed := load()
	v1, err := d.vars(ctx, c)
	if err != nil {
		return window{}, err
	}
	sum := func(m map[string]int64) (all int64) {
		for _, v := range m {
			all += v
		}
		return all
	}
	s0, s1 := &v0.Serve, &v1.Serve
	return window{
		ops:     ops,
		elapsed: elapsed,
		heapSys: v1.Memstats.HeapSys,
		gcCount: int64(v1.Memstats.NumGC - v0.Memstats.NumGC),
		gcPause: time.Duration(v1.Memstats.PauseTotalNs - v0.Memstats.PauseTotalNs),
		cache: cacheDelta{
			hits:   s1.Progcache.Hits - s0.Progcache.Hits,
			misses: s1.Progcache.Misses - s0.Progcache.Misses,
			builds: s1.Progcache.Builds - s0.Progcache.Builds,
		},
		serve: &serveDelta{
			brownouts:      s1.Bounded.Brownouts - s0.Bounded.Brownouts,
			shedDeadline:   s1.Shed.Deadline - s0.Shed.Deadline,
			warmStarts:     s1.Bounded.WarmStarts - s0.Bounded.WarmStarts,
			servedIPU:      s1.Served["IPU"] - s0.Served["IPU"],
			servedAll:      sum(s1.Served) - sum(s0.Served),
			queueHighWater: s1.QueueHighWater,
		},
	}, nil
}

// openLoop plays sched: a dispatcher releases each arrival at its due
// time onto a queue that the senders, one connection each, drain in
// order. send makes the request for one arrival, or marks it expired.
// Offsets in the returned ops count from the loop's start.
func openLoop(ctx context.Context, sched []arrival, send func(a arrival, o *op, start time.Time)) ([]op, time.Duration) {
	ops := make([]op, len(sched))
	queue := make(chan int, len(sched)) // holds the whole schedule, so the dispatcher never waits on a sender
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < connections; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(sched[i], &ops[i], start)
			}
		}()
	}
	for i, a := range sched {
		if wait := a.due - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			ops = ops[:i]
			break
		}
		ops[i].due, ops[i].size = a.due, a.size
		ops[i].lag = time.Since(start) - a.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return ops, time.Since(start)
}

// coldStarts is how many fresh starts set-up time is the median of. A
// start takes 30–250 ms, and the median of five moved by more than a
// quarter between two sets of runs of the same code.
const coldStarts = 9

// probe is one request a cold start must see certified.
type probe struct {
	inst instance
	body []byte
}

// sendProbes sends each probe in turn, certifies the answers, and
// returns the daemon's total solve time for them.
func sendProbes(ctx context.Context, d *daemon, c *http.Client, probes []probe) (time.Duration, error) {
	var wall time.Duration
	for k := range probes {
		var o op
		status, a, err := d.post(ctx, c, probes[k].body)
		o.recordServed(&probes[k].inst, status, a, err)
		if !o.certified {
			return 0, fmt.Errorf("probe %d: status %d %s%s", k, status, o.violation, o.failure)
		}
		wall += o.wall
	}
	return wall, nil
}

// servedLoad is a workload that drives hunipud.
type servedLoad interface {
	// probes are one request per shape the workload uses.
	probes() []probe
	// firstPass sends the fixed first pass, identical on every run of
	// a seed.
	firstPass(ctx context.Context, d *daemon, c *http.Client) []op
	// load runs one window of the given length; tag tells the windows
	// of one run apart.
	load(ctx context.Context, d *daemon, c *http.Client, tag string, length time.Duration) ([]op, time.Duration)
	// certifyLater certifies the answers kept for after the windows.
	certifyLater(ctx context.Context, opss ...[]op) error
}

// runServed measures a served workload against fresh hunipud processes.
func runServed(ctx context.Context, e *env, wl servedLoad) (p *pass, err error) {
	bin, err := e.daemonBinary(ctx)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	p = &pass{served: true}
	probes := wl.probes()
	var d *daemon
	defer func() {
		if d != nil {
			if serr := d.stop(); err == nil {
				err = serr
			}
		}
	}()
	for i := 0; i < coldStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
		start := time.Now()
		if d, err = startDaemon(ctx, bin, c); err != nil {
			return nil, err
		}
		cold, err := sendProbes(ctx, d, c, probes)
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		p.setup = append(p.setup, time.Since(start))
		// What the first answers took beyond the same requests sent
		// again, warm, is the time they spent building programs.
		warm, err := sendProbes(ctx, d, c, probes)
		if err != nil {
			return nil, fmt.Errorf("warm probe: %w", err)
		}
		p.coldBuild = append(p.coldBuild, cold-warm)
	}
	p.first = wl.firstPass(ctx, d, c)

	measure := func(tag string) (window, error) {
		return servedWindow(ctx, d, c, func() ([]op, time.Duration) {
			return wl.load(ctx, d, c, tag, e.windowLength())
		})
	}
	if p.main, err = measure("main"); err != nil {
		return nil, err
	}
	if e.trace {
		w, err := measure("traced")
		if err != nil {
			return nil, err
		}
		p.traced = &w
	}
	if err := wl.certifyLater(ctx, p.opSets()...); err != nil {
		return nil, err
	}
	return p, ctx.Err()
}
