package poplar

import (
	"encoding/json"
	"fmt"
	"io"
)

// SetTrace switches superstep recording on or off for the runs that
// follow. While it is on, every executed superstep is recorded so the
// timeline can be exported with Engine.WriteTrace (Chrome trace-event
// format, loadable in chrome://tracing or Perfetto); ResetReport starts
// a new timeline. Switching it off drops the recorded timeline, so an
// engine reused across solves holds none. Long solves produce tens of
// thousands of events; intended for debugging runs, not benchmarks.
func (e *Engine) SetTrace(on bool) {
	switch {
	case !on:
		e.trace = nil
	case e.trace == nil:
		e.trace = &traceLog{}
	}
}

// traceEvent is one executed superstep.
type traceEvent struct {
	name       string
	startCycle int64
	cycles     int64
	vertices   int
}

type traceLog struct {
	events []traceEvent
}

// record appends a superstep covering [start, end) device cycles.
func (t *traceLog) record(name string, start, end int64, vertices int) {
	t.events = append(t.events, traceEvent{
		name:       name,
		startCycle: start,
		cycles:     end - start,
		vertices:   vertices,
	})
}

// chromeEvent is the JSON shape chrome://tracing expects.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace writes the recorded timeline in Chrome trace-event JSON.
// Timestamps are in modeled microseconds (cycles / clock).
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.trace == nil {
		return fmt.Errorf("poplar: trace recording is off")
	}
	hz := e.dev.Config().ClockHz
	toUs := func(c int64) float64 { return float64(c) / hz * 1e6 }
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(e.trace.events))}
	for _, ev := range e.trace.events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.name,
			Ph:   "X",
			Ts:   toUs(ev.startCycle),
			Dur:  toUs(ev.cycles),
			Pid:  0,
			Tid:  0,
			Args: map[string]any{"vertices": ev.vertices},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// TraceEventCount reports how many supersteps were recorded.
func (e *Engine) TraceEventCount() int {
	if e.trace == nil {
		return 0
	}
	return len(e.trace.events)
}
