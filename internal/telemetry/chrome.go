package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"phloem/internal/sim"
)

// ChromeEvent is one entry of the Chrome trace_event format ("JSON array
// format" with a traceEvents wrapper), shared by every trace this repository
// writes: the sim-level traces here (Ts/Dur in cycles, written as
// microseconds 1:1 so the tracing UI's time axis reads directly in cycles)
// and internal/obs's search traces (wall-clock microseconds). A nil Dur is
// omitted; instants and metadata carry none.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeEvents encodes one Chrome trace document: the events in order,
// plus the otherData header block (omitted when empty).
func WriteChromeEvents(w io.Writer, events []ChromeEvent, otherData map[string]any) error {
	return json.NewEncoder(w).Encode(&struct {
		TraceEvents []ChromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData,omitempty"`
	}{events, otherData})
}

// Track numbering: one process per core (pid = core+1), one thread track
// per stage (tid = stage index+1) and per RA (tid = raTidBase+RA index).
const raTidBase = 1001

// WriteChromeTrace writes the run as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto: one track per stage thread (activity spans
// classified run/queue/backend/other, handler-fire instants) and one
// counter track per RA (in-flight window occupancy, sampled at interval
// boundaries). Output is deterministic for a given run.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	other := map[string]any{
		"cycles":       c.endCycle,
		"handlerFires": c.handlerN,
	}
	for k, v := range c.meta {
		other[k] = v
	}
	var events []ChromeEvent
	ev := func(e ChromeEvent) { events = append(events, e) }

	// Metadata: name processes (cores) and thread tracks (stages, RAs).
	seenCore := map[int]bool{}
	proc := func(core int) {
		if !seenCore[core] {
			seenCore[core] = true
			ev(ChromeEvent{Name: "process_name", Ph: "M", Pid: core + 1,
				Args: map[string]any{"name": fmt.Sprintf("core %d", core)}})
		}
	}
	for i, st := range c.stages {
		proc(st.core)
		ev(ChromeEvent{Name: "thread_name", Ph: "M", Pid: st.core + 1, Tid: i + 1,
			Args: map[string]any{"name": fmt.Sprintf("stage %s (t%d)", st.name, st.slot)}})
	}
	for j, ra := range c.ras {
		proc(ra.core)
		ev(ChromeEvent{Name: "thread_name", Ph: "M", Pid: ra.core + 1, Tid: raTidBase + j,
			Args: map[string]any{"name": fmt.Sprintf("RA %s", ra.name)}})
	}

	// Stage activity spans. Chrome drops zero-duration "X" events, so a
	// one-cycle state shows as dur=1.
	for _, sp := range c.spans {
		dur := int64(sp.end - sp.start)
		if dur == 0 {
			dur = 1
		}
		st := c.stages[sp.thread]
		name := "run"
		if sp.state != sim.ClassIssue {
			name = sp.state.String() + " stall"
		}
		ev(ChromeEvent{Name: name, Ph: "X", Cat: "stage",
			Pid: st.core + 1, Tid: sp.thread + 1, Ts: int64(sp.start), Dur: &dur})
	}

	// Handler-fire instants on the firing stage's track.
	for _, in := range c.instants {
		st := c.stages[in.thread]
		ev(ChromeEvent{Name: "handler fire", Ph: "i", S: "t", Cat: "handler",
			Pid: st.core + 1, Tid: in.thread + 1, Ts: int64(in.at),
			Args: map[string]any{"pc": in.pc}})
	}

	// RA in-flight counters from the sampled time-series.
	for _, row := range c.rows {
		for j, n := range row.RAInflight {
			ra := c.ras[j]
			ev(ChromeEvent{Name: "RA " + ra.name + " inflight", Ph: "C",
				Pid: ra.core + 1, Tid: raTidBase + j, Ts: int64(row.Cycle),
				Args: map[string]any{"inflight": n}})
		}
	}

	return WriteChromeEvents(w, events, other)
}
