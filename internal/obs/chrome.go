package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"phloem/internal/core"
	"phloem/internal/sim"
)

// chromeEvent is one entry of the Chrome trace_event format ("JSON array
// format" with a traceEvents wrapper), shared by both traces this package
// writes: the sim-level trace (Ts/Dur in cycles, written as microseconds 1:1
// so the tracing UI's time axis reads directly in cycles) and the search
// trace (wall-clock microseconds). A nil Dur is omitted; instants and
// metadata carry none.
type chromeEvent struct {
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

// writeChromeEvents encodes one Chrome trace document: the events in order,
// plus the otherData header block (omitted when empty).
func writeChromeEvents(w io.Writer, events []chromeEvent, otherData map[string]any) error {
	return json.NewEncoder(w).Encode(&struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData,omitempty"`
	}{events, otherData})
}

// trackName is the metadata row naming a process (tid 0) or a thread track.
func trackName(pid, tid int, name string) chromeEvent {
	kind := "thread_name"
	if tid == 0 {
		kind = "process_name"
	}
	return chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// searchPid is the single process every search track lives under.
const searchPid = 1

// WriteChromeTrace writes the recorded search as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto: one thread track per search
// worker (worker 0 is the merger/serial goroutine), one enclosing span per
// candidate visit nested with its phase sub-spans (build/commopt/verify/
// train), the serial-baseline and rank-phase spans, and the merger's verdict
// instants in enumeration order. Ts/Dur are wall-clock microseconds from
// the search's EvSearchStart anchor; Dur is always set on spans, so
// sub-microsecond spans keep an explicit dur of 0 and per-phase dur sums
// reconcile exactly with Metrics.Phases. Every candidate event carries its
// fingerprint in args.fp, the candidate's canonical configuration key
// (dedup table and checkpoint journal).
func (c *SearchCollector) WriteChromeTrace(w io.Writer) error {
	events := c.Events()
	m := Aggregate(events)
	other := map[string]any{
		"mode":       m.Mode,
		"enumerated": m.Enumerated,
		"unique":     m.Unique,
		"bestCycles": m.BestCycles,
		"replayed":   m.ReplayedTotal,
	}
	var out []chromeEvent
	ev := func(e chromeEvent) { out = append(out, e) }

	ev(trackName(searchPid, 0, fmt.Sprintf("search (%s)", m.Mode)))
	for wkr := 0; wkr < m.Workers; wkr++ {
		name := fmt.Sprintf("worker %d", wkr)
		if wkr == 0 {
			name = "worker 0 (merger)"
		}
		ev(trackName(searchPid, wkr+1, name))
	}

	// Enclosing candidate spans: one per (candidate, worker) visit, covering
	// that visit's phase sub-spans (rank-phase builds land on worker 0, the
	// measurement on whichever worker drew the task).
	type visitKey struct{ seq, worker int }
	type visit struct {
		first      int // index into events of the visit's first span
		start, end int64
	}
	visits := map[visitKey]*visit{}
	var visitOrder []visitKey
	for i := range events {
		e := &events[i]
		if e.Seq < 0 || !phaseSpan(e) {
			continue
		}
		k := visitKey{e.Seq, e.Worker}
		v := visits[k]
		if v == nil {
			v = &visit{first: i, start: e.Start.Microseconds()}
			visits[k] = v
			visitOrder = append(visitOrder, k)
		}
		if s := e.Start.Microseconds(); s < v.start {
			v.start = s
		}
		if end := e.End.Microseconds(); end > v.end {
			v.end = end
		}
	}
	sort.Slice(visitOrder, func(i, j int) bool {
		a, b := visits[visitOrder[i]], visits[visitOrder[j]]
		if a.start != b.start {
			return a.start < b.start
		}
		return visitOrder[i].seq < visitOrder[j].seq
	})
	for _, k := range visitOrder {
		v := visits[k]
		e := &events[v.first]
		dur := v.end - v.start
		ev(chromeEvent{Name: candName(e), Ph: "X", Cat: "candidate",
			Pid: searchPid, Tid: k.worker + 1, Ts: v.start, Dur: &dur,
			Args: candArgs(e)})
	}

	// Phase sub-spans and search-level spans.
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case core.EvSerial, core.EvRank, core.EvBuild, core.EvCommOpt,
			core.EvVerify, core.EvTrain:
			if !phaseSpan(e) {
				// A journal-replayed serial baseline is an instant, not a span.
				ev(chromeEvent{Name: "serial (replayed)", Ph: "i", S: "t",
					Cat: "search", Pid: searchPid, Tid: e.Worker + 1,
					Ts:   e.Start.Microseconds(),
					Args: map[string]any{"cycles": e.Cycles}})
				continue
			}
			dur := spanMicros(e)
			ce := chromeEvent{Name: e.Kind.String(), Ph: "X", Cat: "phase",
				Pid: searchPid, Tid: e.Worker + 1, Ts: e.Start.Microseconds(), Dur: &dur}
			if e.Seq >= 0 {
				ce.Args = candArgs(e)
			}
			if e.Kind == core.EvTrain {
				if ce.Args == nil {
					ce.Args = map[string]any{}
				}
				ce.Args["cycles"] = e.Cycles
			}
			ev(ce)
		case core.EvSearchStart, core.EvSearchEnd, core.EvReplay,
			core.EvDeduped, core.EvPruned, core.EvAccept, core.EvSkip, core.EvCancel:
			ce := chromeEvent{Name: e.Kind.String(), Ph: "i", S: "t", Cat: "verdict",
				Pid: searchPid, Tid: e.Worker + 1, Ts: e.Start.Microseconds()}
			switch e.Kind {
			case core.EvSearchStart, core.EvSearchEnd:
				ce.Cat = "search"
			default:
				ce.Args = candArgs(e)
				if e.Kind == core.EvAccept || e.Kind == core.EvReplay {
					ce.Args["cycles"] = e.Cycles
				}
				if e.Skip != nil {
					ce.Args["reason"] = e.Skip.Reason.String()
				}
			}
			ev(ce)
		}
	}

	return writeChromeEvents(w, out, other)
}

// candName labels a candidate's enclosing span.
func candName(e *core.SearchEvent) string {
	if e.Phase < 0 {
		return fmt.Sprintf("cand %d static", e.Seq)
	}
	return fmt.Sprintf("cand %d %v", e.Seq, e.Subset)
}

// candArgs is the candidate identity attached to its trace events; fp links
// to the candidate's sim-level telemetry trace.
func candArgs(e *core.SearchEvent) map[string]any {
	return map[string]any{
		"seq":   e.Seq,
		"phase": e.Phase,
		"fp":    e.FP,
	}
}

// Sim-level track numbering: one process per core (pid = core+1), one thread
// track per stage (tid = stage index+1) and per RA (tid = raTidBase+RA index).
const raTidBase = 1001

// WriteChromeTrace writes the run as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto: one track per stage thread (activity spans
// classified run/queue/backend/other, handler-fire instants) and one
// counter track per RA (in-flight window occupancy, sampled at interval
// boundaries). Output is deterministic for a given run.
func (c *SimCollector) WriteChromeTrace(w io.Writer) error {
	other := map[string]any{
		"cycles":       c.endCycle,
		"handlerFires": c.handlerN,
	}
	for k, v := range c.meta {
		other[k] = v
	}
	var events []chromeEvent
	ev := func(e chromeEvent) { events = append(events, e) }

	// Metadata: name processes (cores) and thread tracks (stages, RAs).
	seenCore := map[int]bool{}
	proc := func(core int) {
		if !seenCore[core] {
			seenCore[core] = true
			ev(trackName(core+1, 0, fmt.Sprintf("core %d", core)))
		}
	}
	for i, st := range c.stages {
		proc(st.core)
		ev(trackName(st.core+1, i+1, fmt.Sprintf("stage %s (t%d)", st.name, st.slot)))
	}
	for j, ra := range c.ras {
		proc(ra.core)
		ev(trackName(ra.core+1, raTidBase+j, "RA "+ra.name))
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
		ev(chromeEvent{Name: name, Ph: "X", Cat: "stage",
			Pid: st.core + 1, Tid: sp.thread + 1, Ts: int64(sp.start), Dur: &dur})
	}

	// Handler-fire instants on the firing stage's track.
	for _, in := range c.instants {
		st := c.stages[in.thread]
		ev(chromeEvent{Name: "handler fire", Ph: "i", S: "t", Cat: "handler",
			Pid: st.core + 1, Tid: in.thread + 1, Ts: int64(in.at),
			Args: map[string]any{"pc": in.pc}})
	}

	// RA in-flight counters from the sampled time-series.
	for _, row := range c.rows {
		for j, n := range row.RAInflight {
			ra := c.ras[j]
			ev(chromeEvent{Name: "RA " + ra.name + " inflight", Ph: "C",
				Pid: ra.core + 1, Tid: raTidBase + j, Ts: int64(row.Cycle),
				Args: map[string]any{"inflight": n}})
		}
	}

	return writeChromeEvents(w, events, other)
}
