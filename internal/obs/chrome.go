package obs

import (
	"fmt"
	"io"
	"sort"

	"phloem/internal/core"
	"phloem/internal/telemetry"
)

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
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := c.Events()
	m := Aggregate(events)
	other := map[string]any{
		"mode":       m.Mode,
		"enumerated": m.Enumerated,
		"unique":     m.Unique,
		"bestCycles": m.BestCycles,
		"replayed":   m.ReplayedTotal,
	}
	var out []telemetry.ChromeEvent
	ev := func(e telemetry.ChromeEvent) { out = append(out, e) }

	ev(telemetry.ChromeEvent{Name: "process_name", Ph: "M", Pid: searchPid,
		Args: map[string]any{"name": fmt.Sprintf("search (%s)", m.Mode)}})
	for wkr := 0; wkr < m.Workers; wkr++ {
		name := fmt.Sprintf("worker %d", wkr)
		if wkr == 0 {
			name = "worker 0 (merger)"
		}
		ev(telemetry.ChromeEvent{Name: "thread_name", Ph: "M", Pid: searchPid, Tid: wkr + 1,
			Args: map[string]any{"name": name}})
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
		ev(telemetry.ChromeEvent{Name: candName(e), Ph: "X", Cat: "candidate",
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
				ev(telemetry.ChromeEvent{Name: "serial (replayed)", Ph: "i", S: "t",
					Cat: "search", Pid: searchPid, Tid: e.Worker + 1,
					Ts:   e.Start.Microseconds(),
					Args: map[string]any{"cycles": e.Cycles}})
				continue
			}
			dur := spanMicros(e)
			ce := telemetry.ChromeEvent{Name: e.Kind.String(), Ph: "X", Cat: "phase",
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
			ce := telemetry.ChromeEvent{Name: e.Kind.String(), Ph: "i", S: "t", Cat: "verdict",
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

	return telemetry.WriteChromeEvents(w, out, other)
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
