package obs_test

// Chrome search-trace export tests, mirroring the sim-level trace checks in
// sim_test.go: the JSON must be loadable, every
// span must live on a named worker track, candidate spans must contain their
// phase sub-spans, and — the acceptance criterion — per-phase span totals in
// the trace must reconcile exactly with the Metrics per-phase aggregates.

import (
	"bytes"
	"encoding/json"
	"testing"

	"phloem/internal/core"
	"phloem/internal/obs"
	"phloem/internal/workloads"
)

type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   int64          `json:"ts"`
		Dur  *int64         `json:"dur"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

func collectAutotune(t *testing.T, par int) *obs.SearchCollector {
	t.Helper()
	col := obs.NewSearchCollector()
	opt := autotuneOpts(par)
	opt.Observer = col
	if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
		t.Fatal(err)
	}
	return col
}

func decodeTrace(t *testing.T, col *obs.SearchCollector) *traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return &tf
}

func TestChromeSearchTraceWellFormed(t *testing.T) {
	col := collectAutotune(t, 4)
	tf := decodeTrace(t, col)
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	if tf.OtherData["mode"] != "autotune" {
		t.Errorf("otherData.mode = %v, want autotune", tf.OtherData["mode"])
	}

	named := map[int]bool{} // tids with thread_name metadata
	type span struct{ ts, end int64 }
	cands := map[[2]any]span{} // (tid, seq) -> candidate enclosing span
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[e.Tid] = true
			}
			continue
		case "X":
			if e.Dur == nil {
				t.Fatalf("X event %q has no dur", e.Name)
			}
			if *e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("X event %q: negative ts/dur (%d, %d)", e.Name, e.Ts, *e.Dur)
			}
		case "i":
		default:
			t.Fatalf("unexpected phase %q on %q", e.Ph, e.Name)
		}
		if e.Pid != 1 {
			t.Errorf("event %q on pid %d, want 1", e.Name, e.Pid)
		}
		if !named[e.Tid] {
			t.Errorf("event %q on unnamed track tid %d", e.Name, e.Tid)
		}
		if e.Cat == "candidate" {
			if e.Args["fp"] == "" || e.Args["fp"] == nil {
				t.Errorf("candidate span %q missing fp arg", e.Name)
			}
			cands[[2]any{e.Tid, e.Args["seq"]}] = span{e.Ts, e.Ts + *e.Dur}
		}
	}

	// Every candidate-attributed phase sub-span is contained in its
	// candidate's enclosing span on the same track.
	subs := 0
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Cat != "phase" || e.Args["seq"] == nil {
			continue
		}
		subs++
		c, ok := cands[[2]any{e.Tid, e.Args["seq"]}]
		if !ok {
			t.Errorf("phase span %q (seq %v, tid %d) has no enclosing candidate span", e.Name, e.Args["seq"], e.Tid)
			continue
		}
		if e.Ts < c.ts || e.Ts+*e.Dur > c.end {
			t.Errorf("phase span %q [%d,%d] escapes candidate span [%d,%d]",
				e.Name, e.Ts, e.Ts+*e.Dur, c.ts, c.end)
		}
	}
	if len(cands) == 0 || subs == 0 {
		t.Fatalf("trace has %d candidate spans and %d phase sub-spans; want both > 0", len(cands), subs)
	}
}

// TestTraceMetricsReconcile is the acceptance criterion: summing the trace's
// per-phase span durations reproduces the Metrics per-phase micros exactly.
func TestTraceMetricsReconcile(t *testing.T) {
	col := collectAutotune(t, 4)
	tf := decodeTrace(t, col)
	m := col.Metrics()

	traced := map[string]struct {
		count int
		total int64
	}{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Cat != "phase" {
			continue
		}
		agg := traced[e.Name]
		agg.count++
		agg.total += *e.Dur
		traced[e.Name] = agg
	}
	if len(m.Phases) == 0 {
		t.Fatal("no phase aggregates")
	}
	for _, p := range m.Phases {
		got := traced[p.Name]
		if got.count != p.Count {
			t.Errorf("phase %s: %d trace spans, metrics count %d", p.Name, got.count, p.Count)
		}
		if got.total != p.TotalMicros {
			t.Errorf("phase %s: trace dur total %d micros, metrics total %d", p.Name, got.total, p.TotalMicros)
		}
		delete(traced, p.Name)
	}
	for name := range traced {
		t.Errorf("trace has phase spans %q with no metrics aggregate", name)
	}
}

// TestSearchChromeTraceGolden pins the search trace's bytes: fixtureEvents
// has fixed offsets, so the export is deterministic.
func TestSearchChromeTraceGolden(t *testing.T) {
	col := obs.NewSearchCollector()
	for _, e := range fixtureEvents() {
		col.Observe(e)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "search_trace.json", buf.Bytes())
}
