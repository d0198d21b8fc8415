package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// bfsSetup compiles the BFS benchmark's static pipeline once for the whole
// test file; every test instantiates its own machine from it.
var bfsSetup = sync.OnceValues(func() (*bfsEnv, error) {
	bench, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		return nil, err
	}
	prog, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		return nil, err
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &bfsEnv{bench: bench, pipe: res.Pipeline}, nil
})

type bfsEnv struct {
	bench *workloads.Benchmark
	pipe  *pipeline.Pipeline
}

// runBFS executes the BFS pipeline on its smallest test input with the given
// probe installed (nil: unobserved run) and returns the run's Stats.
func runBFS(t *testing.T, probe sim.Probe, interval uint64) *sim.Stats {
	t.Helper()
	env, err := bfsSetup()
	if err != nil {
		t.Fatalf("BFS setup: %v", err)
	}
	in := env.bench.Test[0]
	inst, err := pipeline.Instantiate(env.pipe, arch.DefaultConfig(1), in.Bind())
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	inst.Machine.Probe = probe
	inst.Machine.Cfg.TelemetryInterval = interval
	st, err := inst.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := in.Verify(inst); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return st
}

// TestProbeDoesNotPerturbStats: installing a collector must not change any
// timing result — the acceptance bar for "observation only".
func TestProbeDoesNotPerturbStats(t *testing.T) {
	bare := runBFS(t, nil, 0)
	col := obs.NewSimCollector()
	observed := runBFS(t, col, 500)
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("probe changed Stats:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestProfileReconciles: the profile's cycle totals must equal the run's
// breakdown exactly — every classified core-cycle is attributed somewhere.
func TestProfileReconciles(t *testing.T) {
	col := obs.NewSimCollector()
	st := runBFS(t, col, 0)
	p := col.Profile()
	if got, want := p.Total, st.TotalBreakdown(); got != want {
		t.Errorf("Profile.Total = %+v, want Stats.TotalBreakdown() = %+v", got, want)
	}
	var lines sim.Breakdown
	for _, l := range p.Lines {
		lines.Add(sim.Breakdown{Issue: l.Issue, Backend: l.Backend, Queue: l.Queue, Other: l.Other})
	}
	lines.Add(p.Unattributed)
	if lines != p.Total {
		t.Errorf("per-line sums %+v != Total %+v", lines, p.Total)
	}
	// EndTiming closed the final window at the run's end cycle.
	if rows := col.Series().Rows; len(rows) == 0 || rows[len(rows)-1].Cycle != st.Cycles {
		t.Errorf("series does not end at the run's %d cycles: %d rows", st.Cycles, len(rows))
	}
}

func TestProfileRender(t *testing.T) {
	p := &obs.Profile{
		Lines: []obs.LineStat{
			{Line: 3, Queue: 90, Issue: 10, Uops: 40, Stages: []string{"k.stage0"}},
			{Line: 0, Backend: 5, Issue: 2, Uops: 9, Stages: []string{"k.stage1"}},
		},
		Total:        sim.Breakdown{Issue: 12, Backend: 5, Queue: 90, Other: 3},
		Unattributed: sim.Breakdown{Other: 3},
	}
	out := p.Render(10, "line one\nline two\n  while (work) pop();\n")
	for _, want := range []string{
		"hot lines: 110 core-cycles observed (12 issue, 98 stall)",
		"line 3",
		"|   while (work) pop();",
		"generated",
		"unattributed: 3 cycles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Top-k cutoff: k=1 shows only the hottest line.
	if out := p.Render(1, ""); strings.Contains(out, "generated") {
		t.Errorf("k=1 render shows second line:\n%s", out)
	}
}

// TestSeriesAccounting: interval rows must tile the run — per-row deltas sum
// to the end-of-run counters, rows close at interval boundaries, and queue
// window stats are internally consistent.
func TestSeriesAccounting(t *testing.T) {
	const interval = 500
	col := obs.NewSimCollector()
	st := runBFS(t, col, interval)
	s := col.Series()
	if len(s.Stages) == 0 || len(s.Queues) == 0 || len(s.RAs) == 0 {
		t.Fatalf("series shape: stages=%v queues=%v ras=%v", s.Stages, s.Queues, s.RAs)
	}
	if len(s.Rows) < 2 {
		t.Fatalf("expected multiple sample rows, got %d (cycles=%d)", len(s.Rows), st.Cycles)
	}
	// Samples fire at the first simulated cycle at or after each interval
	// boundary (idle fast-forward can skip over boundaries), so rows are
	// strictly increasing and there is at most one row per boundary.
	if max := int(st.Cycles/interval) + 1; len(s.Rows) > max {
		t.Errorf("%d rows for a %d-cycle run at interval %d (max %d)",
			len(s.Rows), st.Cycles, interval, max)
	}
	var cyc, issued, raLoads uint64
	for i, r := range s.Rows {
		cyc += r.Delta.Cycles
		issued += r.Delta.Issued
		raLoads += r.Delta.RALoads
		if i > 0 && r.Cycle <= s.Rows[i-1].Cycle {
			t.Errorf("row %d closes at cycle %d, not after row %d (%d)",
				i, r.Cycle, i-1, s.Rows[i-1].Cycle)
		}
		if len(r.Queues) != len(s.Queues) || len(r.RAInflight) != len(s.RAs) {
			t.Fatalf("row %d shape mismatch", i)
		}
		for q, qs := range r.Queues {
			if qs.Min > qs.Max || qs.Avg < float64(qs.Min) || qs.Avg > float64(qs.Max) {
				t.Errorf("row %d queue %d inconsistent window: %+v", i, q, qs)
			}
		}
	}
	if s.Rows[len(s.Rows)-1].Cycle != st.Cycles {
		t.Errorf("last row closes at %d, want end cycle %d", s.Rows[len(s.Rows)-1].Cycle, st.Cycles)
	}
	if cyc != st.Cycles || issued != st.Issued || raLoads != st.RALoads {
		t.Errorf("row deltas sum to cycles=%d issued=%d raloads=%d, want %d/%d/%d",
			cyc, issued, raLoads, st.Cycles, st.Issued, st.RALoads)
	}
}

func TestSeriesExports(t *testing.T) {
	col := obs.NewSimCollector()
	runBFS(t, col, 1000)
	s := col.Series()

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != len(s.Rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(s.Rows))
	}
	if !strings.HasPrefix(lines[0], "cycle,dcycles,dissued,") {
		t.Errorf("CSV header: %q", lines[0])
	}
	cols := strings.Count(lines[0], ",")
	for i, ln := range lines[1:] {
		if strings.Count(ln, ",") != cols {
			t.Errorf("CSV row %d has ragged columns: %q", i, ln)
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back obs.Series
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("series JSON does not parse: %v", err)
	}
	if len(back.Rows) != len(s.Rows) || !reflect.DeepEqual(back.Queues, s.Queues) {
		t.Errorf("JSON round-trip lost data: %d rows, queues %v", len(back.Rows), back.Queues)
	}
}

// TestChromeTraceWellFormed: the export must parse as trace_event JSON with
// one named track per stage and per RA, and every span within the run.
func TestChromeTraceWellFormed(t *testing.T) {
	col := obs.NewSimCollector()
	st := runBFS(t, col, 1000)
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	s := col.Series()
	stageTracks, raTracks, spans, instants := 0, 0, 0, 0
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" {
				continue
			}
			name, _ := e.Args["name"].(string)
			switch {
			case strings.HasPrefix(name, "stage "):
				stageTracks++
			case strings.HasPrefix(name, "RA "):
				raTracks++
			default:
				t.Errorf("unclassified thread track %q", name)
			}
		case "X":
			spans++
			if e.Ts+e.Dur > st.Cycles+1 {
				t.Errorf("span %q ends at %d, past end cycle %d", e.Name, e.Ts+e.Dur, st.Cycles)
			}
			if e.Dur == 0 {
				t.Errorf("zero-duration span %q at %d", e.Name, e.Ts)
			}
		case "i":
			instants++
		}
		if e.Pid <= 0 {
			t.Errorf("event %q has pid %d", e.Name, e.Pid)
		}
	}
	if stageTracks != len(s.Stages) || raTracks != len(s.RAs) {
		t.Errorf("tracks: %d stage + %d RA, want %d + %d",
			stageTracks, raTracks, len(s.Stages), len(s.RAs))
	}
	if spans == 0 {
		t.Error("no activity spans")
	}
	if uint64(instants) != st.HandlerFires {
		t.Errorf("%d handler instants, want %d", instants, st.HandlerFires)
	}
	if cyc, ok := tr.OtherData["cycles"].(float64); !ok || uint64(cyc) != st.Cycles {
		t.Errorf("otherData cycles = %v, want %d", tr.OtherData["cycles"], st.Cycles)
	}
}

// TestExportsDeterministic: two identical runs must export byte-identical
// artifacts — the guard that sim-level telemetry is a pure function of the simulation.
func TestExportsDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		col := obs.NewSimCollector()
		runBFS(t, col, 500)
		var csv, chrome bytes.Buffer
		if err := col.Series().WriteCSV(&csv); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if err := col.WriteChromeTrace(&chrome); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return csv.String(), chrome.String(), col.Profile().Render(10, "")
	}
	csv1, chrome1, prof1 := render()
	csv2, chrome2, prof2 := render()
	if csv1 != csv2 {
		t.Error("CSV series differs between identical runs")
	}
	if chrome1 != chrome2 {
		t.Error("chrome trace differs between identical runs")
	}
	if prof1 != prof2 {
		t.Error("profile report differs between identical runs")
	}
}

// TestSimExportsGolden pins the bytes of every sim-level export of one BFS
// run (Test[0], interval 5000): the series CSV and the hot-lines report
// verbatim, the series JSON and the Chrome trace by SHA-256 digest.
func TestSimExportsGolden(t *testing.T) {
	col := obs.NewSimCollector()
	runBFS(t, col, 5000)
	env, _ := bfsSetup()

	var csv, js, chrome bytes.Buffer
	if err := col.Series().WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := col.Series().WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := col.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	golden(t, "bfs_series.csv", csv.Bytes())
	golden(t, "bfs_profile.txt", []byte(col.Profile().Render(10, env.bench.SerialSource)))
	digests := fmt.Sprintf("series.json %x\nchrome.json %x\n",
		sha256.Sum256(js.Bytes()), sha256.Sum256(chrome.Bytes()))
	golden(t, "bfs_exports.sha256", []byte(digests))
}
