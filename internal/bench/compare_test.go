package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// searchFixture builds a small two-benchmark search report.
func searchFixture() *SearchReport {
	return &SearchReport{
		Header: Header{Kind: KindSearch, Scale: "test"}, TopK: 5,
		Benchmarks: []SearchRow{
			{Name: "BFS", Enumerated: 15, Searched: 15, Deduped: 1, Skipped: 12,
				BestStages: 3, BestCycles: 70000, TopKPruned: 9, TopKMeasured: 5,
				TopKCycles: 70000, TopKAgrees: true},
			{Name: "CC", Enumerated: 15, Searched: 15, Deduped: 1, Skipped: 12,
				BestStages: 3, BestCycles: 90000, TopKPruned: 9, TopKMeasured: 5,
				TopKCycles: 90000, TopKAgrees: true},
		},
	}
}

// nativeFixture builds a small native report: one seed-scale row plus a
// two-size sweep where the simulator DNFs at the larger size.
func nativeFixture() *NativeReport {
	return &NativeReport{
		Header:           Header{Kind: KindNative, Scale: "test"},
		Note:             "fixture",
		SweepCycleBudget: NativeSweepCycleBudget,
		SimDNF:           1,
		Benchmarks: []NativeRow{
			{Name: "BFS", Input: "road-usa", Stages: 4, Queues: 6,
				Cycles: 100000, Instructions: 500000},
		},
		Sweep: []NativeSweepRow{
			{Input: "grid-50x50", Vertices: 2500, Edges: 5000, SimOK: true,
				SimStatus: "ok", SimCycles: 100000, Instructions: 500000},
			{Input: "grid-400x400", Vertices: 160000, Edges: 320000,
				SimStatus: "cycle-budget", Instructions: 32000000},
		},
	}
}

// TestDiffNative: cycles and instruction counts are compared; losing sweep
// reach (sim_ok true -> false, which also drops that size's sim_cycles) and
// a DNF-count change regress; gaining it does not.
func TestDiffNative(t *testing.T) {
	if r := Regressions(Diff(nativeFixture(), nativeFixture(), DefaultDiffOptions())); len(r) != 0 {
		t.Errorf("identical native reports regressed: %+v", r)
	}

	worse := nativeFixture()
	worse.Benchmarks[0].Instructions = 800000 // +60%
	worse.Sweep[0].SimOK = false
	worse.Sweep[0].SimStatus = "cycle-budget"
	worse.SimDNF = 2
	r := Regressions(Diff(nativeFixture(), worse, DefaultDiffOptions()))
	var metrics []string
	for _, x := range r {
		metrics = append(metrics, x.Metric+" "+x.Note)
	}
	got := strings.Join(metrics, ",")
	for _, want := range []string{"instructions", "sim_ok", "sim_dnf", "sim_cycles missing"} {
		if !strings.Contains(got, want) {
			t.Errorf("want %q regression, got %v", want, r)
		}
	}

	// The simulator now finishing a size that used to DNF adds its
	// sim_cycles: a change, not a regression (sim_dnf itself still drifts).
	better := nativeFixture()
	better.Sweep[1].SimOK, better.Sweep[1].SimCycles = true, 900000
	f := Diff(nativeFixture(), better, DefaultDiffOptions())
	last := f[len(f)-1]
	if last.Metric != "sim_cycles" || last.Bench != "grid-400x400" || !last.Changed || last.Regression {
		t.Errorf("a new sim_cycles value should be a non-fatal change, got %+v", last)
	}
}

func TestDiffSearchIdentical(t *testing.T) {
	f := Diff(searchFixture(), searchFixture(), DefaultDiffOptions())
	if len(f) == 0 {
		t.Fatal("no metrics compared")
	}
	for _, x := range f {
		if x.Changed || x.Regression {
			t.Errorf("identical reports flagged %+v", x)
		}
	}
}

// TestDiffSearchInjectedRegression is the gate's core contract: a cycles
// regression beyond the threshold must be flagged, one within it must not,
// and an improvement never is.
func TestDiffSearchInjectedRegression(t *testing.T) {
	opt := DiffOptions{CyclesTolPct: 10}
	within := searchFixture()
	within.Benchmarks[0].BestCycles = 75000 // +7.1%, inside 10%
	if r := Regressions(Diff(searchFixture(), within, opt)); len(r) != 0 {
		t.Errorf("+7%% cycles within 10%% tolerance flagged as regression: %+v", r)
	}

	beyond := searchFixture()
	beyond.Benchmarks[0].BestCycles = 80000 // +14.3%
	r := Regressions(Diff(searchFixture(), beyond, opt))
	if len(r) != 1 || r[0].Metric != "best_train_cycles" || r[0].Bench != "BFS" {
		t.Fatalf("+14%% cycles should be exactly one regression, got %+v", r)
	}

	improved := searchFixture()
	improved.Benchmarks[1].BestCycles = 50000
	if r := Regressions(Diff(searchFixture(), improved, opt)); len(r) != 0 {
		t.Errorf("cycle improvement flagged as regression: %+v", r)
	}
}

func TestDiffSearchCountDrift(t *testing.T) {
	// Counts are exact by default: any drift regresses.
	drift := searchFixture()
	drift.Benchmarks[0].Enumerated = 16
	r := Regressions(Diff(searchFixture(), drift, DefaultDiffOptions()))
	if len(r) != 1 || r[0].Metric != "enumerated" {
		t.Fatalf("enumerated drift should regress, got %+v", r)
	}
	// ...unless CountTol allows it.
	opt := DiffOptions{CyclesTolPct: 10, CountTol: 2}
	if r := Regressions(Diff(searchFixture(), drift, opt)); len(r) != 0 {
		t.Errorf("drift of 1 within CountTol 2 flagged: %+v", r)
	}
}

func TestDiffSearchStructuralAndFlags(t *testing.T) {
	// topk_agrees true -> false is a regression; a missing benchmark is too.
	worse := searchFixture()
	worse.Benchmarks[0].TopKAgrees = false
	worse.Benchmarks = worse.Benchmarks[:1]
	r := Regressions(Diff(searchFixture(), worse, DefaultDiffOptions()))
	var metrics []string
	for _, x := range r {
		metrics = append(metrics, x.Metric)
	}
	got := strings.Join(metrics, ",")
	if !strings.Contains(got, "topk_agrees") || !strings.Contains(got, "structure") {
		t.Errorf("want topk_agrees + structure regressions, got %v", r)
	}
	// Scale mismatch short-circuits: nothing is comparable.
	full := searchFixture()
	full.Scale = "full"
	f := Diff(searchFixture(), full, DefaultDiffOptions())
	if len(f) != 1 || !f[0].Regression || !strings.Contains(f[0].Note, "scale mismatch") {
		t.Errorf("scale mismatch should be a single structural regression, got %+v", f)
	}
}

// TestDiffRows: a row the new report lacks, or one only it has, is one
// structural regression per row, and the findings keep report order.
func TestDiffRows(t *testing.T) {
	fewer := searchFixture()
	fewer.Benchmarks = fewer.Benchmarks[1:]
	r := Regressions(Diff(searchFixture(), fewer, DefaultDiffOptions()))
	if len(r) != 1 || r[0].Bench != "BFS" || r[0].Note != "row missing from new report" {
		t.Errorf("missing row should be one structural regression, got %+v", r)
	}
	r = Regressions(Diff(fewer, searchFixture(), DefaultDiffOptions()))
	if len(r) != 1 || r[0].Bench != "BFS" || r[0].Note != "row only in new report" {
		t.Errorf("extra row should be one structural regression, got %+v", r)
	}
}

// TestLoadReportKind: the loader reads the header's kind, so benchdiff
// needs no -kind flag, and a missing or unknown kind is an error.
func TestLoadReportKind(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sp := write("search.json", searchFixture())
	np := write("native.json", nativeFixture())
	for p, want := range map[string]Report{sp: searchFixture(), np: nativeFixture()} {
		r, err := LoadReport(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if fmt.Sprintf("%T", r) != fmt.Sprintf("%T", want) {
			t.Errorf("%s loaded as %T, want %T", p, r, want)
		}
		if f := Diff(want, r, DefaultDiffOptions()); len(f) != len(want.gated()) || len(Regressions(f)) != 0 {
			t.Errorf("%s: roundtrip diff %+v", p, f)
		}
	}
	untyped := searchFixture()
	untyped.Kind = ""
	bogus := nativeFixture()
	bogus.Kind = "bogus"
	for _, p := range []string{write("untyped.json", untyped), write("bogus.json", bogus)} {
		if _, err := LoadReport(p); err == nil || !strings.Contains(err.Error(), "report kind") {
			t.Errorf("%s: missing or unknown kind should error, got %v", p, err)
		}
	}

	// DiffReportFiles: same kind diffs, mixed kinds error.
	var buf bytes.Buffer
	for _, p := range []string{sp, np} {
		buf.Reset()
		if _, err := DiffReportFiles(&buf, p, p, DefaultDiffOptions()); err != nil {
			t.Errorf("%s self-diff: %v", p, err)
		}
		if !strings.Contains(buf.String(), "ok: no metric changes") {
			t.Errorf("%s self-diff should render clean:\n%s", p, buf.String())
		}
	}
	if _, err := DiffReportFiles(&buf, sp, np, DefaultDiffOptions()); err == nil {
		t.Error("search-vs-native diff should error")
	}
	if _, err := DiffReportFiles(&buf, np, sp, DefaultDiffOptions()); err == nil {
		t.Error("native-vs-search diff should error")
	}
}

// TestReportHeader: every report schema flattens the shared Header into
// its JSON header, and no report carries host metadata.
func TestReportHeader(t *testing.T) {
	for _, v := range []Report{searchFixture(), nativeFixture()} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		kind := v.header().Kind
		if string(m["kind"]) != `"`+kind+`"` || string(m["scale"]) != `"test"` {
			t.Errorf("%s report header wrong: %s", kind, data)
		}
		for _, key := range []string{"host", "gomaxprocs", "numcpu", "go_version", "parallelism"} {
			if _, ok := m[key]; ok {
				t.Errorf("%s report carries %q: %s", kind, key, data)
			}
		}
	}
}

func TestRenderDiffMarksRegressions(t *testing.T) {
	var buf bytes.Buffer
	beyond := searchFixture()
	beyond.Benchmarks[0].BestCycles = 80000
	RenderDiff(&buf, "t", Diff(searchFixture(), beyond, DefaultDiffOptions()))
	out := buf.String()
	if !strings.Contains(out, "! BFS.best_train_cycles") || !strings.Contains(out, "REGRESSION: 1 metric(s)") {
		t.Errorf("render missing regression marks:\n%s", out)
	}
}
