package obs_test

// The observability contract: with no Observer the search takes no
// timestamps and produces byte-identical output (winner, counters, skips,
// SearchPoints, journal bytes) at every Parallelism; with one installed the
// event stream is purely additive, canonical at Parallelism 1, and its
// merger verdicts are in enumeration order at every Parallelism.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

func bfsTrainer(g *graph.CSR) core.TrainFunc {
	return func(p *pipeline.Pipeline, b core.Budget) (uint64, error) {
		inst, err := pipeline.Instantiate(p, arch.DefaultConfig(1), workloads.BFSBindings(g, 0))
		if err != nil {
			return 0, err
		}
		b.Apply(inst.Machine)
		st, err := inst.Run()
		if err != nil {
			return 0, err
		}
		if err := workloads.BFSVerify(inst, g, 0); err != nil {
			return 0, err
		}
		return st.Cycles, nil
	}
}

func autotuneOpts(par int) core.Options {
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = []core.TrainFunc{bfsTrainer(graph.Grid("t", 14, 14, 5))}
	opt.Parallelism = par
	return opt
}

// renderResult flattens everything observable about an autotune Result.
func renderResult(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%q stages=%d cycles=%d searched=%d deduped=%d enum=%d pruned=%d\n",
		res.Pipeline.Description, res.Pipeline.NumStages(), res.TrainCycles,
		res.Searched, res.Deduped, res.Enumerated, res.Pruned)
	for _, s := range res.Skips {
		fmt.Fprintf(&b, "skip phase=%d subset=%v reason=%s err=%v\n", s.Phase, s.Subset, s.Reason, s.Err)
	}
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "point stages=%d cycles=%d subset=%v pred=%d rank=%d skip=%v\n",
			pt.TotalStages, pt.Cycles, pt.Subset, pt.PredictedCycles, pt.PredictedRank, pt.Skip != nil)
	}
	return b.String()
}

// TestObserverNilBitIdentity pins the zero-overhead contract: at every
// Parallelism, an autotune with a SearchCollector installed returns exactly the
// result — and writes exactly the journal bytes — of one with Observer nil.
func TestObserverNilBitIdentity(t *testing.T) {
	run := func(par int, observe bool) (string, []byte) {
		opt := autotuneOpts(par)
		opt.Checkpoint = filepath.Join(t.TempDir(), "journal.jsonl")
		var col *obs.SearchCollector
		if observe {
			col = obs.NewSearchCollector()
			opt.Observer = col
		}
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatalf("par %d observe %v: %v", par, observe, err)
		}
		if observe && col.Len() == 0 {
			t.Fatalf("par %d: installed SearchCollector saw no events", par)
		}
		jb, err := os.ReadFile(opt.Checkpoint)
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		return renderResult(res), jb
	}
	wantRes, wantJournal := run(1, false)
	for _, par := range []int{1, 4, 0} {
		for _, observe := range []bool{false, true} {
			gotRes, gotJournal := run(par, observe)
			if gotRes != wantRes {
				t.Errorf("par %d observe %v: result differs\n--- want\n%s--- got\n%s",
					par, observe, wantRes, gotRes)
			}
			if string(gotJournal) != string(wantJournal) {
				t.Errorf("par %d observe %v: journal bytes differ", par, observe)
			}
		}
	}
}

// renderEvent flattens one event, masking wall-time offsets (which vary run
// to run) but keeping everything else, including span-vs-instant shape.
func renderEvent(e core.SearchEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seq=%d phase=%d subset=%v fp=%q worker=%d", e.Kind, e.Seq, e.Phase, e.Subset, e.FP, e.Worker)
	if e.End > e.Start {
		b.WriteString(" span")
	}
	if e.Cycles != 0 {
		fmt.Fprintf(&b, " cycles=%d", e.Cycles)
	}
	if e.Dup {
		b.WriteString(" dup")
	}
	if e.Replayed {
		b.WriteString(" replayed")
	}
	if e.Pred != 0 {
		fmt.Fprintf(&b, " pred=%d rank=%d", e.Pred, e.PredRank)
	}
	if e.Skip != nil {
		fmt.Fprintf(&b, " skip=%s", e.Skip.Reason)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " err=%v", e.Err)
	}
	if e.Mode != "" {
		fmt.Fprintf(&b, " mode=%s", e.Mode)
	}
	if e.N != 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	return b.String()
}

func renderEvents(events []core.SearchEvent) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(renderEvent(e))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEventStreamDeterministicSerial pins the canonical stream: at
// Parallelism 1 two identical searches emit identical event sequences
// (timestamps masked), and the stream is well-formed (search-start first,
// search-end last, spans non-negative).
func TestEventStreamDeterministicSerial(t *testing.T) {
	run := func() []core.SearchEvent {
		col := obs.NewSearchCollector()
		opt := autotuneOpts(1)
		opt.Observer = col
		if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
			t.Fatal(err)
		}
		return col.Events()
	}
	a, b := run(), run()
	ra, rb := renderEvents(a), renderEvents(b)
	if ra != rb {
		t.Errorf("serial event streams differ across runs:\n--- first\n%s--- second\n%s", ra, rb)
	}
	if len(a) == 0 {
		t.Fatal("no events")
	}
	if a[0].Kind != core.EvSearchStart {
		t.Errorf("first event %s, want search-start", a[0].Kind)
	}
	if last := a[len(a)-1]; last.Kind != core.EvSearchEnd {
		t.Errorf("last event %s, want search-end", last.Kind)
	}
	for i, e := range a {
		if e.End < e.Start {
			t.Errorf("event %d (%s): End %v < Start %v", i, e.Kind, e.End, e.Start)
		}
		if e.Worker != 0 {
			t.Errorf("event %d (%s): worker %d in a serial run", i, e.Kind, e.Worker)
		}
	}
}

// verdictKinds are the merger-emitted per-candidate outcomes.
func isVerdict(k core.EventKind) bool {
	switch k {
	case core.EvDeduped, core.EvPruned, core.EvAccept, core.EvSkip, core.EvCancel:
		return true
	}
	return false
}

// TestVerdictsEnumerationOrdered pins the merger contract at Parallelism 4:
// whatever the worker interleaving, verdict events arrive strictly in
// enumeration order and cover every enumerated candidate exactly once.
func TestVerdictsEnumerationOrdered(t *testing.T) {
	col := obs.NewSearchCollector()
	opt := autotuneOpts(4)
	opt.Observer = col
	if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
		t.Fatal(err)
	}
	enumerated, verdicts := 0, 0
	lastSeq := -1
	for _, e := range col.Events() {
		if e.Kind == core.EvEnumerated {
			enumerated++
		}
		if isVerdict(e.Kind) {
			if e.Seq != lastSeq+1 {
				t.Errorf("verdict %s seq=%d after seq=%d: not enumeration order", e.Kind, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			verdicts++
			if e.Worker != 0 {
				t.Errorf("verdict %s seq=%d attributed to worker %d, want merger (0)", e.Kind, e.Seq, e.Worker)
			}
		}
	}
	if verdicts == 0 || verdicts != enumerated {
		t.Errorf("%d verdicts for %d enumerated candidates", verdicts, enumerated)
	}
}

// TestSearchEventsAndPoints smoke-tests the Search flow: an installed
// SearchCollector sees a "search"-mode stream whose verdict count matches the
// returned points, and the points themselves are unchanged by observation.
func TestSearchEventsAndPoints(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	opt := autotuneOpts(1)
	base, err := core.Search(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewSearchCollector()
	opt.Observer = col
	got, err := core.Search(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("observed Search returned %d points, unobserved %d", len(got), len(base))
	}
	verdicts := 0
	mode := ""
	for _, e := range col.Events() {
		if e.Kind == core.EvSearchStart {
			mode = e.Mode
		}
		if isVerdict(e.Kind) {
			verdicts++
		}
	}
	if mode != "search" {
		t.Errorf("mode %q, want search", mode)
	}
	if verdicts != len(base) {
		t.Errorf("%d verdicts, want %d (one per point)", verdicts, len(base))
	}
}

// TestStaticCompileEvents: the static flow emits the minimal stream —
// search-start, a build span, a verify span, search-end.
func TestStaticCompileEvents(t *testing.T) {
	col := obs.NewSearchCollector()
	opt := core.DefaultOptions()
	opt.Observer = col
	if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
		t.Fatal(err)
	}
	kinds := map[core.EventKind]int{}
	for _, e := range col.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []core.EventKind{core.EvSearchStart, core.EvBuild, core.EvVerify, core.EvSearchEnd} {
		if kinds[want] == 0 {
			t.Errorf("static compile emitted no %s event", want)
		}
	}
	m := obs.Aggregate(col.Events())
	if m.Mode != "static" {
		t.Errorf("mode %q, want static", m.Mode)
	}
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s mismatch (re-run with -update if intended):\n--- want\n%s--- got\n%s",
			name, want, got)
	}
}
