package core_test

// The concurrent search engine must be invisible: for any
// Options.Parallelism the autotuner and Search return byte-identical
// results, the fingerprint dedup reuses coinciding candidates instead of
// re-measuring them, and branch-and-bound aborts provably-losing candidates
// with SkipBudget (unless Options.Exhaustive asks for the full landscape).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// renderResult flattens everything observable about an autotune Result into
// one comparable string.
func renderResult(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%q stages=%d ras=%d queues=%d cycles=%d searched=%d deduped=%d enum=%d replicate=%d\n",
		res.Pipeline.Description, res.Pipeline.NumStages(), len(res.Pipeline.RAs),
		len(res.Pipeline.Queues), res.TrainCycles, res.Searched, res.Deduped,
		res.Enumerated, res.ReplicateRequested)
	for _, s := range res.Skips {
		fmt.Fprintf(&b, "skip phase=%d subset=%v reason=%s err=%v\n", s.Phase, s.Subset, s.Reason, s.Err)
	}
	return b.String()
}

// renderPoints flattens Search output the same way.
func renderPoints(points []core.SearchPoint) string {
	var b strings.Builder
	for _, pt := range points {
		fmt.Fprintf(&b, "stages=%d cycles=%d subset=%v", pt.TotalStages, pt.Cycles, pt.Subset)
		if pt.Skip != nil {
			fmt.Fprintf(&b, " skip phase=%d reason=%s err=%v", pt.Skip.Phase, pt.Skip.Reason, pt.Skip.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// verdictLog records the merger's verdict events, which the Observer
// contract emits in enumeration order at every Parallelism.
type verdictLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (v *verdictLog) Observe(e core.SearchEvent) {
	switch e.Kind {
	case core.EvDeduped, core.EvPruned, core.EvAccept, core.EvSkip, core.EvCancel:
		v.mu.Lock()
		fmt.Fprintf(&v.b, "%s seq=%d cycles=%d skip=%v\n", e.Kind, e.Seq, e.Cycles, e.Skip)
		v.mu.Unlock()
	}
}

func TestAutotuneParallelismDeterministic(t *testing.T) {
	train := graph.Grid("t", 24, 24, 9)
	run := func(parallelism int) (string, string) {
		verdicts := &verdictLog{}
		opt := core.DefaultOptions()
		opt.Mode = core.Autotune
		opt.Training = []core.TrainFunc{bfsTrainer(train)}
		opt.Parallelism = parallelism
		opt.Observer = verdicts
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return renderResult(res), verdicts.b.String()
	}
	wantRes, wantVerdicts := run(1)
	if !strings.Contains(wantVerdicts, "accept") || !strings.Contains(wantVerdicts, "deduped") {
		t.Fatalf("serial run emitted no accept or deduped verdicts:\n%s", wantVerdicts)
	}
	for _, par := range []int{2, 3, 4, 8, 0} {
		gotRes, gotVerdicts := run(par)
		if gotRes != wantRes {
			t.Errorf("parallelism %d result differs from serial:\n--- serial\n%s--- parallel\n%s",
				par, wantRes, gotRes)
		}
		if gotVerdicts != wantVerdicts {
			t.Errorf("parallelism %d verdict events differ from serial:\n--- serial\n%s--- parallel\n%s",
				par, wantVerdicts, gotVerdicts)
		}
	}
}

func TestSearchParallelismDeterministic(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid("s", 16, 16, 4)
	run := func(parallelism int) string {
		opt := core.DefaultOptions()
		opt.Training = []core.TrainFunc{bfsTrainer(g)}
		opt.Parallelism = parallelism
		points, err := core.Search(p, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return renderPoints(points)
	}
	want := run(1)
	for _, par := range []int{2, 4, 8, 0} {
		if got := run(par); got != want {
			t.Errorf("parallelism %d search points differ from serial:\n--- serial\n%s--- parallel\n%s",
				par, want, got)
		}
	}
}

// TestAutotuneDedupSkipsCoincidingCandidates pins the fixed redundancy: the
// static pipeline's configuration reappears in the per-phase enumeration
// (the static cut is itself a subset of the top-ranked points), and before
// fingerprint dedup it was built and measured twice.
func TestAutotuneDedupSkipsCoincidingCandidates(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	trainCalls := 0
	counting := func(p *pipeline.Pipeline, b core.Budget) (uint64, error) {
		trainCalls++
		return bfsTrainer(train)(p, b)
	}
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = []core.TrainFunc{counting}
	opt.Parallelism = 1 // serial so trainCalls needs no synchronization
	opt.Exhaustive = true
	opt.BudgetFactor = -1 // unbudgeted: every built candidate measures fully
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped < 1 {
		t.Fatalf("expected the static configuration to be deduplicated against the enumeration, Deduped=%d", res.Deduped)
	}
	// Every measured pipeline ran the single training input exactly once:
	// deduplicated candidates reused the memoized measurement.
	if trainCalls != res.Searched {
		t.Errorf("%d training runs for %d searched pipelines: dedup should measure each configuration once",
			trainCalls, res.Searched)
	}
	t.Logf("searched=%d deduped=%d skips=%d trainCalls=%d", res.Searched, res.Deduped, len(res.Skips), trainCalls)
}

// injectSlowdown makes every two-stage candidate finish, but only after a
// long, pointless spin: it re-stores an element it just loaded `iters`
// times, so the pipeline's result stays correct while its cycle count
// inflates by a few times the serial baseline. Under branch-and-bound the
// tightened bound (the best total so far) aborts these candidates with
// SkipBudget; under Options.Exhaustive they run to completion inside the
// full BudgetFactor budget.
func injectSlowdown(iters int64) func(*pipeline.Pipeline) {
	return func(pl *pipeline.Pipeline) {
		if pl.NumStages() != 2 {
			return
		}
		// The hook runs on a per-candidate program clone, so appending a
		// counter variable is safe even with concurrent workers.
		v := pl.Prog.NewVar("slowspin", ir.KInt)
		tmp := pl.Prog.NewVar("slowtmp", ir.KInt)
		// Loop.Pre runs every iteration (the back-edge re-enters before it),
		// so the countdown init must precede the loop statement itself.
		init := &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpMov, A: ir.C(iters)}}
		spin := &ir.Loop{
			ID:   9902,
			Cond: ir.V(v),
			Body: []ir.Stmt{
				&ir.Assign{Dst: tmp, Src: &ir.RvalLoad{LoadID: 9902, Slot: 0, Idx: ir.C(0)}},
				&ir.Store{StoreID: 9902, Slot: 0, Idx: ir.C(0), Val: ir.V(tmp)},
				&ir.Assign{Dst: v, Src: &ir.RvalBin{Op: ir.OpSub, A: ir.V(v), B: ir.C(1)}},
			},
		}
		st := pl.Stages[0]
		st.Body = append([]ir.Stmt{init, spin}, st.Body...)
	}
}

func TestBranchAndBoundAbortsSlowCandidates(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	serialCycles, err := bfsTrainer(train)(pipeline.NewSerial(p), core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	base := func() core.Options {
		opt := core.DefaultOptions()
		opt.Mode = core.Autotune
		opt.Training = []core.TrainFunc{bfsTrainer(train)}
		// Each spin iteration costs several cycles (and several trace
		// entries), so serial/8 iterations put the slowed candidates a
		// little past the serial baseline — over the tightened bound (the
		// best so far is never worse than serial), comfortably inside the
		// DefaultBudgetFactor cycle budget and the functional trace cap.
		opt.PostBuild = injectSlowdown(int64(serialCycles) / 8)
		opt.SkipVerify = true // the injected spin is not verifier-clean
		return opt
	}

	res, err := core.Compile(p, base())
	if err != nil {
		t.Fatal(err)
	}
	budgetSkips := 0
	for _, s := range res.Skips {
		if s.Reason == core.SkipBudget {
			budgetSkips++
		}
	}
	if budgetSkips == 0 {
		t.Fatalf("branch-and-bound did not abort any slowed candidate; skips: %v", res.Skips)
	}
	if res.Pipeline.NumStages() == 2 {
		t.Error("autotune picked a deliberately slowed pipeline")
	}

	// The same candidates complete when tightening is off: the aborts above
	// came from the best-so-far bound, not from the base budget.
	exOpt := base()
	exOpt.Exhaustive = true
	exRes, err := core.Compile(p, exOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range exRes.Skips {
		if s.Reason == core.SkipBudget {
			t.Errorf("exhaustive search still budget-aborted %v: %v", s.Subset, s.Err)
		}
	}
	if exRes.Searched <= res.Searched-budgetSkips {
		t.Errorf("exhaustive search should measure at least the aborted candidates: %d vs %d (with %d aborts)",
			exRes.Searched, res.Searched, budgetSkips)
	}
	t.Logf("default: searched=%d budgetSkips=%d; exhaustive: searched=%d",
		res.Searched, budgetSkips, exRes.Searched)
}
