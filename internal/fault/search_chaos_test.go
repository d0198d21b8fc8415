package fault_test

// Search-layer chaos: under seeded worker panics, verifier-rejected
// sabotage, and mid-flight cancellation, the autotune search must always
// terminate with a usable pipeline, classify every lost candidate on
// Result.Skips with a structured reason, and stay byte-identical across
// Options.Parallelism for plans without a cancellation component.

import (
	"fmt"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/fault"
	"phloem/internal/graph"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

func bfsTrain(g *graph.CSR) core.TrainFunc {
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

// renderSearch flattens everything deterministic about a Result (Replayed
// and RankMillis are execution metadata and excluded by contract).
func renderSearch(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%q stages=%d cycles=%d searched=%d deduped=%d enum=%d cancelled=%v\n",
		res.Pipeline.Description, res.Pipeline.NumStages(), res.TrainCycles,
		res.Searched, res.Deduped, res.Enumerated, res.Cancelled)
	for _, s := range res.Skips {
		fmt.Fprintf(&b, "skip %s\n", s)
	}
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "point stages=%d cycles=%d subset=%v skip=%v\n",
			pt.TotalStages, pt.Cycles, pt.Subset, pt.Skip)
	}
	return b.String()
}

func searchChaosRun(t *testing.T, plan fault.SearchPlan, parallelism int, train *graph.CSR) *core.Result {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = []core.TrainFunc{bfsTrain(train)}
	opt.Parallelism = parallelism
	cancel := plan.Arm(&opt)
	defer cancel()
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatalf("%s: search did not survive: %v", plan, err)
	}
	return res
}

func TestSearchChaosTerminatesAndClassifies(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	plans := append(fault.NamedSearch(), fault.NewSearch(1), fault.NewSearch(2))
	for _, plan := range plans {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			res := searchChaosRun(t, plan, 4, train)
			if res.Pipeline == nil {
				t.Fatal("no pipeline returned")
			}
			// The winner must actually work: the (unwrapped) trainer verifies
			// results against the Go reference.
			if _, err := bfsTrain(train)(res.Pipeline, core.Budget{}); err != nil {
				t.Errorf("winning pipeline fails verification: %v", err)
			}
			// Every loss is classified with a structured reason and cause.
			panics, rejects := 0, 0
			for _, s := range res.Skips {
				if s.Err == nil {
					t.Errorf("skip %v has no cause", s)
				}
				switch s.Reason {
				case core.SkipPanic:
					panics++
				case core.SkipVerifier:
					rejects++
				case core.SkipBuild, core.SkipDeadlock, core.SkipBudget, core.SkipTrap,
					core.SkipError, core.SkipPruned, core.SkipCancelled:
				default:
					t.Errorf("unclassified skip reason %d: %v", s.Reason, s)
				}
			}
			// Accounting: every enumerated candidate is measured, deduplicated,
			// or recorded as a skip (measured-then-failed candidates appear in
			// both Searched and Skips, hence >=).
			if got := res.Searched - 1 + res.Deduped + len(res.Skips); got < res.Enumerated {
				t.Errorf("only %d of %d enumerated candidates accounted for", got, res.Enumerated)
			}
			if plan.PanicOneIn > 0 && panics == 0 {
				t.Errorf("panic plan injected no SkipPanic; skips: %v", res.Skips)
			}
			if plan.SabotageOneIn > 0 && rejects == 0 {
				t.Errorf("sabotage plan injected no SkipVerifier; skips: %v", res.Skips)
			}
			if plan.Name == "search-cancel" && !res.Cancelled {
				t.Error("cancel plan did not mark the result cancelled")
			}
		})
	}
}

func TestSearchChaosDeterministicAcrossParallelism(t *testing.T) {
	// Plans without a cancellation component must be byte-identical at every
	// Parallelism (cancellation points under parallel workers are genuinely
	// scheduling-dependent, so cancel plans are exempt — they are covered by
	// the termination/classification sweep above).
	train := graph.Grid("t", 20, 20, 7)
	for _, plan := range fault.NamedSearch() {
		if plan.CancelAfter > 0 {
			continue
		}
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			want := renderSearch(searchChaosRun(t, plan, 1, train))
			if again := renderSearch(searchChaosRun(t, plan, 1, train)); again != want {
				t.Fatalf("serial run not reproducible:\n--- first\n%s--- second\n%s", want, again)
			}
			for _, par := range []int{4, 0} {
				if got := renderSearch(searchChaosRun(t, plan, par, train)); got != want {
					t.Errorf("parallelism %d differs from serial:\n--- serial\n%s--- parallel\n%s",
						par, want, got)
				}
			}
		})
	}
}

func TestSearchPlanDeterminism(t *testing.T) {
	if fault.NewSearch(42) != fault.NewSearch(42) {
		t.Error("NewSearch(42) not deterministic")
	}
	if fault.NewSearch(1) == fault.NewSearch(2) {
		t.Error("different seeds produced identical search plans")
	}
	for _, p := range fault.NamedSearch() {
		if p.Desc == "" {
			t.Errorf("plan %s has no description", p.Name)
		}
	}
	for _, p := range fault.Named() {
		if p.Desc == "" {
			t.Errorf("timing plan %s has no description", p.Name)
		}
	}
}
