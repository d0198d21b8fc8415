package passes_test

import (
	"testing"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/graph"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

func buildBFSWith(t *testing.T, opt passes.Options) *pipeline.Pipeline {
	t.Helper()
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.New(p)
	cands := an.Candidates(analysis.ProgramPhases(p.Body)[0])
	var movable []*analysis.Candidate
	for _, c := range cands {
		if !c.PrefetchOnly {
			movable = append(movable, c)
		}
	}
	pipe, err := passes.Build(p, [][]*analysis.Candidate{analysis.OrderPoints(movable)},
		opt, defaultBuildConfig())
	if err != nil {
		t.Fatalf("[%s]: %v", opt, err)
	}
	return pipe
}

// TestPassesReduceInstructionCounts checks the property behind Fig. 6: each
// added pass removes dynamic work — DCE removes unneeded markers, handlers
// remove per-item checks, RAs take the loads off the threads entirely.
func TestPassesReduceInstructionCounts(t *testing.T) {
	g := graph.Grid("grid", 32, 32, 7)
	ladder := []struct {
		name string
		opt  passes.Options
	}{
		{"CV", passes.Options{Recompute: true, CtrlValues: true}},
		{"CV+DCE", passes.Options{Recompute: true, CtrlValues: true, InterstageDCE: true}},
		{"CV+DCE+CH", passes.Options{Recompute: true, CtrlValues: true, InterstageDCE: true, Handlers: true}},
		{"full (RA)", passes.Default()},
	}
	var prev uint64
	for i, cfg := range ladder {
		pipe := buildBFSWith(t, cfg.opt)
		inst, err := pipeline.Instantiate(pipe, arch.DefaultConfig(1), workloads.BFSBindings(g, 0))
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		st, err := inst.Run()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if err := workloads.BFSVerify(inst, g, 0); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		t.Logf("%-12s %8d uops %8d cycles", cfg.name, st.Issued, st.Cycles)
		if i > 0 && st.Issued >= prev {
			t.Errorf("%s should run fewer micro-ops than the previous config (%d >= %d)",
				cfg.name, st.Issued, prev)
		}
		prev = st.Issued
	}
}

// TestGlueElisionChainsRAs: the full BFS pipeline must contain a chained RA
// pair (one RA's output queue is another's input) and no forwarding-only
// thread stage.
func TestGlueElisionChainsRAs(t *testing.T) {
	pipe := buildBFSWith(t, passes.Default())
	chained := false
	for _, a := range pipe.RAs {
		for _, b := range pipe.RAs {
			if a.OutQ == b.InQ {
				chained = true
			}
		}
	}
	if !chained {
		t.Errorf("expected chained RAs:\n%s", pipe.Describe())
	}
	// With the nodes->edges chain in place, the forwarding-only relay stage
	// dissolves, leaving exactly three thread stages (driver, vertex
	// doubler, update).
	if pipe.NumStages() != 3 {
		t.Errorf("glue elision should leave 3 thread stages, got %d:\n%s",
			pipe.NumStages(), pipe.Describe())
	}
}
