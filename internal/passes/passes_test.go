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

// defaultBuildConfig matches the Table III machine.
func defaultBuildConfig() passes.BuildConfig {
	return passes.BuildConfig{MaxRAs: 4, ThreadsPerCore: 4}
}

// buildBFS compiles the BFS source and builds an N-stage pipeline with the
// top-ranked decoupling points.
func buildBFS(t *testing.T, stages int, opt passes.Options) *pipeline.Pipeline {
	t.Helper()
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	an := analysis.New(p)
	phases := analysis.SplitPhases(p.Body)
	if len(phases) != 1 {
		t.Fatalf("BFS should be one phase, got %d", len(phases))
	}
	cands := an.Candidates(phases[0])
	if len(cands) < stages-1 {
		t.Fatalf("not enough candidates: %d", len(cands))
	}
	for _, c := range cands {
		t.Logf("candidate: %s", c)
	}
	pts := analysis.OrderPoints(cands[:stages-1])
	pipe, err := passes.Build(p, [][]*analysis.Candidate{pts}, opt, defaultBuildConfig())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Logf("%s", pipe.Describe())
	return pipe
}

func runBFS(t *testing.T, pipe *pipeline.Pipeline, g *graph.CSR) uint64 {
	t.Helper()
	inst, err := pipeline.Instantiate(pipe, arch.DefaultConfig(1), workloads.BFSBindings(g, 0))
	if err != nil {
		t.Fatalf("instantiate: %v\n%s", err, pipe.DumpStages())
	}
	st, err := inst.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, pipe.DumpStages())
	}
	if err := workloads.BFSVerify(inst, g, 0); err != nil {
		t.Fatalf("verify: %v\n%s", err, pipe.DumpStages())
	}
	return st.Cycles
}

func TestBFSPipelineFlagMode(t *testing.T) {
	pipe := buildBFS(t, 4, passes.Options{})
	g := graph.Grid("grid", 16, 16, 1)
	cycles := runBFS(t, pipe, g)
	t.Logf("flag-mode 4-stage BFS: %d cycles", cycles)
}

func TestBFSPipelineRecompute(t *testing.T) {
	pipe := buildBFS(t, 4, passes.Options{Recompute: true})
	g := graph.Grid("grid", 16, 16, 1)
	runBFS(t, pipe, g)
}

func TestBFSPipelineCtrlValues(t *testing.T) {
	pipe := buildBFS(t, 4, passes.Options{Recompute: true, CtrlValues: true})
	g := graph.Grid("grid", 16, 16, 1)
	runBFS(t, pipe, g)
}

func TestBFSPipelineCtrlDCEHandlers(t *testing.T) {
	pipe := buildBFS(t, 4, passes.Options{Recompute: true, CtrlValues: true,
		Handlers: true, InterstageDCE: true})
	g := graph.Grid("grid", 16, 16, 1)
	runBFS(t, pipe, g)
}

func TestBFSPipelineFull(t *testing.T) {
	pipe := buildBFS(t, 4, passes.Default())
	if len(pipe.RAs) == 0 {
		t.Errorf("expected reference accelerators in the full BFS pipeline\n%s", pipe.Describe())
	}
	g := graph.Grid("grid", 16, 16, 1)
	runBFS(t, pipe, g)
}

func TestBFSPipelineSpeedupLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level ladder in -short mode")
	}
	g := graph.Grid("grid", 120, 120, 7)
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	serial := pipeline.NewSerial(p)
	inst, err := pipeline.Instantiate(serial, arch.DefaultConfig(1), workloads.BFSBindings(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := st.Cycles

	configs := []struct {
		name string
		opt  passes.Options
	}{
		{"Q", passes.Options{}},
		{"R,Q", passes.Options{Recompute: true}},
		{"CV,R,Q", passes.Options{Recompute: true, CtrlValues: true}},
		{"CH,CV,DCE,R,Q", passes.Options{Recompute: true, CtrlValues: true, Handlers: true, InterstageDCE: true}},
		{"RA,full", passes.Default()},
	}
	for _, cfg := range configs {
		pipe := buildBFS(t, 4, cfg.opt)
		cycles := runBFS(t, pipe, g)
		t.Logf("%-16s %8d cycles  speedup %.2fx", cfg.name, cycles, float64(base)/float64(cycles))
	}
	t.Logf("%-16s %8d cycles  (serial baseline)", "serial", base)
}
