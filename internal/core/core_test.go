package core_test

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

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

func TestStaticFlowBFS(t *testing.T) {
	res, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The static flow must reproduce the paper's BFS pipeline: three thread
	// stages (driver, vertex doubler, update) plus three chained RAs
	// (fringe scan -> nodes indirect -> edges scan).
	if res.Pipeline.NumStages() != 3 {
		t.Errorf("BFS static: %d thread stages, want 3\n%s",
			res.Pipeline.NumStages(), res.Pipeline.Describe())
	}
	if len(res.Pipeline.RAs) != 3 {
		t.Errorf("BFS static: %d RAs, want 3", len(res.Pipeline.RAs))
	}
	// The nodes RA output must feed the edges scan directly (chaining).
	var nodesOut, edgesIn = -1, -2
	for _, ra := range res.Pipeline.RAs {
		if ra.Mode == arch.RAIndirect {
			nodesOut = ra.OutQ
		}
		if ra.Mode == arch.RAScan && res.Pipeline.Prog.Slots[ra.Slot].Name == "edges" {
			edgesIn = ra.InQ
		}
	}
	if nodesOut != edgesIn {
		t.Errorf("nodes RA (out q%d) should chain into the edges scan (in q%d)", nodesOut, edgesIn)
	}
}

// TestAutotuneCandidateZeroIsStatic pins that autotune measures the static
// flow's pipeline as its first candidate, for every benchmark family: both
// come from one definition of the static configuration.
func TestAutotuneCandidateZeroIsStatic(t *testing.T) {
	families := []struct{ name, src string }{
		{"BFS", workloads.BFSSource}, {"CC", workloads.CCSource}, {"PRD", workloads.PRDSource},
		{"Radii", workloads.RadiiSource}, {"SpMM", workloads.SpMMSource},
	}
	render := func(pl *pipeline.Pipeline) string { return pl.Describe() + pl.DumpStages() }
	for _, fam := range families {
		static, err := core.CompileSource(fam.src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s static: %v", fam.name, err)
		}
		// Serially, measurements arrive in enumeration order: the serial
		// baseline, then candidate zero.
		var measured []string
		opt := core.DefaultOptions()
		opt.Mode = core.Autotune
		opt.Parallelism = 1
		opt.Training = []core.TrainFunc{func(pl *pipeline.Pipeline, _ core.Budget) (uint64, error) {
			measured = append(measured, render(pl))
			return 1000, nil
		}}
		if _, err := core.CompileSource(fam.src, opt); err != nil {
			t.Fatalf("%s autotune: %v", fam.name, err)
		}
		if len(measured) < 2 {
			t.Fatalf("%s: autotune measured %d pipelines, want the serial baseline and candidate zero", fam.name, len(measured))
		}
		if want := render(static.Pipeline); measured[1] != want {
			t.Errorf("%s: autotune candidate zero differs from the static pipeline:\n--- static\n%s--- candidate 0\n%s",
				fam.name, want, measured[1])
		}
	}
}

func TestAblationConfigsAllCorrect(t *testing.T) {
	g := graph.Grid("g", 14, 14, 5)
	configs := []passes.Options{
		{},
		{Recompute: true},
		{CtrlValues: true},
		{Recompute: true, CtrlValues: true, InterstageDCE: true},
		{Recompute: true, CtrlValues: true, Handlers: true},
		passes.Default(),
	}
	for i, pc := range configs {
		opt := core.DefaultOptions()
		opt.EnableAblation = true
		opt.Passes = pc
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatalf("config %d [%s]: %v", i, pc, err)
		}
		if _, err := bfsTrainer(g)(res.Pipeline, core.Budget{}); err != nil {
			t.Errorf("config %d [%s]: %v", i, pc, err)
		}
	}
}

func TestAutotunePicksNoWorseThanStatic(t *testing.T) {
	train := graph.Grid("t", 24, 24, 9)
	static, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	staticCycles, err := bfsTrainer(train)(static.Pipeline, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = []core.TrainFunc{bfsTrainer(train)}
	tuned, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TrainCycles > staticCycles {
		t.Errorf("autotune picked %d train cycles, static achieves %d",
			tuned.TrainCycles, staticCycles)
	}
	if tuned.Searched < 5 {
		t.Errorf("searched only %d pipelines", tuned.Searched)
	}
}

func TestSearchReportsMultipleStageCounts(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid("s", 16, 16, 4)
	opt := core.DefaultOptions()
	opt.Training = []core.TrainFunc{bfsTrainer(g)}
	points, err := core.Search(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]bool{}
	for _, pt := range points {
		counts[pt.TotalStages] = true
	}
	if len(counts) < 2 {
		t.Errorf("search should cover multiple stage counts, got %d points across %d sizes",
			len(points), len(counts))
	}
}
