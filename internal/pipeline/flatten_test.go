package pipeline_test

import (
	"reflect"
	"sync"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/ir"
	"phloem/internal/lower"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// builtPipelines returns every pipeline of the five families (static,
// serial, manual, data-parallel, replicated) and Taco SpMV's static
// pipeline, each named.
func builtPipelines(t *testing.T) map[string]*pipeline.Pipeline {
	t.Helper()
	pls := map[string]*pipeline.Pipeline{}
	static := func(name, src string) {
		res, err := core.CompileSource(src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pls[name+"/static"] = res.Pipeline
	}
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		static(b.Name, b.SerialSource)
		p, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			t.Fatal(err)
		}
		pls[b.Name+"/serial"] = pipeline.NewSerial(p)
		if b.Manual != nil {
			if pls[b.Name+"/manual"], err = b.Manual(); err != nil {
				t.Fatal(err)
			}
		}
		if pls[b.Name+"/dp"], err = workloads.BuildDataParallel(b.DPSource, 4, 2); err != nil {
			t.Fatal(err)
		}
		if pls[b.Name+"/x2"], err = pipeline.Replicate(pls[b.Name+"/static"], 2, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	src, err := taco.Emit(taco.SpMV)
	if err != nil {
		t.Fatal(err)
	}
	static("taco-spmv", src)
	return pls
}

// checkFresh fails unless every stage of pl carries a program (FlattenStage
// returns the same one twice) and FlattenStages returns, for every stage,
// what lowering the stage afresh gives.
func checkFresh(t *testing.T, name string, pl *pipeline.Pipeline) {
	t.Helper()
	progs, err := pipeline.FlattenStages(pl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(progs) != len(pl.Stages) {
		t.Fatalf("%s: %d programs for %d stages", name, len(progs), len(pl.Stages))
	}
	for i, st := range pl.Stages {
		fresh, err := lower.Flatten(pl.Prog, st.Name, ir.Optimize(pl.Prog, st.Body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(progs[i], fresh) {
			t.Errorf("%s: stage %s: the carried program differs from a fresh lowering", name, st.Name)
		}
		if again, _ := pipeline.FlattenStage(pl, st); again != progs[i] {
			t.Errorf("%s: stage %s carries no program", name, st.Name)
		}
	}
}

// TestLoweredMatchesFresh: every builder lowers the pipelines it returns,
// and what every reader (Instantiate, verify, costmodel, Replicate) gets
// equals lowering each stage afresh. An edit to the stages takes effect at
// the next Lower: a new Body slice, a renamed, dropped or added stage, and a
// statement of a Body overwritten in place.
func TestLoweredMatchesFresh(t *testing.T) {
	pls := builtPipelines(t)
	for name, pl := range pls {
		checkFresh(t, name, pl)
	}

	pl := pls["BFS/static"]
	st := pl.Stages[0]
	st.Body = append([]ir.Stmt(nil), st.Body...)
	pipeline.Lower(pl)
	checkFresh(t, "BFS with a new body", pl)
	st.Name += ".renamed"
	pipeline.Lower(pl)
	checkFresh(t, "BFS with a renamed stage", pl)
	pl.Stages = pl.Stages[1:]
	pipeline.Lower(pl)
	checkFresh(t, "BFS without its first stage", pl)
	pl.Stages = append(pl.Stages, &pipeline.Stage{Name: "copy", Body: pl.Stages[0].Body, Thread: arch.ThreadID{Core: 0, Thread: 3}})
	pipeline.Lower(pl)
	checkFresh(t, "BFS with a stage added", pl)

	st = pl.Stages[0]
	before, _ := pipeline.FlattenStage(pl, st)
	for i, s := range st.Body {
		if a, ok := s.(*ir.Assign); ok {
			st.Body[i] = &ir.Assign{Dst: a.Dst, Src: &ir.RvalUn{Op: ir.OpMov, A: ir.C(12345)}}
			break
		}
	}
	pipeline.Lower(pl)
	checkFresh(t, "BFS with a statement overwritten in place", pl)
	if after, _ := pipeline.FlattenStage(pl, st); reflect.DeepEqual(after, before) {
		t.Error("a statement overwritten in place left the stage's program as it was")
	}
}

// TestDataParallelWorkersShareLowering: the workers of a data-parallel
// pipeline share one Body, so Lower lowers it once; each worker's program
// is a copy under its own name over worker 0's instructions.
func TestDataParallelWorkersShareLowering(t *testing.T) {
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		pl, err := workloads.BuildDataParallel(b.DPSource, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := pipeline.FlattenStages(pl)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			if p.Name != pl.Stages[i].Name {
				t.Errorf("%s: worker %d's program is named %q, want %q", b.Name, i, p.Name, pl.Stages[i].Name)
			}
			if i > 0 && &p.Instrs[0] != &progs[0].Instrs[0] {
				t.Errorf("%s: worker %d was lowered apart from worker 0", b.Name, i)
			}
		}
	}
}

// TestConcurrentInstantiate: four goroutines instantiating one pipeline at
// once all run the programs its stages carry, and none of them lowers
// anything. Run under -race.
func TestConcurrentInstantiate(t *testing.T) {
	res, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	b := workloads.BFSBindings(graph.Grid("g", 12, 12, 1), 0)
	for _, pl := range []*pipeline.Pipeline{pipeline.NewSerial(p), res.Pipeline} {
		const n = 4
		insts := make([]*pipeline.Instance, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				insts[i], errs[i] = pipeline.Instantiate(pl, arch.DefaultConfig(1), b)
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s: %v", pl.Description, errs[i])
			}
			for s, st := range insts[i].Machine.Stages {
				if st.Prog != insts[0].Machine.Stages[s].Prog {
					t.Errorf("%s: instances 0 and %d run different programs for stage %d", pl.Description, i, s)
				}
			}
		}
		checkFresh(t, pl.Description, pl)
	}
}
