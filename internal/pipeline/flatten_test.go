package pipeline_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// memoPipelines returns every pipeline of the five families (static with
// commopt off and on, serial, manual, data-parallel, replicated) and Taco
// SpMV's static pipeline with commopt off and on, each named.
func memoPipelines(t *testing.T) map[string]*pipeline.Pipeline {
	t.Helper()
	pls := map[string]*pipeline.Pipeline{}
	static := func(name, src string) {
		for _, on := range []bool{false, true} {
			opt := core.DefaultOptions()
			opt.CommOpt = on
			res, err := core.CompileSource(src, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pls[fmt.Sprintf("%s/static/commopt=%v", name, on)] = res.Pipeline
		}
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
		if pls[b.Name+"/x2"], err = pipeline.Replicate(pls[b.Name+"/static/commopt=true"], 2, nil, nil); err != nil {
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

// checkFresh fails unless FlattenStages returns, for every stage of pl,
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
		fresh, err := pipeline.FlattenStage(pl, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(progs[i], fresh) {
			t.Errorf("%s: stage %s: the memoized program differs from a fresh lowering", name, st.Name)
		}
	}
}

// TestFlattenMemoMatchesFresh: a pipeline is lowered once, and what every
// reader (Instantiate, verify, costmodel, commopt, Replicate) gets from the
// memo equals lowering each stage afresh. A stage replaced, renamed, added
// or dropped, or given a new Body slice, is lowered again.
func TestFlattenMemoMatchesFresh(t *testing.T) {
	pls := memoPipelines(t)
	for name, pl := range pls {
		checkFresh(t, name, pl)
		first, _ := pipeline.FlattenStages(pl)
		again, _ := pipeline.FlattenStages(pl)
		for i := range first {
			if first[i] != again[i] {
				t.Errorf("%s: stage %d was lowered twice", name, i)
			}
		}
	}

	pl := pls["BFS/static/commopt=false"]
	before, _ := pipeline.FlattenStages(pl)
	st := pl.Stages[0]
	st.Body = append([]ir.Stmt(nil), st.Body...)
	after, _ := pipeline.FlattenStages(pl)
	if after[0] == before[0] {
		t.Error("a stage given a new Body slice kept its old program")
	}
	checkFresh(t, "BFS with a new body", pl)
	st.Name += ".renamed"
	checkFresh(t, "BFS with a renamed stage", pl)
	pl.Stages = pl.Stages[1:]
	checkFresh(t, "BFS without its first stage", pl)
	pl.Stages = append(pl.Stages, &pipeline.Stage{Name: "copy", Body: pl.Stages[0].Body, Thread: arch.ThreadID{Core: 0, Thread: 3}})
	checkFresh(t, "BFS with a stage added", pl)
}

// TestConcurrentInstantiate: four goroutines instantiating one pipeline at
// once, before and after anything has lowered it, all get its one set of
// programs. Run under -race.
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
