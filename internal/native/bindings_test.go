package native_test

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// TestRunsKeepBindings: Instantiate binds the arrays no stage writes to the
// caller's slices, so runs must only read them. For every family, the
// no-restrict PRD apply, Taco SpMV, data-parallel CC and replicated BFS, a
// simulated and a native run of two instances made from one set of
// Bindings, run concurrently, must leave the Bindings' hash unchanged and
// end in the memory of a run on a deep copy of them.
func TestRunsKeepBindings(t *testing.T) {
	type runCase struct {
		name string
		pl   *pipeline.Pipeline
		cfg  arch.Config
		bind pipeline.Bindings
	}
	g := graph.Grid("grid", 12, 12, 3)
	a, bt := matrix.Banded("a", 40, 3, 5, 1), matrix.Scattered("bt", 40, 4, 2)
	small := map[string]pipeline.Bindings{
		"BFS":   workloads.BFSBindings(g, 0),
		"CC":    workloads.CCBindings(g),
		"PRD":   workloads.PRDBindings(g),
		"Radii": workloads.RadiiBindings(g, 99),
		"SpMM":  workloads.SpMMBindings(a, bt),
	}
	var cases []runCase
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		cases = append(cases, runCase{b.Name, compileFamily(t, b), arch.DefaultConfig(1), small[b.Name]})
	}

	res, err := core.CompileSource(workloads.PRDApplySource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, runCase{"PRDApply", res.Pipeline, arch.DefaultConfig(1), workloads.PRDApplyBindings(64, 7)})

	src, err := taco.Emit(taco.SpMV)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = core.CompileSource(src, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	m := matrix.Banded("banded", 48, 4, 6, 1)
	cases = append(cases, runCase{"taco/spmv", res.Pipeline, arch.DefaultConfig(1), taco.Bindings(taco.SpMV, m, 7)})

	dp, err := workloads.BuildDataParallel(workloads.CCDPSource, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := workloads.CCBindings(g)
	db.Ints["changed"] = make([]int64, 4)
	db.Scalars["tid"], db.Scalars["nthreads"] = 0, 4
	cases = append(cases, runCase{"CC/data-parallel", dp, arch.DefaultConfig(1), db})

	bfs, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		t.Fatal(err)
	}
	const R = 2
	repl, err := pipeline.Replicate(compileFamily(t, bfs), R, []string{"nodes", "edges"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := workloads.BFSBindings(g, 0)
	rb := pipeline.Bindings{Ints: map[string][]int64{"nodes": g.Nodes, "edges": g.Edges}, Scalars: base.Scalars}
	for r := 0; r < R; r++ {
		for _, name := range []string{"distances", "cur_fringe", "next_fringe"} {
			rb.Ints[fmt.Sprintf("r%d.%s", r, name)] = slices.Clone(base.Ints[name])
		}
	}
	cases = append(cases, runCase{"BFS/replicated-x2", repl, arch.DefaultConfig(R), rb})

	for _, c := range cases {
		want := hashBindings(c.bind)
		ref, err := pipeline.Instantiate(c.pl, c.cfg, cloneBindings(c.bind))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := ref.Run(); err != nil {
			t.Fatalf("%s: run on a deep copy: %v", c.name, err)
		}

		simInst, err := pipeline.Instantiate(c.pl, c.cfg, c.bind)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		natInst, err := pipeline.Instantiate(c.pl, c.cfg, c.bind)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var simErr, natErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, simErr = simInst.Run()
		}()
		go func() {
			defer wg.Done()
			_, natErr = native.Run(natInst.Machine, native.Options{})
		}()
		wg.Wait()
		if simErr != nil || natErr != nil {
			t.Fatalf("%s: sim: %v, native: %v", c.name, simErr, natErr)
		}

		if got := hashBindings(c.bind); got != want {
			t.Errorf("%s: the runs changed their Bindings: hash %016x, was %016x", c.name, got, want)
		}
		compareSpaces(t, c.name+" (sim)", ref.Machine.Space, simInst.Machine.Space)
		compareSpaces(t, c.name+" (native)", ref.Machine.Space, natInst.Machine.Space)
	}
}

// hashBindings hashes every name and value of b. fmt prints maps in key
// order and floats in their shortest exact form.
func hashBindings(b pipeline.Bindings) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, b)
	return h.Sum64()
}

// cloneBindings deep-copies b: no slice of the copy shares storage with b.
func cloneBindings(b pipeline.Bindings) pipeline.Bindings {
	c := pipeline.Bindings{
		Ints:         map[string][]int64{},
		Floats:       map[string][]float64{},
		Scalars:      maps.Clone(b.Scalars),
		FloatScalars: maps.Clone(b.FloatScalars),
	}
	for k, v := range b.Ints {
		c.Ints[k] = slices.Clone(v)
	}
	for k, v := range b.Floats {
		c.Floats[k] = slices.Clone(v)
	}
	return c
}
