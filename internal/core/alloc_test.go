package core_test

import (
	"runtime"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// compileSuite compiles the eleven-kernel suite the way the compile-suite
// benchmark does: every kernel through CompileSource with commopt on, the
// aliased BFS rejected with E0, then every kernel lowered to its serial
// one-stage pipeline and flattened.
func compileSuite(tb testing.TB) {
	srcs := []string{
		workloads.BFSSource, workloads.CCSource, workloads.PRDSource,
		workloads.RadiiSource, workloads.SpMMSource, workloads.PRDApplySource,
		workloads.SpMVNoRestrictSource,
	}
	for _, k := range taco.Kernels() {
		src, err := taco.Emit(k)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	opt := core.DefaultOptions()
	opt.CommOpt = true
	for _, src := range srcs {
		if _, err := core.CompileSource(src, opt); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := core.CompileSource(workloads.BFSAliasedSource, opt); err == nil || !strings.Contains(err.Error(), "E0") {
		tb.Fatalf("aliased BFS: got %v, want an E0 rejection", err)
	}
	for _, src := range srcs {
		p, err := workloads.CompileSerial(src)
		if err != nil {
			tb.Fatal(err)
		}
		pl := pipeline.NewSerial(p)
		for _, st := range pl.Stages {
			if _, err := pipeline.FlattenStage(pl, st); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestCompileAllocates bounds what one pass over the compile suite
// allocates: it measured 1.285 MB (1.516 MB before dense liveness and
// definition counts and the verifier's and cost model's reused tables;
// 2.754 MB before a compile computed each fact once) with go1.24 on
// linux/amd64, and the bound leaves 5 % for toolchain drift.
func TestCompileAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const limit = 1.35e6
	compileSuite(t) // warm-up
	const ops = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		compileSuite(t)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("compile suite: %.0f bytes/op, %.0f mallocs/op", perOp, float64(after.Mallocs-before.Mallocs)/ops)
	if perOp > limit {
		t.Errorf("compile suite allocated %.0f bytes/op, over the %.0f bound", perOp, float64(limit))
	}
}

// searchTrainers are BFS's two test-scale training inputs as autotune
// callbacks: bind, simulate under the candidate's budget, check the result.
func searchTrainers(tb testing.TB) []core.TrainFunc {
	bench, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		tb.Fatal(err)
	}
	var out []core.TrainFunc
	for _, in := range bench.Train[:2] {
		out = append(out, func(pl *pipeline.Pipeline, b core.Budget) (uint64, error) {
			inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), in.Bind())
			if err != nil {
				return 0, err
			}
			b.Apply(inst.Machine)
			st, err := inst.Run()
			if err != nil {
				return 0, err
			}
			return st.Cycles, in.Verify(inst)
		})
	}
	return out
}

// TestSearchAllocates bounds what a warm autotune of BFS at test scale, on
// two training inputs, allocates per search: the candidates' pipelines and
// lowered programs, and each simulation's bindings, written arrays, result
// check and Stats. Per-candidate scratch lives with the search workers. It
// measured (go1.24, linux/amd64) 2.38 MB at Parallelism 1 (2.84 MB before
// the workers kept their scratch), bounded with 5 % slack, and 2.45-2.86 MB
// at Parallelism 2 (3.16-3.42 MB before), bounded with 25 % over the
// typical 2.47 MB: there the two workers' runs interleave differently every
// search, which moves how far a candidate runs before the tightening budget
// stops it, and a run that meets more concurrent long traces than any
// earlier one makes a trace buffer.
func TestSearchAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, c := range []struct {
		parallelism int
		limit       float64
	}{{1, 2.38e6 * 1.05}, {2, 2.47e6 * 1.25}} {
		opt := core.DefaultOptions()
		opt.Mode = core.Autotune
		opt.Parallelism = c.parallelism
		opt.Training = searchTrainers(t)
		search := func() {
			if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm-up: trace buffers, replay threads, cache hierarchies
		const ops = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			search()
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
		t.Logf("Parallelism %d: %.0f bytes/search, %.0f mallocs/search", c.parallelism, perOp, float64(after.Mallocs-before.Mallocs)/ops)
		if perOp > c.limit {
			t.Errorf("Parallelism %d: a warm search allocated %.0f bytes, over the %.0f bound", c.parallelism, perOp, c.limit)
		}
	}
}
