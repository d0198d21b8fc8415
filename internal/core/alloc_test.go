package core_test

import (
	"runtime"
	"strings"
	"testing"

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
// allocates: it measured 1.516 MB (2.754 MB before a compile computed each
// fact once) with go1.24 on linux/amd64, and the bound leaves 5 % for
// toolchain drift.
func TestCompileAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const limit = 1.59e6
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
