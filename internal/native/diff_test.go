package native_test

import (
	"math"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/mem"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// The differential contract: any pipeline the compiler (or a hand author)
// produces must run on the native backend with bit-identical output memory
// to the functional simulator and the same executed-instruction count.
// Bindings are copied at Instantiate, so two instances never share state.
// Both backends are one engine (internal/sim/engine.go), so what this suite
// compares is its two configurations, not two readings of the ISA: what an
// opcode means is pinned by the hand-computed expectations in
// internal/sim's opcode/protocol tests and by the Go reference outputs in
// internal/workloads (in.Verify below).

// runDiff runs pl on both backends from identical bindings and compares
// the complete memory spaces bitwise, the instruction counts, and the
// leftover-token profile. It returns the native instance for extra
// workload-specific verification.
func runDiff(t *testing.T, name string, pl *pipeline.Pipeline, bind pipeline.Bindings) *pipeline.Instance {
	t.Helper()
	return runDiffOn(t, name, pl, arch.DefaultConfig(1), bind)
}

// runDiffOn is runDiff on a machine of the given configuration. It proves
// that results do not depend on what separates the configurations: bounded
// vs growable rings, one goroutine per core vs one in all, traced vs not.
func runDiffOn(t *testing.T, name string, pl *pipeline.Pipeline, cfg arch.Config, bind pipeline.Bindings) *pipeline.Instance {
	t.Helper()

	simInst, err := pipeline.Instantiate(pl, cfg, bind)
	if err != nil {
		t.Fatalf("%s: instantiate(sim): %v", name, err)
	}
	ts, err := simInst.Machine.RunFunctional()
	if err != nil {
		t.Fatalf("%s: functional: %v", name, err)
	}

	natInst, err := pipeline.Instantiate(pl, cfg, bind)
	if err != nil {
		t.Fatalf("%s: instantiate(native): %v", name, err)
	}
	st, err := native.Run(natInst.Machine, native.Options{})
	if err != nil {
		t.Fatalf("%s: native: %v", name, err)
	}

	if st.Instructions != ts.Instructions {
		t.Errorf("%s: native executed %d instructions, functional %d",
			name, st.Instructions, ts.Instructions)
	}
	if len(st.Leftover) != len(ts.Leftover) {
		t.Fatalf("%s: leftover lengths differ: %d vs %d", name, len(st.Leftover), len(ts.Leftover))
	}
	for q := range st.Leftover {
		if st.Leftover[q] != ts.Leftover[q] {
			t.Errorf("%s: q%d leftover %d native vs %d functional", name, q, st.Leftover[q], ts.Leftover[q])
		}
	}
	compareSpaces(t, name, simInst.Machine.Space, natInst.Machine.Space)
	return natInst
}

// compareSpaces requires every array in both spaces to match bitwise
// (floats compared by bit pattern, so NaN payloads and signed zeros count).
func compareSpaces(t *testing.T, name string, a, b *mem.Space) {
	t.Helper()
	as, bs := a.Arrays(), b.Arrays()
	if len(as) != len(bs) {
		t.Fatalf("%s: array counts differ: %d vs %d", name, len(as), len(bs))
	}
	for i := range as {
		x, y := as[i], bs[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.Len() != y.Len() {
			t.Fatalf("%s: array %d shape mismatch: %s/%v/%d vs %s/%v/%d",
				name, i, x.Name, x.Kind, x.Len(), y.Name, y.Kind, y.Len())
		}
		diffs := 0
		switch x.Kind {
		case mem.F64:
			xf, yf := x.Floats(), y.Floats()
			for j := range xf {
				if math.Float64bits(xf[j]) != math.Float64bits(yf[j]) {
					if diffs == 0 {
						t.Errorf("%s: %s[%d] = %x (sim) vs %x (native)",
							name, x.Name, j, math.Float64bits(xf[j]), math.Float64bits(yf[j]))
					}
					diffs++
				}
			}
		case mem.I32:
			xi, yi := x.Int32s(), y.Int32s()
			for j := range xi {
				if xi[j] != yi[j] {
					if diffs == 0 {
						t.Errorf("%s: %s[%d] = %d (sim) vs %d (native)", name, x.Name, j, xi[j], yi[j])
					}
					diffs++
				}
			}
		default:
			xi, yi := x.Ints(), y.Ints()
			for j := range xi {
				if xi[j] != yi[j] {
					if diffs == 0 {
						t.Errorf("%s: %s[%d] = %d (sim) vs %d (native)", name, x.Name, j, xi[j], yi[j])
					}
					diffs++
				}
			}
		}
		if diffs > 1 {
			t.Errorf("%s: %s: %d elements differ in total", name, x.Name, diffs)
		}
	}
}

func compileFamily(t *testing.T, b *workloads.Benchmark, opt core.Options) *pipeline.Pipeline {
	t.Helper()
	prog, err := workloads.CompileSerial(b.SerialSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(prog, opt)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return res.Pipeline
}

// TestDiffBenchmarkFamilies runs every benchmark family's compiled
// pipeline on every test input through both backends, with commopt off
// (author/default queue depths) and on (pass-inferred capacities and
// multicast fan-outs feeding native queue sizing). The commopt leg must
// include a pipeline with fan-out edges (SpMM's), so the all-or-nothing
// multicast is exercised by compiled code, not only by hand-built machines.
func TestDiffBenchmarkFamilies(t *testing.T) {
	fanOuts := 0
	for _, commOpt := range []bool{false, true} {
		opt := core.DefaultOptions()
		opt.CommOpt = commOpt
		variant := "static"
		if commOpt {
			variant = "commopt"
		}
		for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
			pl := compileFamily(t, b, opt)
			fanOuts += len(pl.FanOuts)
			for _, in := range b.Test {
				name := b.Name + "/" + variant + "/" + in.Name
				inst := runDiff(t, name, pl, in.Bind())
				if err := in.Verify(inst); err != nil {
					t.Errorf("%s: native result fails workload verify: %v", name, err)
				}
			}
		}
	}
	if fanOuts == 0 {
		t.Error("no compiled pipeline carried a fan-out; the multicast lowering was not exercised")
	}
}

// TestDiffSerial covers the single-stage degenerate shape (no queues at
// all) for every family.
func TestDiffSerial(t *testing.T) {
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		prog, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			t.Fatal(err)
		}
		pl := pipeline.NewSerial(prog)
		in := b.Test[len(b.Test)-1]
		inst := runDiff(t, b.Name+"/serial/"+in.Name, pl, in.Bind())
		if err := in.Verify(inst); err != nil {
			t.Errorf("%s serial: %v", b.Name, err)
		}
	}
}

// TestDiffNoRestrict covers the effects-analysis variants compiled
// without restrict qualifiers.
func TestDiffNoRestrict(t *testing.T) {
	res, err := core.CompileSource(workloads.PRDApplySource, core.DefaultOptions())
	if err != nil {
		t.Fatalf("prd_apply: %v", err)
	}
	inst := runDiff(t, "norestrict/prd_apply", res.Pipeline, workloads.PRDApplyBindings(64, 7))
	if err := workloads.PRDApplyVerify(inst, workloads.PRDApplyBindings(64, 7)); err != nil {
		t.Error(err)
	}

	res, err = core.CompileSource(workloads.SpMVNoRestrictSource, core.DefaultOptions())
	if err != nil {
		t.Fatalf("spmv: %v", err)
	}
	for _, m := range []*matrix.CSR{
		matrix.Banded("banded", 48, 4, 6, 1),
		matrix.Scattered("scattered", 48, 5, 2),
	} {
		b := workloads.SpMVBindings(m)
		inst := runDiff(t, "norestrict/spmv/"+m.Name, res.Pipeline, b)
		if err := workloads.SpMVVerify(inst, m, b); err != nil {
			t.Error(err)
		}
	}
}

// TestDiffManual covers the hand-written pipelines: BFS exercises control
// handlers, a feedback queue, and SwapSlots under chained RAs; SpMM
// exercises four RAs and the skip protocol.
func TestDiffManual(t *testing.T) {
	bfs, err := workloads.ManualBFS()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.CSR{
		graph.Grid("grid", 20, 20, 2),
		graph.PowerLaw("pl", 400, 3, 3),
		graph.Trace("tr", 12, 10, 4),
	} {
		inst := runDiff(t, "manual/bfs/"+g.Name, bfs, workloads.BFSBindings(g, 0))
		if err := workloads.BFSVerify(inst, g, 0); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}

	spmm, err := workloads.ManualSpMM()
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Banded("a", 40, 3, 5, 1)
	bt := matrix.Scattered("bt", 40, 4, 2)
	inst := runDiff(t, "manual/spmm", spmm, workloads.SpMMBindings(a, bt))
	if err := workloads.SpMMVerify(inst, a, bt); err != nil {
		t.Error(err)
	}
}

// TestDiffTaco covers the Taco-emitted kernels on two sparsity patterns.
func TestDiffTaco(t *testing.T) {
	for _, k := range taco.Kernels() {
		src, err := taco.Emit(k)
		if err != nil {
			t.Fatalf("%v: emit: %v", k, err)
		}
		res, err := core.CompileSource(src, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%v: compile: %v", k, err)
		}
		for _, m := range []*matrix.CSR{
			matrix.Banded("banded", 48, 4, 6, 1),
			matrix.Scattered("scattered", 48, 5, 2),
		} {
			name := "taco/" + string(k) + "/" + m.Name
			inst := runDiff(t, name, res.Pipeline, taco.Bindings(k, m, 7))
			if err := taco.Verify(k, m, 7, inst); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
