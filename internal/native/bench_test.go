package native_test

// Allocation discipline for the native executor, mirroring the simulator's
// doubling rule for traces: per-run allocations are bounded by pipeline shape
// (register files, queue rings, task frames), never by workload size —
// values sit in the rings by value. BenchmarkNative* measure it;
// TestNativeAllocRegression pins a ceiling so a per-message allocation
// sneaking into the hot path fails CI rather than slowly eroding the
// backend's reason to exist.

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// benchInstance compiles family name at test scale (commopt on, so native
// channels carry pass-inferred capacities) and instantiates its largest
// test input; with serial set it instantiates the family's one-stage serial
// baseline instead. The returned instance is safe to re-run: every family's
// outputs are pure functions of its inputs, and stage register files are
// re-initialized per run.
func benchInstance(tb testing.TB, name string, serial bool) (*pipeline.Instance, *workloads.Input) {
	tb.Helper()
	opt := core.DefaultOptions()
	opt.CommOpt = true
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		if b.Name != name {
			continue
		}
		prog, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			tb.Fatal(err)
		}
		pl := pipeline.NewSerial(prog)
		if !serial {
			res, err := core.Compile(prog, opt)
			if err != nil {
				tb.Fatal(err)
			}
			pl = res.Pipeline
		}
		in := b.Test[len(b.Test)-1]
		inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), in.Bind())
		if err != nil {
			tb.Fatal(err)
		}
		return inst, in
	}
	tb.Fatalf("no benchmark family %q", name)
	return nil, nil
}

func benchNative(b *testing.B, family string, serial bool) {
	inst, _ := benchInstance(b, family, serial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := native.Run(inst.Machine, native.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeSpMM(b *testing.B) { benchNative(b, "SpMM", false) }
func BenchmarkNativeBFS(b *testing.B)  { benchNative(b, "BFS", false) }

// BenchmarkNativeSerialSpMM is the evaluator's rate without the scheduler:
// SpMM's serial baseline is one stage that never touches a queue.
func BenchmarkNativeSerialSpMM(b *testing.B) { benchNative(b, "SpMM", true) }

// TestNativeAllocRegression pins the per-run allocation ceiling. Measured:
// 62 allocs/op for the commopt SpMM pipeline (register files, decoded
// programs — one per stage, which took it from 59 — rings, task frames,
// Validate's and QueueUse's maps — all O(stages+queues)); a single-core run
// starts no goroutine. The ceiling is 59 plus 25 %; what
// it must catch is a per-message or per-element allocation, which would
// blow through it by orders of magnitude on these inputs (thousands of
// tokens per run).
func TestNativeAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	inst, in := benchInstance(t, "SpMM", false)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := native.Run(inst.Machine, native.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	const ceiling = 74
	if got := r.AllocsPerOp(); got > ceiling {
		t.Errorf("native run allocates %d objects/op, ceiling %d — a per-message allocation has crept into the hot path", got, ceiling)
	}
	if err := in.Verify(inst); err != nil {
		t.Errorf("benchmarked instance no longer verifies: %v", err)
	}
}
