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
// channels carry pass-inferred capacities) and returns a constructor for
// instances of its largest test input; with serial set they run the
// family's one-stage serial baseline instead. Every run needs a new
// instance: BFS updates its distances and swaps its fringes in place, so a
// second run on one instance would start from the first one's output.
func benchInstance(tb testing.TB, name string, serial bool) (fresh func() *pipeline.Instance, in *workloads.Input) {
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
		return func() *pipeline.Instance {
			inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), in.Bind())
			if err != nil {
				tb.Fatal(err)
			}
			return inst
		}, in
	}
	tb.Fatalf("no benchmark family %q", name)
	return nil, nil
}

// benchRuns makes b.N native runs, each on a fresh instance built outside
// the timer and the allocation count, and returns the last instance.
func benchRuns(b *testing.B, fresh func() *pipeline.Instance) *pipeline.Instance {
	b.ReportAllocs()
	var inst *pipeline.Instance
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst = fresh()
		b.StartTimer()
		if _, err := native.Run(inst.Machine, native.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	return inst
}

func benchNative(b *testing.B, family string, serial bool) {
	fresh, _ := benchInstance(b, family, serial)
	b.ResetTimer()
	benchRuns(b, fresh)
}

func BenchmarkNativeSpMM(b *testing.B) { benchNative(b, "SpMM", false) }
func BenchmarkNativeBFS(b *testing.B)  { benchNative(b, "BFS", false) }

// BenchmarkNativeSerialSpMM is the evaluator's rate without the scheduler:
// SpMM's serial baseline is one stage that never touches a queue.
func BenchmarkNativeSerialSpMM(b *testing.B) { benchNative(b, "SpMM", true) }

// TestNativeAllocRegression pins the per-run allocation ceilings. Measured:
// 61 allocs/op for the commopt SpMM pipeline and 66 for the commopt BFS
// one (register files, decoded programs — one per stage — rings, task
// frames, Validate's and QueueUse's maps — all O(stages+queues+RAs)); a
// single-core run starts no goroutine. BFS is the RA path: its stages feed
// three RAs and swap fringes. Each ceiling is the measurement plus about
// 25 %; what it must catch is a per-message or per-element allocation,
// which would blow through it by orders of magnitude on these inputs
// (thousands of tokens per run).
func TestNativeAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	for _, c := range []struct {
		family  string
		ceiling int64
	}{{"SpMM", 74}, {"BFS", 83}} {
		fresh, in := benchInstance(t, c.family, false)
		var inst *pipeline.Instance
		r := testing.Benchmark(func(b *testing.B) { inst = benchRuns(b, fresh) })
		if got := r.AllocsPerOp(); got > c.ceiling {
			t.Errorf("%s: native run allocates %d objects/op, ceiling %d — a per-message allocation has crept into the hot path", c.family, got, c.ceiling)
		}
		if err := in.Verify(inst); err != nil {
			t.Errorf("%s: benchmarked instance no longer verifies: %v", c.family, err)
		}
	}
}
