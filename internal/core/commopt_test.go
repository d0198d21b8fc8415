package core

import (
	"reflect"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// runFamily compiles one benchmark with the given options and simulates it
// on the family's largest test input, returning the pipeline and its stats.
func runFamily(t *testing.T, b *workloads.Benchmark, opt Options) (*pipeline.Pipeline, *sim.Stats) {
	t.Helper()
	prog, err := workloads.CompileSerial(b.SerialSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prog, opt)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	in := b.Test[len(b.Test)-1]
	inst, err := pipeline.Instantiate(res.Pipeline, arch.DefaultConfig(1), in.Bind())
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Run()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	if err := in.Verify(inst); err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return res.Pipeline, st
}

// TestCommOptOffBitIdentical pins the opt-in contract: with Options.CommOpt
// off (the default), compilation leaves no trace of the pass — no
// pass-assigned capacities — and repeated compiles
// simulate to bit-identical Stats.
func TestCommOptOffBitIdentical(t *testing.T) {
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		pl, st1 := runFamily(t, b, DefaultOptions())
		for q, spec := range pl.Queues {
			if spec.DepthByPass {
				t.Errorf("%s: q%d marked DepthByPass with CommOpt off", b.Name, q)
			}
		}
		_, st2 := runFamily(t, b, DefaultOptions())
		if !reflect.DeepEqual(st1, st2) {
			t.Errorf("%s: stats differ between identical CommOpt-off compiles:\n%s\nvs\n%s",
				b.Name, st1.String(), st2.String())
		}
	}
}

// TestCommOptCompiles exercises the in-compile path: Options.CommOpt runs
// the pass inside finishPipeline, before verification, so a successful
// Compile proves the assigned capacities clear the verifier's Q4
// deadlock-safety rule. The optimized pipelines must still produce correct
// results, and at least one family must actually receive assignments.
func TestCommOptCompiles(t *testing.T) {
	opt := DefaultOptions()
	opt.CommOpt = true
	assigned := 0
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		pl, _ := runFamily(t, b, opt)
		for _, spec := range pl.Queues {
			if spec.DepthByPass {
				assigned++
			}
		}
	}
	if assigned == 0 {
		t.Error("CommOpt assigned no capacities across the whole suite")
	}
}
