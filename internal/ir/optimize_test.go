package ir_test

import (
	"testing"

	"phloem/internal/core"
	"phloem/internal/ir"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// TestOptimizeFixedPoint checks that Optimize applied to its own output
// returns that output unchanged, as the same slice, and allocates nothing:
// over every family's serial body and every stage of its compiled pipeline.
func TestOptimizeFixedPoint(t *testing.T) {
	srcs := map[string]string{
		"BFS": workloads.BFSSource, "CC": workloads.CCSource, "PRD": workloads.PRDSource,
		"Radii": workloads.RadiiSource, "SpMM": workloads.SpMMSource,
		"PRDApply": workloads.PRDApplySource, "SpMVNoRestrict": workloads.SpMVNoRestrictSource,
	}
	for _, k := range taco.Kernels() {
		src, err := taco.Emit(k)
		if err != nil {
			t.Fatal(err)
		}
		srcs["taco-"+string(k)] = src
	}
	check := func(name string, p *ir.Prog, body []ir.Stmt) {
		t.Helper()
		out := ir.Optimize(p, body)
		again := ir.Optimize(p, out)
		if len(again) != len(out) || len(out) > 0 && &again[0] != &out[0] {
			t.Errorf("%s: second Optimize returned a new list\nfirst:\n%s\nsecond:\n%s", name, p.PrintStmts(out), p.PrintStmts(again))
		}
		if got := testing.AllocsPerRun(5, func() { ir.Optimize(p, out) }); got != 0 {
			t.Errorf("%s: Optimize of an optimized body allocated %.0f times", name, got)
		}
	}
	opt := core.DefaultOptions()
	for name, src := range srcs {
		p, err := workloads.CompileSerial(src)
		if err != nil {
			t.Fatal(err)
		}
		check(name+" serial", p, p.Body)
		res, err := core.CompileSource(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Pipeline.Stages {
			check(name+" "+st.Name, res.Pipeline.Prog, st.Body)
		}
	}
}
