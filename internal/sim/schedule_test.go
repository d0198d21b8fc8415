package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/isa"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// TestTraceScheduleIndependent asks the question the two-phase design rests
// on: do functional results depend on the functional schedule? Each kernel
// runs with a turn of 1 instruction, the engine's 512, and no limit (a
// stage runs until it blocks, the native turn policy), and the TraceSets
// are compared entry for entry.
//
// The answer at test scale: no for every decoupled pipeline — the five
// families, PRD-apply and Taco SpMV have one producer per queue, and
// whatever memory their stages share turned no branch at these inputs —
// and yes for
// the data-parallel CC baseline, whose four workers read labels[ngh] while
// their neighbours write labels[v]: the outcome of `if (ln < best)` (the
// brz on that comparison in cc_dp.worker*) depends on who ran first, and
// with it the number of sweeps to convergence. That race is the algorithm's
// (label propagation tolerates stale labels), so the functional turn policy
// stays part of what a trace means for the data-parallel baselines.
func TestTraceScheduleIndependent(t *testing.T) {
	type kase struct {
		name  string
		build func(t *testing.T) *pipeline.Instance
		racy  bool
	}
	var cases []kase
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		cases = append(cases, kase{name: b.Name, build: func(t *testing.T) *pipeline.Instance {
			return instantiate(t, compileStatic(t, b.SerialSource), 1, b.Test[0].Bind())
		}})
	}
	cases = append(cases,
		kase{name: "PRDApply", build: func(t *testing.T) *pipeline.Instance {
			return instantiate(t, compileStatic(t, workloads.PRDApplySource), 1, workloads.PRDApplyBindings(64, 7))
		}},
		kase{name: "taco-spmv", build: func(t *testing.T) *pipeline.Instance {
			src, err := taco.Emit(taco.SpMV)
			if err != nil {
				t.Fatal(err)
			}
			return instantiate(t, compileStatic(t, src), 1, taco.Bindings(taco.SpMV, matrix.Scattered("s", 48, 5, 2), 7))
		}},
		kase{name: "CC/data-parallel", racy: true, build: func(t *testing.T) *pipeline.Instance {
			dp, err := workloads.BuildDataParallel(workloads.CCDPSource, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			b := workloads.CCBindings(graph.PowerLaw("golden", 300, 3, 5))
			b.Ints["changed"] = make([]int64, 4)
			b.Scalars["tid"] = 0
			b.Scalars["nthreads"] = 4
			return instantiate(t, dp, 1, b)
		}})

	for _, c := range cases {
		run := func(quantum uint64) (*sim.Machine, *sim.TraceSet) {
			m := c.build(t).Machine
			ts, err := m.RunFunctionalQuantum(quantum)
			if err != nil {
				t.Fatalf("%s: quantum %d: %v", c.name, quantum, err)
			}
			return m, ts
		}
		m, base := run(512)
		differs := false
		for _, quantum := range []uint64{1, 1 << 62} {
			_, ts := run(quantum)
			for i := range base.RA {
				if !slices.Equal(base.RA[i], ts.RA[i]) {
					t.Errorf("%s: quantum %d: trace of RA %d differs", c.name, quantum, i)
				}
			}
			for i, a := range base.Threads {
				b := ts.Threads[i]
				if slices.Equal(a, b) {
					continue
				}
				differs = true
				prog := m.Stages[i].Prog
				if !c.racy {
					t.Errorf("%s: quantum %d: trace of %s differs (%d vs %d entries)", c.name, quantum, prog.Name, len(a), len(b))
					continue
				}
				// The first entry to differ must be the racing filter: the
				// same conditional branch, taken in one schedule only.
				k := 0
				for k < len(a) && k < len(b) && a[k] == b[k] {
					k++
				}
				if k == len(a) || k == len(b) || a[k].PC != b[k].PC || prog.Instrs[a[k].PC].Op != isa.OpBrZ ||
					a[k].Flags^b[k].Flags != sim.FlagTaken {
					t.Errorf("%s: quantum %d: %s diverges at entry %d other than at a branch outcome", c.name, quantum, prog.Name, k)
				}
			}
		}
		if c.racy && !differs {
			t.Errorf("%s: traces no longer depend on the schedule; the comment above and DESIGN.md §5 name it as the kernel where they do", c.name)
		}
	}
}

// TestTraceCapacityIndependent: the functional configuration bounds every
// ring at its queue's capacity, which is sound only if a decoupled
// pipeline's traces do not depend on that capacity: a bounded FIFO network
// computes the same streams at any capacity at which it completes. Each
// family's first test input and Taco SpMV run at a default queue depth of
// 1, 2 and the machine's own, and their trace digests, instruction counts
// and leftovers must be identical.
func TestTraceCapacityIndependent(t *testing.T) {
	type kase struct {
		name  string
		build func(t *testing.T) *pipeline.Instance
	}
	var cases []kase
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		cases = append(cases, kase{b.Name, func(t *testing.T) *pipeline.Instance {
			return instantiate(t, compileStatic(t, b.SerialSource), 1, b.Test[0].Bind())
		}})
	}
	cases = append(cases, kase{"taco-spmv", func(t *testing.T) *pipeline.Instance {
		src, err := taco.Emit(taco.SpMV)
		if err != nil {
			t.Fatal(err)
		}
		return instantiate(t, compileStatic(t, src), 1, taco.Bindings(taco.SpMV, matrix.Scattered("s", 48, 5, 2), 7))
	}})

	for _, c := range cases {
		run := func(depth int) traceRecord {
			m := c.build(t).Machine
			if depth > 0 {
				m.Cfg.QueueDepth = depth
			}
			ts, err := m.RunFunctional()
			if err != nil {
				t.Fatalf("%s: queue depth %d: %v", c.name, depth, err)
			}
			rec := traceRecord{Instructions: ts.Instructions, Leftover: ts.Leftover}
			for _, tr := range ts.Threads {
				rec.Threads = append(rec.Threads, digestThread(tr))
			}
			for _, tr := range ts.RA {
				rec.RA = append(rec.RA, digestRA(tr))
			}
			return rec
		}
		base := run(0)
		for _, depth := range []int{1, 2} {
			if got := run(depth); !reflect.DeepEqual(got, base) {
				t.Errorf("%s: queue depth %d: traces differ from the default depth's\n got  %+v\n want %+v", c.name, depth, got, base)
			}
		}
	}
}

// TestSingleCoreQueuesDirect: on one core nothing is shared and no swap is
// counted, so every queue of a compiled pipeline takes the native engine's
// ring fast path.
func TestSingleCoreQueuesDirect(t *testing.T) {
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		res, err := core.CompileSource(b.SerialSource, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		m := instantiate(t, res.Pipeline, 1, b.Test[0].Bind()).Machine
		for q, direct := range m.DirectQueues() {
			if !direct {
				t.Errorf("%s: q%d (%s) is off the ring fast path", b.Name, q, m.Queues[q].Name)
			}
		}
	}
}
