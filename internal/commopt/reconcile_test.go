package commopt_test

// Reconciliation of the static occupancy prediction against the simulator:
// for every benchmark family plus a Taco kernel, the pipeline is optimized
// (capacities + multicast), simulated with the telemetry probe attached,
// and the plan's per-queue predicted maximum occupancy is checked against
// what the machine actually observed. Predicted is an upper bound, so
//
//	observed max <= MaxOcc   and   observed time-weighted mean <= MaxOcc
//
// for every queue, on every family. Functional verification runs on each
// leg, so this also proves the applied rewrites preserve results.

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/matrix"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// reconcile applies commopt to a freshly compiled pipeline, runs it with
// telemetry, verifies the result, and checks every queue's observed
// occupancy against the plan's prediction.
func reconcile(t *testing.T, name string, src string, bind pipeline.Bindings,
	verify func(*pipeline.Instance) error) *commopt.Plan {
	t.Helper()
	prog, err := workloads.CompileSerial(src)
	if err != nil {
		t.Fatalf("%s: compile serial: %v", name, err)
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	plan, err := commopt.Apply(res.Pipeline, arch.DefaultConfig(1),
		commopt.Options{Capacities: true, Multicast: true})
	if err != nil {
		t.Fatalf("%s: apply: %v", name, err)
	}
	inst, err := pipeline.Instantiate(res.Pipeline, arch.DefaultConfig(1), bind)
	if err != nil {
		t.Fatalf("%s: instantiate: %v", name, err)
	}
	col := obs.NewSimCollector()
	inst.Machine.Probe = col
	if _, err := inst.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if err := verify(inst); err != nil {
		t.Fatalf("%s: functional verification with commopt applied: %v", name, err)
	}
	series := col.Series()
	obsMax := make([]int, len(plan.Queues))
	obsAvg := make([]float64, len(plan.Queues))
	for _, row := range series.Rows {
		for q, qs := range row.Queues {
			if q >= len(obsMax) {
				continue
			}
			if qs.Max > obsMax[q] {
				obsMax[q] = qs.Max
			}
			if qs.Avg > obsAvg[q] {
				obsAvg[q] = qs.Avg
			}
		}
	}
	for _, q := range plan.Queues {
		if obsMax[q.ID] > q.MaxOcc {
			t.Errorf("%s q%d (%s): observed max occupancy %d exceeds predicted max %d",
				name, q.ID, q.Name, obsMax[q.ID], q.MaxOcc)
		}
		if obsAvg[q.ID] > float64(q.MaxOcc) {
			t.Errorf("%s q%d (%s): observed time-weighted occupancy %.2f exceeds predicted max %d",
				name, q.ID, q.Name, obsAvg[q.ID], q.MaxOcc)
		}
	}
	return plan
}

func TestOccupancyReconciliation(t *testing.T) {
	for _, wl := range workloads.Benchmarks(workloads.ScaleTest) {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			in := wl.Test[len(wl.Test)-1]
			reconcile(t, wl.Name, wl.SerialSource, in.Bind(), in.Verify)
		})
	}
	t.Run("taco_spmv", func(t *testing.T) {
		m := matrix.Scattered("scircuit", 400, 3, 51)
		src, err := taco.Emit(taco.SpMV)
		if err != nil {
			t.Fatal(err)
		}
		reconcile(t, "taco_spmv", src, taco.Bindings(taco.SpMV, m, 7),
			func(inst *pipeline.Instance) error { return taco.Verify(taco.SpMV, m, 7, inst) })
	})
}

// TestMulticastRewrite pins the one multicast site in the suite: SpMM's
// stage2 enqueues the same value to both ka feedback queues back to back,
// and the rewrite must collapse it to a single send behind a fan-out edge
// while preserving functional results (checked by reconcile above; here the
// rewrite's shape is asserted).
func TestMulticastRewrite(t *testing.T) {
	wl, err := workloads.ByName(workloads.ScaleTest, "SpMM")
	if err != nil {
		t.Fatal(err)
	}
	in := wl.Test[len(wl.Test)-1]
	plan := reconcile(t, "SpMM", wl.SerialSource, in.Bind(), in.Verify)
	if len(plan.FanOuts) != 1 {
		t.Fatalf("expected 1 fan-out edge on SpMM, got %d", len(plan.FanOuts))
	}
	f := plan.FanOuts[0]
	if f.Src == f.Dst {
		t.Errorf("fan-out is a self-loop: q%d -> q%d", f.Src, f.Dst)
	}
	if f.Saved <= 0 || f.Tokens <= 0 {
		t.Errorf("fan-out pricing degenerate: %.1f tokens, %.1f saved", f.Tokens, f.Saved)
	}
}
