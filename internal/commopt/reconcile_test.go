package commopt_test

// Reconciliation of the static occupancy prediction against the simulator:
// for every benchmark family plus a Taco kernel, the pipeline is optimized
// (capacities applied), simulated with the telemetry probe attached,
// and the plan's per-queue predicted maximum occupancy is checked against
// what the machine actually observed. Predicted is an upper bound, so
//
//	observed max <= MaxOcc   and   observed time-weighted mean <= MaxOcc
//
// for every queue, on every family. Functional verification runs on each
// leg, so this also proves the applied capacities preserve results.

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
	verify func(*pipeline.Instance) error) {
	t.Helper()
	prog, err := workloads.CompileSerial(src)
	if err != nil {
		t.Fatalf("%s: compile serial: %v", name, err)
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	plan, err := commopt.Apply(res.Pipeline, arch.DefaultConfig(1))
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
