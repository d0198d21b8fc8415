package sim_test

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// minimumCapacity shrinks every queue and every RA outstanding-request
// window of m to one entry, the smallest machine the protocols must run on.
func minimumCapacity(m *sim.Machine) {
	for i := range m.Queues {
		m.Queues[i].Depth = 1
	}
	m.Cfg.RAOutstanding = 1
}

// TestReplayAtMinimumCapacity runs every benchmark family's compiled
// pipeline on its first test-scale training input, and Taco SpMV, on a
// machine with depth-1 queues and one outstanding RA request. A producer
// then fills its queue at nearly every push, so the run finishes only if
// every pop unparks the enqueue waiting on it; it must also match the Go
// reference.
func TestReplayAtMinimumCapacity(t *testing.T) {
	type workload struct {
		name   string
		pipe   func(t *testing.T) *pipeline.Pipeline
		bind   func() pipeline.Bindings
		verify func(*pipeline.Instance) error
	}
	var ws []workload
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		in := b.Train[0]
		ws = append(ws, workload{b.Name, func(t *testing.T) *pipeline.Pipeline {
			return compileStatic(t, b.SerialSource)
		}, in.Bind, in.Verify})
	}
	m := matrix.PowerLawRows("capacity", 300, 6, 11)
	const seed = 5
	ws = append(ws, workload{"taco-spmv", func(t *testing.T) *pipeline.Pipeline {
		src, err := taco.Emit(taco.SpMV)
		if err != nil {
			t.Fatal(err)
		}
		return compileStatic(t, src)
	}, func() pipeline.Bindings { return taco.Bindings(taco.SpMV, m, seed) },
		func(inst *pipeline.Instance) error { return taco.Verify(taco.SpMV, m, seed, inst) }})

	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			inst, err := pipeline.Instantiate(w.pipe(t), arch.DefaultConfig(1), w.bind())
			if err != nil {
				t.Fatal(err)
			}
			minimumCapacity(inst.Machine)
			if _, err := inst.Run(); err != nil {
				t.Fatalf("run at minimum capacity: %v", err)
			}
			if err := w.verify(inst); err != nil {
				t.Errorf("results diverge from Go reference: %v", err)
			}
		})
	}
}
