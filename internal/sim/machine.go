// Package sim implements the cycle-level Pipette machine simulator used to
// evaluate Phloem. Simulation is two-phase:
//
//  1. A functional phase (RunFunctional) co-executes all stage programs with
//     a deterministic scheduler, computing every value, memory address, branch
//     outcome, and queue token. It verifies program correctness and emits
//     per-thread and per-RA traces. It is one configuration of the execution
//     engine (engine.go); the other, RunNative, is the native backend.
//  2. A timing phase (timing.go) replays the traces on a model of SMT
//     out-of-order cores with architectural queues, reference accelerators,
//     control-value handlers, a branch predictor, and the cache hierarchy,
//     producing cycle counts, stall breakdowns (Fig. 10), and energy (Fig. 11).
//
// The two-phase structure keeps values independent of timing. That is sound
// because pipelines are validated to give each queue a single consumer, making
// per-queue token order deterministic; cross-replica merge queues (Sec. IV-C)
// and the data-parallel baselines' benign races use the deterministic
// functional schedule (engine.go) and are replayed approximately.
package sim

import (
	"context"
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// RegInit sets an initial register value for a stage (scalar parameters).
type RegInit struct {
	Reg isa.Reg
	Val Value
}

// Stage is one pipeline stage bound to a hardware thread.
type Stage struct {
	Prog   *isa.Program
	Thread arch.ThreadID
	Init   []RegInit
}

// Machine is a complete simulation instance: configuration, memory image,
// array slots, queues, reference accelerators, and stage programs.
type Machine struct {
	Cfg   arch.Config
	Space *mem.Space

	// SlotNames and Slots define the array-slot table shared by all stages.
	// OpSwapSlots exchanges two bindings machine-wide.
	SlotNames []string
	Slots     []*mem.Array

	Queues []arch.QueueSpec
	RAs    []arch.RASpec
	Stages []*Stage

	// MaxTraceEntries caps functional-trace growth (guards against runaway
	// or livelocked programs). Zero means the default of 64M entries;
	// exceeding the cap fails the run with *TraceLimitError.
	MaxTraceEntries int

	// Faults, when non-nil, injects deterministic timing-only perturbations
	// into the timing phase (see TimingFaults). Functional results are
	// unaffected by construction.
	Faults *TimingFaults

	// Probe, when non-nil, observes timing-phase events (see Probe). A nil
	// probe costs one pointer test per instrumentation point and leaves
	// Stats bit-identical; probes never influence timing decisions.
	Probe Probe

	// Ctx, when non-nil, is polled cooperatively at amortized intervals
	// during both simulation phases; once cancelled, Run aborts with a
	// *CancelledError. A nil (or never-cancelled) context leaves behavior
	// and Stats bit-identical: the poll reads wall state only and never
	// influences simulation decisions.
	Ctx context.Context
}

// NewMachine creates a machine with the given configuration and an empty
// address space.
func NewMachine(cfg arch.Config) *Machine {
	return &Machine{Cfg: cfg, Space: mem.NewSpace()}
}

// AddSlot registers an array slot and returns its index.
func (m *Machine) AddSlot(name string, a *mem.Array) int {
	m.SlotNames = append(m.SlotNames, name)
	m.Slots = append(m.Slots, a)
	return len(m.Slots) - 1
}

// SlotIndex returns the slot with the given name, or -1.
func (m *Machine) SlotIndex(name string) int {
	for i, n := range m.SlotNames {
		if n == name {
			return i
		}
	}
	return -1
}

// AddQueue registers a queue and returns its id.
func (m *Machine) AddQueue(name string) int {
	m.Queues = append(m.Queues, arch.QueueSpec{Name: name})
	return len(m.Queues) - 1
}

// AddRA registers a reference accelerator.
func (m *Machine) AddRA(spec arch.RASpec) {
	m.RAs = append(m.RAs, spec)
}

// AddStage registers a stage program on a hardware thread.
func (m *Machine) AddStage(s *Stage) {
	m.Stages = append(m.Stages, s)
}

// Validate checks the machine for structural problems: programs well-formed,
// thread assignments unique and in range, every queue with exactly one
// consumer, RA endpoints sane, and Pipette resource limits respected.
func (m *Machine) Validate() error {
	if err := m.Cfg.Validate(); err != nil {
		return err
	}
	if len(m.Queues) > m.Cfg.MaxQueues*m.Cfg.Cores {
		return fmt.Errorf("sim: %d queues exceed limit of %d per core x %d cores",
			len(m.Queues), m.Cfg.MaxQueues, m.Cfg.Cores)
	}
	if len(m.RAs) > m.Cfg.MaxRAs*m.Cfg.Cores {
		return fmt.Errorf("sim: %d RAs exceed limit of %d per core x %d cores",
			len(m.RAs), m.Cfg.MaxRAs, m.Cfg.Cores)
	}
	seen := map[arch.ThreadID]bool{}
	consumers := make(map[int][]string) // queue -> consumer names
	for _, st := range m.Stages {
		if st.Prog == nil {
			return fmt.Errorf("sim: stage without program")
		}
		if err := st.Prog.Validate(len(m.Queues), len(m.Slots)); err != nil {
			return err
		}
		t := st.Thread
		if t.Core < 0 || t.Core >= m.Cfg.Cores || t.Thread < 0 || t.Thread >= m.Cfg.ThreadsPerCore {
			return fmt.Errorf("sim: stage %q on invalid thread %v", st.Prog.Name, t)
		}
		if seen[t] {
			return fmt.Errorf("sim: thread %v assigned twice", t)
		}
		seen[t] = true
		for _, in := range st.Prog.Instrs {
			if in.Op == isa.OpDeq || in.Op == isa.OpPeek {
				addOnce(consumers, in.Q, st.Prog.Name)
			}
		}
	}
	for _, ra := range m.RAs {
		if ra.InQ < 0 || ra.InQ >= len(m.Queues) || ra.OutQ < 0 || ra.OutQ >= len(m.Queues) {
			return fmt.Errorf("sim: RA %q has invalid queue endpoints", ra.Name)
		}
		if ra.Slot < 0 || ra.Slot >= len(m.Slots) {
			return fmt.Errorf("sim: RA %q has invalid slot %d", ra.Name, ra.Slot)
		}
		addOnce(consumers, ra.InQ, "ra:"+ra.Name)
	}
	// One consumer per queue; several producers are allowed (replica
	// distribution).
	for q := range m.Queues {
		if n := len(consumers[q]); n > 1 {
			return fmt.Errorf("sim: queue %d (%s) has %d consumers (%v); exactly one is required",
				q, m.Queues[q].Name, n, consumers[q])
		}
	}
	return nil
}

func addOnce(m map[int][]string, q int, name string) {
	for _, n := range m[q] {
		if n == name {
			return
		}
	}
	m[q] = append(m[q], name)
}

// queueDepth resolves a queue's capacity.
func (m *Machine) queueDepth(q int) int {
	return m.Queues[q].Capacity(m.Cfg.QueueDepth)
}
