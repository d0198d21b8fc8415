// Package pipeline defines the compiler's output representation: a set of
// pipeline stages (IR statement lists) connected by queues and reference
// accelerators, plus the machinery to instantiate a pipeline on a simulated
// Pipette machine with concrete data bindings.
package pipeline

import (
	"fmt"
	"strings"

	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/isa"
	"phloem/internal/lower"
	"phloem/internal/mem"
	"phloem/internal/sim"
)

// Stage is one pipeline stage.
type Stage struct {
	Name   string
	Body   []ir.Stmt
	Thread arch.ThreadID
	// Overrides replaces scalar parameter values for this stage (e.g., a
	// data-parallel worker's thread id, a replica's partition base).
	Overrides map[string]int64

	// program is Body lowered by the last Lower; nil before it, or when the
	// stage does not lower.
	program *isa.Program
}

// Queue declares one architectural queue used by the pipeline.
type Queue struct {
	Name string
	// Depth overrides the machine default when > 0.
	Depth int
	// DepthByPass marks Depth as assigned by a compiler pass (commopt)
	// rather than set explicitly by the pipeline author. Passes must never
	// override a user-set depth, and the verifier distinguishes the two
	// when reporting undersized queues (W1 user-set vs W2 pass-assigned).
	DepthByPass bool
}

// Pipeline is a compiled kernel: stages, queues, and reference accelerators
// over the variable/slot tables of the underlying IR program.
type Pipeline struct {
	Prog   *ir.Prog
	Stages []*Stage
	Queues []Queue
	RAs    []arch.RASpec
	// FanOuts is always empty: the machine has no multicast, and
	// Instantiate rejects a pipeline that lists one. The benchmark harness
	// still reads the field, which ROADMAP schedules for deletion.
	FanOuts []arch.FanOut
	// Description summarizes how the pipeline was derived (for reports).
	Description string
}

// NewSerial wraps an IR program as a single-stage "pipeline" (the serial
// baseline configuration), lowered.
func NewSerial(p *ir.Prog) *Pipeline {
	pl := &Pipeline{
		Prog: p,
		Stages: []*Stage{{
			Name:   p.Name + ".serial",
			Body:   p.Body,
			Thread: arch.ThreadID{Core: 0, Thread: 0},
		}},
		Description: "serial (1 stage)",
	}
	Lower(pl)
	return pl
}

// AddQueue appends a queue and returns its id.
func (pl *Pipeline) AddQueue(name string) int {
	pl.Queues = append(pl.Queues, Queue{Name: name})
	return len(pl.Queues) - 1
}

// NumStages returns the number of software stages (threads), excluding RAs.
func (pl *Pipeline) NumStages() int { return len(pl.Stages) }

// TotalStages counts stages the way Fig. 13 does: software stages plus
// reference accelerators.
func (pl *Pipeline) TotalStages() int { return len(pl.Stages) + len(pl.RAs) }

// Describe renders a human-readable structural summary.
func (pl *Pipeline) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline %s: %d stages + %d RAs, %d queues (%s)\n",
		pl.Prog.Name, len(pl.Stages), len(pl.RAs), len(pl.Queues), pl.Description)
	for _, st := range pl.Stages {
		fmt.Fprintf(&sb, "  stage %-24s on %s\n", st.Name, st.Thread)
	}
	for _, ra := range pl.RAs {
		fmt.Fprintf(&sb, "  %s\n", ra.String())
	}
	return sb.String()
}

// DumpStages renders every stage's IR (debugging aid).
func (pl *Pipeline) DumpStages() string {
	var sb strings.Builder
	for _, st := range pl.Stages {
		fmt.Fprintf(&sb, "--- stage %s (%s)\n", st.Name, st.Thread)
		sb.WriteString(pl.Prog.PrintStmts(st.Body))
	}
	return sb.String()
}

// Lower lowers every stage of pl afresh (optimize then flatten) and stores
// the program on the stage, nil where a stage does not lower; the readers
// report that error. Call it once a pipeline's stages are final: an edit to
// a stage takes effect at the next Lower. Stages that share one Body slice
// (data-parallel workers) share one lowering, each under its own Name.
func Lower(pl *Pipeline) {
	for i, st := range pl.Stages {
		st.program = nil
		for _, prev := range pl.Stages[:i] {
			if prev.program != nil && sameBody(prev.Body, st.Body) {
				c := *prev.program
				c.Name = st.Name
				st.program = &c
				break
			}
		}
		if prog, err := FlattenStage(pl, st); err == nil {
			st.program = prog
		}
	}
}

// sameBody reports whether a and b are one non-empty slice.
func sameBody(a, b []ir.Stmt) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// FlattenStage returns st's flat ISA program, the one Instantiate runs: the
// program the last Lower stored on the stage, or, for a stage that has none
// or did not lower, the stage lowered afresh (not stored). Callers must not
// change the program.
func FlattenStage(pl *Pipeline, st *Stage) (*isa.Program, error) {
	if st.program != nil {
		return st.program, nil
	}
	return lower.Flatten(pl.Prog, st.Name, ir.Optimize(pl.Prog, st.Body))
}

// FlattenStages returns FlattenStage of every stage of pl, in stage order.
// On an error the slice is still returned, nil where a stage does not lower,
// and the error is the first such stage's.
func FlattenStages(pl *Pipeline) ([]*isa.Program, error) {
	progs := make([]*isa.Program, len(pl.Stages))
	var first error
	for i, st := range pl.Stages {
		var err error
		if progs[i], err = FlattenStage(pl, st); err != nil && first == nil {
			first = fmt.Errorf("pipeline: flatten %s: %w", st.Name, err)
		}
	}
	return progs, first
}

// Bindings supplies concrete data for a pipeline run. Instantiate copies
// the arrays that some stage stores to or swaps into the simulated address
// space; every other array is bound to the caller's slice itself, which the
// run only reads. Results are read back from the Instance.
type Bindings struct {
	// Ints maps int-array slot names to initial contents.
	Ints map[string][]int64
	// Floats maps float-array slot names to initial contents.
	Floats map[string][]float64
	// Scalars maps scalar parameter names to values.
	Scalars map[string]int64
	// FloatScalars maps float scalar parameters to values.
	FloatScalars map[string]float64
}

// Instance is an instantiated pipeline ready to Run. Its never-written
// Arrays share storage with the Bindings they were made from, so one set of
// Bindings can back many instances, also concurrently, as long as nothing
// writes those slices while the instances live.
type Instance struct {
	Machine *sim.Machine
	Arrays  map[string]*mem.Array
}

// Instantiate builds a simulated machine for the pipeline with the given
// configuration and data bindings.
func Instantiate(pl *Pipeline, cfg arch.Config, b Bindings) (*Instance, error) {
	if err := pl.noFanOuts(); err != nil {
		return nil, err
	}
	progs, err := FlattenStages(pl)
	if err != nil {
		return nil, err
	}
	written := writtenSlots(progs, len(pl.Prog.Slots))
	m := sim.NewMachine(cfg)
	inst := &Instance{Machine: m, Arrays: map[string]*mem.Array{}}

	for i, slot := range pl.Prog.Slots {
		var a *mem.Array
		switch slot.Kind {
		case ir.KFloat:
			data, ok := b.Floats[slot.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: no binding for float array %q", slot.Name)
			}
			if written[i] {
				a = m.Space.AllocFloats(slot.Name, data)
			} else {
				a = m.Space.AliasFloats(slot.Name, data)
			}
		default:
			data, ok := b.Ints[slot.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: no binding for int array %q", slot.Name)
			}
			if written[i] {
				a = m.Space.AllocInts(slot.Name, data)
			} else {
				a = m.Space.AliasInts(slot.Name, data)
			}
		}
		m.AddSlot(slot.Name, a)
		inst.Arrays[slot.Name] = a
	}
	for _, q := range pl.Queues {
		m.Queues = append(m.Queues, arch.QueueSpec{Name: q.Name, Depth: q.Depth, DepthByPass: q.DepthByPass})
	}
	for _, ra := range pl.RAs {
		m.AddRA(ra)
	}

	// Scalar parameter initial values, broadcast to every stage.
	var inits []sim.RegInit
	for _, v := range pl.Prog.ScalarParams {
		info := pl.Prog.Vars[v]
		var val sim.Value
		if info.Kind == ir.KFloat {
			fv, ok := b.FloatScalars[info.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: no binding for float scalar %q", info.Name)
			}
			val = sim.FloatVal(fv)
		} else {
			iv, ok := b.Scalars[info.Name]
			if !ok {
				return nil, fmt.Errorf("pipeline: no binding for scalar %q", info.Name)
			}
			val = sim.IntVal(iv)
		}
		inits = append(inits, sim.RegInit{Reg: isa.Reg(v), Val: val})
	}

	for i, st := range pl.Stages {
		stInits := inits
		if len(st.Overrides) > 0 {
			stInits = append([]sim.RegInit(nil), inits...)
			for _, v := range pl.Prog.ScalarParams {
				if ov, ok := st.Overrides[pl.Prog.Vars[v].Name]; ok {
					stInits = append(stInits, sim.RegInit{Reg: isa.Reg(v), Val: sim.IntVal(ov)})
				}
			}
		}
		m.AddStage(&sim.Stage{Prog: progs[i], Thread: st.Thread, Init: stInits})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// noFanOuts rejects a hand-built pipeline that lists fan-outs rather than
// dropping them: the machine has no multicast.
func (pl *Pipeline) noFanOuts() error {
	if len(pl.FanOuts) > 0 {
		return fmt.Errorf("pipeline: %s lists %d fan-outs; the machine has no multicast", pl.Prog.Name, len(pl.FanOuts))
	}
	return nil
}

// writtenSlots marks each slot that some program stores to or swaps. RAs
// only read, so they mark nothing; an unmarked slot's array is never
// written by a run.
func writtenSlots(progs []*isa.Program, slots int) []bool {
	written := make([]bool, slots)
	mark := func(s int) {
		if s >= 0 && s < slots {
			written[s] = true
		}
	}
	for _, p := range progs {
		if p == nil {
			continue
		}
		for i := range p.Instrs {
			switch in := &p.Instrs[i]; in.Op {
			case isa.OpStore:
				mark(in.Slot)
			case isa.OpSwapSlots:
				mark(in.Slot)
				mark(in.Slot2)
			}
		}
	}
	return written
}

// Run instantiates and executes the pipeline, returning timing statistics.
// Functional results are available through inst.Arrays.
func (inst *Instance) Run() (*sim.Stats, error) {
	return inst.Machine.Run()
}
