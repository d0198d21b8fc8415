// Package pipeline defines the compiler's output representation: a set of
// pipeline stages (IR statement lists) connected by queues and reference
// accelerators, plus the machinery to instantiate a pipeline on a simulated
// Pipette machine with concrete data bindings.
package pipeline

import (
	"fmt"
	"strings"
	"sync"

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

	// flat is the stages lowered once (FlattenStages). A pointer, so that a
	// copy of the Pipeline shares it and copying stays legal.
	flat *flatMemo
}

// NewSerial wraps an IR program as a single-stage "pipeline" (the serial
// baseline configuration).
func NewSerial(p *ir.Prog) *Pipeline {
	return &Pipeline{
		Prog: p,
		Stages: []*Stage{{
			Name:   p.Name + ".serial",
			Body:   p.Body,
			Thread: arch.ThreadID{Core: 0, Thread: 0},
		}},
		Description: "serial (1 stage)",
	}
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

// FlattenStage lowers one stage to its flat ISA program exactly the way
// Instantiate does (optimize then flatten), afresh on every call.
// FlattenStages returns the same programs lowered once per pipeline.
func FlattenStage(pl *Pipeline, st *Stage) (*isa.Program, error) {
	return lower.Flatten(pl.Prog, st.Name, ir.Optimize(pl.Prog, st.Body))
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
	progs, written, err := pl.flattened()
	if err != nil {
		return nil, err
	}
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

// FlattenStages returns every stage of pl lowered to its flat ISA program,
// in stage order, the way Instantiate does. A pipeline is lowered once and
// every later call, Instantiate's included, returns the same programs, so
// callers must change neither the slice nor the programs. On an error the
// slice is still returned, nil where a stage does not lower.
//
// A pipeline's stages are frozen once read: the lowering depends on
// Prog, Stages and each stage's Name and Body, and a writer must not change
// them in place after any reader has flattened the pipeline. Replacing a
// stage, appending to or dropping stages, or giving a stage a new Body
// slice is detected, and the pipeline is lowered again.
func FlattenStages(pl *Pipeline) ([]*isa.Program, error) {
	progs, _, err := pl.flattened()
	return progs, err
}

// flatMemo is a pipeline's stages lowered once: each stage's program or the
// error it fails with, and the slots the programs write. key and prog record
// what the lowering read, so that a stale memo is recognised.
type flatMemo struct {
	mu      sync.Mutex
	prog    *ir.Prog
	nvars   int
	nslots  int
	key     []stageKey
	progs   []*isa.Program
	errs    []error
	written []bool
}

// stageKey is what lowering one stage reads of it: the stage, its name, and
// its body slice.
type stageKey struct {
	st   *Stage
	name string
	body *ir.Stmt // &Body[0]; nil for an empty body
	n    int
}

func keyOf(st *Stage) stageKey {
	k := stageKey{st: st, name: st.Name, n: len(st.Body)}
	if k.n > 0 {
		k.body = &st.Body[0]
	}
	return k
}

// memoMu guards the allocation of every pipeline's memo; each memo guards
// its own contents.
var memoMu sync.Mutex

// flattened returns pl's stage programs and written slots, lowering the
// stages first if they never were or have changed since. The error is the
// first stage's that does not lower.
func (pl *Pipeline) flattened() (progs []*isa.Program, written []bool, err error) {
	memoMu.Lock()
	if pl.flat == nil {
		pl.flat = &flatMemo{}
	}
	fl := pl.flat
	memoMu.Unlock()

	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.current(pl) {
		fl.lower(pl)
	}
	for i, e := range fl.errs {
		if e != nil {
			err = fmt.Errorf("pipeline: flatten %s: %w", fl.key[i].name, e)
			break
		}
	}
	return fl.progs, fl.written, err
}

// current reports whether the memo was lowered from pl's present stages.
func (fl *flatMemo) current(pl *Pipeline) bool {
	if fl.key == nil || fl.prog != pl.Prog || fl.nvars != len(pl.Prog.Vars) ||
		fl.nslots != len(pl.Prog.Slots) || len(fl.key) != len(pl.Stages) {
		return false
	}
	for i, st := range pl.Stages {
		if fl.key[i] != keyOf(st) {
			return false
		}
	}
	return true
}

// lower fills the memo from pl's stages.
func (fl *flatMemo) lower(pl *Pipeline) {
	n := len(pl.Stages)
	fl.prog, fl.nvars, fl.nslots = pl.Prog, len(pl.Prog.Vars), len(pl.Prog.Slots)
	fl.key = make([]stageKey, n)
	fl.progs = make([]*isa.Program, n)
	fl.errs = make([]error, n)
	for i, st := range pl.Stages {
		fl.key[i] = keyOf(st)
		fl.progs[i], fl.errs[i] = FlattenStage(pl, st)
	}
	fl.written = writtenSlots(fl.progs, fl.nslots)
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
