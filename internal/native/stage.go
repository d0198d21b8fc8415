package native

import (
	"fmt"
	"math"

	"phloem/internal/isa"
	"phloem/internal/mem"
	"phloem/internal/sim"
)

// Stage wait states, saved when a stage blocks so a deadlock snapshot can
// say what it is waiting for.
const (
	wRunning = iota
	wDeq
	wEnq
	wBarrier
	wSwap
	wHalted
)

// stageExec is one stage as a resumable task: the interpreter's register
// file and pc, the control-value handler table, and what it last blocked on.
type stageExec struct {
	e  *engine
	st *sim.Stage
	// prodQ lists every queue this stage produces into, with fan-out
	// destinations expanded, mirroring the engine's producer census.
	prodQ []int

	regs []sim.Value
	pc   int
	// steps counts executed instructions; a blocked instruction is not
	// counted until it completes.
	steps uint64
	// handler maps queue id to handler pc (-1: none); nil when the
	// program never registers one.
	handler    []int
	handlerVal int64

	// state and waitQ describe the block at pc; barGen is the barrier
	// generation the stage arrived in.
	state, waitQ int
	barGen       uint64
}

func newStageExec(e *engine, st *sim.Stage, use isa.QueueUse) *stageExec {
	x := &stageExec{e: e, st: st, regs: make([]sim.Value, st.Prog.NumRegs)}
	for _, ri := range st.Init {
		x.regs[ri.Reg] = ri.Val
	}
	if use.HasHandler {
		x.handler = make([]int, len(e.queues))
		for i := range x.handler {
			x.handler[i] = -1
		}
	}
	return x
}

// trap records a functional trap with the same message the simulator
// would produce and aborts the run.
func (x *stageExec) trap(pc int, msg string) status {
	x.e.fail(&sim.TrapError{Stage: x.st.Prog.Name, PC: pc, Msg: msg})
	return failed
}

// block saves what the instruction at the current pc waits for.
func (x *stageExec) block(state, q int) { x.state, x.waitQ = state, q }

// step runs the stage program from its saved pc until it blocks, halts,
// or the run aborts (the engine's failure is already recorded by whoever
// aborted). An instruction that cannot complete — a dequeue or peek of an
// empty queue, an enqueue into a full one, an unreleased barrier, a slot
// swap while RAs are busy — leaves the pc on itself and is re-executed by
// the next step. Opcode semantics are a line-for-line port of the
// functional engine's runThread.
func (x *stageExec) step() (st status, worked bool) {
	e := x.e
	instrs := x.st.Prog.Instrs
	regs := x.regs
	pc, steps := x.pc, x.steps
	st = blocked

run:
	for {
		if pc < 0 || pc >= len(instrs) {
			st = x.trap(pc, "pc out of range")
			break
		}
		in := &instrs[pc]
		nextPC := pc + 1
		switch in.Op {
		case isa.OpNop:
		case isa.OpConst:
			regs[in.Dst] = sim.IntVal(in.Imm)
		case isa.OpMov:
			v := regs[in.A]
			v.Ctrl = false
			regs[in.Dst] = v
		case isa.OpIAdd:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits + regs[in.B].Bits)
		case isa.OpIAddImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits + in.Imm)
		case isa.OpISub:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits - regs[in.B].Bits)
		case isa.OpIMul:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits * regs[in.B].Bits)
		case isa.OpIMulImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits * in.Imm)
		case isa.OpIDiv:
			d := regs[in.B].Bits
			if d == 0 {
				st = x.trap(pc, "integer division by zero")
				break run
			}
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits / d)
		case isa.OpIRem:
			d := regs[in.B].Bits
			if d == 0 {
				st = x.trap(pc, "integer remainder by zero")
				break run
			}
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits % d)
		case isa.OpIAnd:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits & regs[in.B].Bits)
		case isa.OpIAndImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits & in.Imm)
		case isa.OpIOr:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits | regs[in.B].Bits)
		case isa.OpIXor:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits ^ regs[in.B].Bits)
		case isa.OpIShl:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits << uint(regs[in.B].Bits&63))
		case isa.OpIShr:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits >> uint(regs[in.B].Bits&63))
		case isa.OpIShrImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits >> uint(in.Imm&63))
		case isa.OpICmpEQ:
			regs[in.Dst] = boolVal(regs[in.A].Bits == regs[in.B].Bits)
		case isa.OpICmpNE:
			regs[in.Dst] = boolVal(regs[in.A].Bits != regs[in.B].Bits)
		case isa.OpICmpLT:
			regs[in.Dst] = boolVal(regs[in.A].Bits < regs[in.B].Bits)
		case isa.OpICmpLE:
			regs[in.Dst] = boolVal(regs[in.A].Bits <= regs[in.B].Bits)
		case isa.OpICmpGT:
			regs[in.Dst] = boolVal(regs[in.A].Bits > regs[in.B].Bits)
		case isa.OpICmpGE:
			regs[in.Dst] = boolVal(regs[in.A].Bits >= regs[in.B].Bits)
		case isa.OpFAdd:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() + regs[in.B].Float())
		case isa.OpFSub:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() - regs[in.B].Float())
		case isa.OpFMul:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() * regs[in.B].Float())
		case isa.OpFDiv:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() / regs[in.B].Float())
		case isa.OpFNeg:
			regs[in.Dst] = sim.FloatVal(-regs[in.A].Float())
		case isa.OpFAbs:
			regs[in.Dst] = sim.FloatVal(math.Abs(regs[in.A].Float()))
		case isa.OpFCmpEQ:
			regs[in.Dst] = boolVal(regs[in.A].Float() == regs[in.B].Float())
		case isa.OpFCmpNE:
			regs[in.Dst] = boolVal(regs[in.A].Float() != regs[in.B].Float())
		case isa.OpFCmpLT:
			regs[in.Dst] = boolVal(regs[in.A].Float() < regs[in.B].Float())
		case isa.OpFCmpLE:
			regs[in.Dst] = boolVal(regs[in.A].Float() <= regs[in.B].Float())
		case isa.OpFCmpGT:
			regs[in.Dst] = boolVal(regs[in.A].Float() > regs[in.B].Float())
		case isa.OpFCmpGE:
			regs[in.Dst] = boolVal(regs[in.A].Float() >= regs[in.B].Float())
		case isa.OpI2F:
			regs[in.Dst] = sim.FloatVal(float64(regs[in.A].Bits))
		case isa.OpF2I:
			regs[in.Dst] = sim.IntVal(int64(regs[in.A].Float()))

		case isa.OpLoad:
			a := e.slots[in.Slot].Load()
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("load %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			regs[in.Dst] = loadValue(a, idx)
		case isa.OpPrefetch:
			// Out-of-bounds prefetches are dropped, as hardware would; a
			// software interpreter has nothing useful to prefetch into.
		case isa.OpStore:
			a := e.slots[in.Slot].Load()
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("store %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			storeValue(a, idx, regs[in.B])

		case isa.OpEnq:
			if full := e.enq(in.Q, regs[in.A], true); full >= 0 {
				x.block(wEnq, full)
				break run
			}
		case isa.OpEnqCtrl:
			if full := e.enq(in.Q, sim.CtrlVal(in.Imm), false); full >= 0 {
				x.block(wEnq, full)
				break run
			}
		case isa.OpEnqCtrlV:
			if full := e.enq(in.Q, sim.CtrlVal(regs[in.A].Bits), false); full >= 0 {
				x.block(wEnq, full)
				break run
			}
		case isa.OpDeq:
			v, ok, _ := e.take(in.Q, true)
			if !ok {
				x.block(wDeq, in.Q)
				break run
			}
			if x.handler != nil && x.handler[in.Q] >= 0 && v.Ctrl {
				x.handlerVal = v.Bits
				nextPC = x.handler[in.Q]
			} else {
				regs[in.Dst] = v
			}
		case isa.OpPeek:
			v, ok, _ := e.take(in.Q, false)
			if !ok {
				x.block(wDeq, in.Q)
				break run
			}
			regs[in.Dst] = v
		case isa.OpIsCtrl:
			regs[in.Dst] = boolVal(regs[in.A].Ctrl)
		case isa.OpCtrlCode:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits)
		case isa.OpSetHandler:
			x.handler[in.Q] = in.Target
		case isa.OpHandlerVal:
			regs[in.Dst] = sim.IntVal(x.handlerVal)

		case isa.OpBr:
			if regs[in.A].Bits != 0 {
				nextPC = in.Target
			}
		case isa.OpBrZ:
			if regs[in.A].Bits == 0 {
				nextPC = in.Target
			}
		case isa.OpJmp:
			nextPC = in.Target
		case isa.OpHalt:
			steps++
			st = halted
			break run
		case isa.OpBarrier:
			if !e.barrier(x) {
				break run
			}
		case isa.OpSwapSlots:
			// Quiesce RAs first so in-flight accelerator work observes the
			// pre-swap bindings, matching the functional drain-then-swap.
			// Announcing the wait before looking means an RA that finishes
			// later sees it and wakes this core.
			if x.state != wSwap {
				x.state = wSwap
				e.swapWait.Add(1)
			}
			if !e.rasQuiet() {
				break run
			}
			x.state = wRunning
			e.swapWait.Add(-1)
			a := e.slots[in.Slot].Load()
			b := e.slots[in.Slot2].Load()
			e.slots[in.Slot].Store(b)
			e.slots[in.Slot2].Store(a)
		default:
			st = x.trap(pc, fmt.Sprintf("unimplemented op %v", in.Op))
			break run
		}
		pc = nextPC
		steps++
		if steps&(flushEvery-1) == 0 {
			e.bumpInstrs(flushEvery)
			if e.stopped.Load() {
				st = failed
				break
			}
		}
	}
	worked = steps != x.steps
	x.pc, x.steps = pc, steps
	if st == halted {
		x.state = wHalted
		// Halt leaves the loop before the periodic flush, so what is left
		// is 1..flushEvery instructions, never 0.
		e.bumpInstrs(((steps - 1) & (flushEvery - 1)) + 1)
		e.retire(x.prodQ, true)
	}
	return st, worked
}

func boolVal(b bool) sim.Value {
	if b {
		return sim.IntVal(1)
	}
	return sim.IntVal(0)
}

func loadValue(a *mem.Array, idx int64) sim.Value {
	if a.Kind == mem.F64 {
		return sim.FloatVal(a.LoadFloat(idx))
	}
	return sim.IntVal(a.LoadInt(idx))
}

func storeValue(a *mem.Array, idx int64, v sim.Value) {
	if a.Kind == mem.F64 {
		a.StoreFloat(idx, v.Float())
		return
	}
	a.StoreInt(idx, v.Bits)
}
