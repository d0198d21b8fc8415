package sim

import (
	"fmt"
	"math"

	"phloem/internal/isa"
	"phloem/internal/mem"
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
	st *Stage
	// prodQ lists every queue this stage produces into, with fan-out
	// destinations expanded, mirroring the engine's producer census.
	prodQ []int

	regs []Value
	pc   int
	// steps counts executed instructions; a blocked instruction is not
	// counted until it completes, a barrier when the stage arrives at it.
	// flushed is how many of them the engine's shared counter has seen.
	steps, flushed uint64
	// handler maps queue id to handler pc (-1: none); nil when the
	// program never registers one.
	handler    []int
	handlerVal int64
	// trace is the stage's dynamic trace, one entry per counted
	// instruction, where the configuration keeps one. addr and flags are
	// the executing instruction's entry in the making, set by the arms that
	// know them and consumed by record (untraced: never computed, never read).
	trace []TEntry
	addr  uint64
	flags uint8

	// state and waitQ describe the block at pc; barGen is the barrier
	// generation the stage arrived in.
	state, waitQ int
	barGen       uint64
}

func newStageExec(e *engine, st *Stage, use isa.QueueUse) *stageExec {
	x := &stageExec{e: e, st: st, regs: make([]Value, st.Prog.NumRegs)}
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

// trap records a functional trap and aborts the run.
func (x *stageExec) trap(pc int, msg string) status {
	x.e.fail(&TrapError{Stage: x.st.Prog.Name, PC: pc, Msg: msg})
	return failed
}

// block saves what the instruction at the current pc waits for.
func (x *stageExec) block(state, q int) { x.state, x.waitQ = state, q }

// step runs the stage program from its saved pc until it blocks, halts,
// its functional turn is over, or the run aborts (whoever aborted has
// recorded the engine's failure). An instruction that cannot
// complete — a dequeue or peek of an empty queue, an enqueue into a full
// one, an unreleased barrier, a slot swap while RAs are busy — leaves the
// pc on itself and is re-executed by the next step. This switch is the
// only place opcode semantics are defined. Tracing costs the untraced
// configuration the predictable `if traced` tests and nothing else: the
// loop is at the edge of the register file, so the trace and its entry in
// the making live behind x, not in locals the untraced path would spill
// for (measured in EXPERIMENTS.md "One execution engine").
func (x *stageExec) step() (st status, worked bool) {
	e := x.e
	instrs := x.st.Prog.Instrs
	regs := x.regs
	pc, steps := x.pc, x.steps
	// The functional configuration keeps a trace and ends the turn after
	// quantum instructions.
	traced := e.quantum != 0
	turnEnd := steps + e.quantum
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
			regs[in.Dst] = IntVal(in.Imm)
		case isa.OpMov:
			v := regs[in.A]
			v.Ctrl = false
			regs[in.Dst] = v
		case isa.OpIAdd:
			regs[in.Dst] = IntVal(regs[in.A].Bits + regs[in.B].Bits)
		case isa.OpIAddImm:
			regs[in.Dst] = IntVal(regs[in.A].Bits + in.Imm)
		case isa.OpISub:
			regs[in.Dst] = IntVal(regs[in.A].Bits - regs[in.B].Bits)
		case isa.OpIMul:
			regs[in.Dst] = IntVal(regs[in.A].Bits * regs[in.B].Bits)
		case isa.OpIMulImm:
			regs[in.Dst] = IntVal(regs[in.A].Bits * in.Imm)
		case isa.OpIDiv:
			d := regs[in.B].Bits
			if d == 0 {
				st = x.trap(pc, "integer division by zero")
				break run
			}
			regs[in.Dst] = IntVal(regs[in.A].Bits / d)
		case isa.OpIRem:
			d := regs[in.B].Bits
			if d == 0 {
				st = x.trap(pc, "integer remainder by zero")
				break run
			}
			regs[in.Dst] = IntVal(regs[in.A].Bits % d)
		case isa.OpIAnd:
			regs[in.Dst] = IntVal(regs[in.A].Bits & regs[in.B].Bits)
		case isa.OpIAndImm:
			regs[in.Dst] = IntVal(regs[in.A].Bits & in.Imm)
		case isa.OpIOr:
			regs[in.Dst] = IntVal(regs[in.A].Bits | regs[in.B].Bits)
		case isa.OpIXor:
			regs[in.Dst] = IntVal(regs[in.A].Bits ^ regs[in.B].Bits)
		case isa.OpIShl:
			regs[in.Dst] = IntVal(regs[in.A].Bits << uint(regs[in.B].Bits&63))
		case isa.OpIShr:
			regs[in.Dst] = IntVal(regs[in.A].Bits >> uint(regs[in.B].Bits&63))
		case isa.OpIShrImm:
			regs[in.Dst] = IntVal(regs[in.A].Bits >> uint(in.Imm&63))
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
			regs[in.Dst] = FloatVal(regs[in.A].Float() + regs[in.B].Float())
		case isa.OpFSub:
			regs[in.Dst] = FloatVal(regs[in.A].Float() - regs[in.B].Float())
		case isa.OpFMul:
			regs[in.Dst] = FloatVal(regs[in.A].Float() * regs[in.B].Float())
		case isa.OpFDiv:
			regs[in.Dst] = FloatVal(regs[in.A].Float() / regs[in.B].Float())
		case isa.OpFNeg:
			regs[in.Dst] = FloatVal(-regs[in.A].Float())
		case isa.OpFAbs:
			regs[in.Dst] = FloatVal(math.Abs(regs[in.A].Float()))
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
			regs[in.Dst] = FloatVal(float64(regs[in.A].Bits))
		case isa.OpF2I:
			regs[in.Dst] = IntVal(int64(regs[in.A].Float()))

		case isa.OpLoad:
			a := e.slots[in.Slot].Load()
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("load %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			if traced {
				x.addr = a.Addr(idx)
			}
			regs[in.Dst] = loadValue(a, idx)
		case isa.OpPrefetch:
			// Out-of-bounds prefetches are dropped, as hardware would; the
			// interpreter has nothing to prefetch into, so only a trace
			// (for the timing model's caches) needs the address.
			if traced {
				a := e.slots[in.Slot].Load()
				if idx := regs[in.A].Bits; a.InBounds(idx) {
					x.addr = a.Addr(idx)
				}
			}
		case isa.OpStore:
			a := e.slots[in.Slot].Load()
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("store %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			if traced {
				x.addr = a.Addr(idx)
			}
			storeValue(a, idx, regs[in.B])

		case isa.OpEnq:
			if full := e.enq(in.Q, regs[in.A], true); full >= 0 {
				x.block(wEnq, full)
				break run
			}
		case isa.OpEnqCtrl, isa.OpEnqCtrlV:
			code := in.Imm
			if in.Op == isa.OpEnqCtrlV {
				code = regs[in.A].Bits
			}
			if full := e.enq(in.Q, CtrlVal(code), false); full >= 0 {
				x.block(wEnq, full)
				break run
			}
			x.flag(traced, FlagCtrlDeq)
		case isa.OpDeq:
			v, ok, _ := e.take(in.Q, true)
			if !ok {
				x.block(wDeq, in.Q)
				break run
			}
			if v.Ctrl {
				x.flag(traced, FlagCtrlDeq)
			}
			if x.handler != nil && x.handler[in.Q] >= 0 && v.Ctrl {
				x.handlerVal = v.Bits
				nextPC = x.handler[in.Q]
				x.flag(traced, FlagHandlerFire)
			} else {
				regs[in.Dst] = v
			}
		case isa.OpPeek:
			v, ok, _ := e.take(in.Q, false)
			if !ok {
				x.block(wDeq, in.Q)
				break run
			}
			if v.Ctrl {
				x.flag(traced, FlagCtrlDeq)
			}
			regs[in.Dst] = v
		case isa.OpIsCtrl:
			regs[in.Dst] = boolVal(regs[in.A].Ctrl)
		case isa.OpCtrlCode:
			regs[in.Dst] = IntVal(regs[in.A].Bits)
		case isa.OpSetHandler:
			x.handler[in.Q] = in.Target
		case isa.OpHandlerVal:
			regs[in.Dst] = IntVal(x.handlerVal)

		case isa.OpBr:
			if regs[in.A].Bits != 0 {
				nextPC = in.Target
				x.flag(traced, FlagTaken)
			}
		case isa.OpBrZ:
			if regs[in.A].Bits == 0 {
				nextPC = in.Target
				x.flag(traced, FlagTaken)
			}
		case isa.OpJmp:
			nextPC = in.Target
			x.flag(traced, FlagTaken)
		case isa.OpHalt:
			if traced {
				x.record(pc)
			}
			steps++
			st = halted
			break run
		case isa.OpBarrier:
			// A barrier is counted once, when the stage arrives; the pc
			// moves on when every live stage has.
			if x.state != wBarrier {
				if traced {
					x.record(pc)
				}
				steps++
			}
			if !e.barrier(x) {
				break run
			}
			pc = nextPC
			continue
		case isa.OpSwapSlots:
			// Quiesce RAs first so in-flight accelerator work observes the
			// pre-swap bindings (hardware would quiesce the RA). Announcing
			// the wait before looking means an RA that finishes later sees
			// it and wakes this core; the functional configuration's RAs
			// run on this goroutine, so it drains them here instead.
			if x.state != wSwap {
				x.state = wSwap
				e.swapWait.Add(1)
			}
			if e.quantum != 0 {
				if _, ok := e.drainRAs(); !ok {
					st = failed
					break run
				}
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
		steps++
		switch {
		case traced:
			x.record(pc)
			if steps == turnEnd {
				pc = nextPC
				break run
			}
		case steps&(flushEvery-1) == 0:
			// Natively: flush to the shared counter and poll the stop flag.
			e.bumpInstrs(steps - x.flushed)
			x.flushed = steps
			if e.stopped.Load() {
				st = failed
				break run
			}
		}
		pc = nextPC
	}
	worked = steps != x.steps || pc != x.pc
	x.pc, x.steps = pc, steps
	if st == halted {
		x.state = wHalted
		if e.quantum == 0 {
			e.bumpInstrs(steps - x.flushed)
		}
		e.retire(x.prodQ, true)
	}
	return st, worked
}

// flag adds f to the flags of the executing instruction's trace entry.
func (x *stageExec) flag(traced bool, f uint8) {
	if traced {
		x.flags |= f
	}
}

// record appends the trace entry of the instruction at pc. Out of line:
// inlined, the append costs the untraced loop more than the call costs here.
//
//go:noinline
func (x *stageExec) record(pc int) {
	x.trace = addTrace(x.trace, TEntry{Addr: x.addr, PC: int32(pc), Flags: x.flags})
	x.addr, x.flags = 0, 0
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func loadValue(a *mem.Array, idx int64) Value {
	if a.Kind == mem.F64 {
		return FloatVal(a.LoadFloat(idx))
	}
	return IntVal(a.LoadInt(idx))
}

func storeValue(a *mem.Array, idx int64, v Value) {
	if a.Kind == mem.F64 {
		a.StoreFloat(idx, v.Float())
		return
	}
	a.StoreInt(idx, v.Bits)
}
