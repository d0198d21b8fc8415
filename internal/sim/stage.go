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

// instr is an isa.Instr as the evaluator runs it, in 24 bytes against 56.
// k holds the immediate, the array slot, or the branch or handler target.
// Queue ops keep their queue in b and SwapSlots its second slot, since
// none of them reads a B register. op is an isa opcode or one of the
// decoded-only opcodes below; takenOn belongs to the fused ones.
type instr struct {
	op        isa.Op
	takenOn   bool
	dst, a, b isa.Reg
	k         int64
}

// Opcodes that exist only in decoded programs, never in an isa.Program.
// They continue isa's numbering so the evaluator's switch stays dense.
// opEnd is the sentinel at len(Instrs): Program.Validate rejects
// out-of-range targets, so falling off the end is the only way out of
// range. opEQBr..opGEBr each fuse an integer compare (in order EQ, NE, LT,
// LE, GT, GE) with the Br or BrZ on its result that follows it.
const (
	opEnd = isa.OpSwapSlots + 1 + iota
	opEQBr
	opNEBr
	opLTBr
	opLEBr
	opGTBr
	opGEBr
)

// predecode turns p into the evaluator's form in buf, grown if it is too
// short, with the opEnd sentinel appended. With fuse set, every ICmp
// immediately followed by a Br or BrZ on the compare's destination becomes
// one fused op at the compare's pc: it writes the compare's register,
// counts two instructions, and goes to the branch target when the compare
// gave takenOn (true for Br, false for BrZ). The branch stays as it was at pc+1, so a jump straight to it is
// unaffected. The traced configuration does not fuse: a trace entry, and
// a turn boundary, belong to each instruction of the pair.
func predecode(buf []instr, p *isa.Program, fuse bool) []instr {
	code := cleared(buf, len(p.Instrs)+1)
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		d := instr{op: in.Op, dst: in.Dst, a: in.A, b: in.B, k: in.Imm}
		switch in.Op {
		case isa.OpLoad, isa.OpStore, isa.OpPrefetch:
			d.k = int64(in.Slot)
		case isa.OpSwapSlots:
			d.k, d.b = int64(in.Slot), isa.Reg(in.Slot2)
		case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV, isa.OpDeq, isa.OpPeek:
			d.b = isa.Reg(in.Q)
		case isa.OpSetHandler:
			d.k, d.b = int64(in.Target), isa.Reg(in.Q)
		case isa.OpBr, isa.OpBrZ, isa.OpJmp:
			d.k = int64(in.Target)
		case isa.OpICmpEQ, isa.OpICmpNE, isa.OpICmpLT, isa.OpICmpLE, isa.OpICmpGT, isa.OpICmpGE:
			if !fuse || pc+1 == len(p.Instrs) {
				break
			}
			if br := &p.Instrs[pc+1]; br.A == in.Dst && (br.Op == isa.OpBr || br.Op == isa.OpBrZ) {
				d.op = opEQBr + (in.Op - isa.OpICmpEQ)
				d.k = int64(br.Target)
				d.takenOn = br.Op == isa.OpBr
			}
		}
		code[pc] = d
	}
	code[len(p.Instrs)].op = opEnd
	return code
}

// stageExec is one stage as a resumable task: the interpreter's register
// file, decoded program and pc, the control-value handler table, and what
// it last blocked on.
type stageExec struct {
	e  *engine
	st *Stage
	// prodQ lists every queue this stage produces into: its entries in the
	// engine's producer census.
	prodQ []int

	code []instr
	regs []Value
	pc   int
	// steps counts executed instructions (a fused pair as two); a blocked
	// instruction is not counted until it completes, a barrier when the
	// stage arrives at it. flushed is how many of them the engine's shared
	// counter has seen.
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

// newStageExec sets stage st up at its first instruction, with its code,
// register file and handler table carved from the run's memory.
func newStageExec(e *engine, st *Stage, use isa.QueueUse) *stageExec {
	x := &stageExec{e: e, st: st, prodQ: use.Produces}
	x.code = predecode(e.mem.carveCode(len(st.Prog.Instrs)+1), st.Prog, e.quantum == 0)
	x.regs = e.mem.carveValues(st.Prog.NumRegs)
	for _, ri := range st.Init {
		x.regs[ri.Reg] = ri.Val
	}
	if use.HasHandler {
		x.handler = e.mem.carveInts(len(e.queues))
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
// for (measured in EXPERIMENTS.md "One execution engine"). Queue ops on a
// ring this goroutine alone touches take the queue's inlined fast path and
// call the engine only when it cannot serve them.
func (x *stageExec) step() (st status, worked bool) {
	e := x.e
	code := x.code
	regs := x.regs
	pc, steps := x.pc, x.steps
	// The functional configuration keeps a trace and ends the turn after
	// quantum instructions; the native one flushes its count and polls the
	// stop flag every flushEvery. Either happens when steps reaches limit.
	traced := e.quantum != 0
	limit := x.flushed + flushEvery
	if traced {
		limit = steps + e.quantum
	}
	st = blocked

run:
	for {
		in := &code[pc]
		nextPC := pc + 1
		switch in.op {
		case opEnd:
			st = x.trap(pc, "pc out of range")
			break run
		// Fused pairs (untraced only): the steps+1 here counts the branch,
		// the common increment below the compare.
		case opEQBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits == regs[in.b].Bits), steps+1
		case opNEBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits != regs[in.b].Bits), steps+1
		case opLTBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits < regs[in.b].Bits), steps+1
		case opLEBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits <= regs[in.b].Bits), steps+1
		case opGTBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits > regs[in.b].Bits), steps+1
		case opGEBr:
			nextPC, steps = cmpBr(regs, in, pc, regs[in.a].Bits >= regs[in.b].Bits), steps+1
		case isa.OpNop:
		case isa.OpConst:
			regs[in.dst] = IntVal(in.k)
		case isa.OpMov:
			v := regs[in.a]
			v.Ctrl = false
			regs[in.dst] = v
		case isa.OpIAdd:
			regs[in.dst] = IntVal(regs[in.a].Bits + regs[in.b].Bits)
		case isa.OpIAddImm:
			regs[in.dst] = IntVal(regs[in.a].Bits + in.k)
		case isa.OpISub:
			regs[in.dst] = IntVal(regs[in.a].Bits - regs[in.b].Bits)
		case isa.OpIMul:
			regs[in.dst] = IntVal(regs[in.a].Bits * regs[in.b].Bits)
		case isa.OpIMulImm:
			regs[in.dst] = IntVal(regs[in.a].Bits * in.k)
		case isa.OpIDiv:
			d := regs[in.b].Bits
			if d == 0 {
				st = x.trap(pc, "integer division by zero")
				break run
			}
			regs[in.dst] = IntVal(regs[in.a].Bits / d)
		case isa.OpIRem:
			d := regs[in.b].Bits
			if d == 0 {
				st = x.trap(pc, "integer remainder by zero")
				break run
			}
			regs[in.dst] = IntVal(regs[in.a].Bits % d)
		case isa.OpIAnd:
			regs[in.dst] = IntVal(regs[in.a].Bits & regs[in.b].Bits)
		case isa.OpIAndImm:
			regs[in.dst] = IntVal(regs[in.a].Bits & in.k)
		case isa.OpIOr:
			regs[in.dst] = IntVal(regs[in.a].Bits | regs[in.b].Bits)
		case isa.OpIXor:
			regs[in.dst] = IntVal(regs[in.a].Bits ^ regs[in.b].Bits)
		case isa.OpIShl:
			regs[in.dst] = IntVal(regs[in.a].Bits << uint(regs[in.b].Bits&63))
		case isa.OpIShr:
			regs[in.dst] = IntVal(regs[in.a].Bits >> uint(regs[in.b].Bits&63))
		case isa.OpIShrImm:
			regs[in.dst] = IntVal(regs[in.a].Bits >> uint(in.k&63))
		case isa.OpICmpEQ:
			regs[in.dst] = boolVal(regs[in.a].Bits == regs[in.b].Bits)
		case isa.OpICmpNE:
			regs[in.dst] = boolVal(regs[in.a].Bits != regs[in.b].Bits)
		case isa.OpICmpLT:
			regs[in.dst] = boolVal(regs[in.a].Bits < regs[in.b].Bits)
		case isa.OpICmpLE:
			regs[in.dst] = boolVal(regs[in.a].Bits <= regs[in.b].Bits)
		case isa.OpICmpGT:
			regs[in.dst] = boolVal(regs[in.a].Bits > regs[in.b].Bits)
		case isa.OpICmpGE:
			regs[in.dst] = boolVal(regs[in.a].Bits >= regs[in.b].Bits)
		case isa.OpFAdd:
			regs[in.dst] = FloatVal(regs[in.a].Float() + regs[in.b].Float())
		case isa.OpFSub:
			regs[in.dst] = FloatVal(regs[in.a].Float() - regs[in.b].Float())
		case isa.OpFMul:
			regs[in.dst] = FloatVal(regs[in.a].Float() * regs[in.b].Float())
		case isa.OpFDiv:
			regs[in.dst] = FloatVal(regs[in.a].Float() / regs[in.b].Float())
		case isa.OpFNeg:
			regs[in.dst] = FloatVal(-regs[in.a].Float())
		case isa.OpFAbs:
			regs[in.dst] = FloatVal(math.Abs(regs[in.a].Float()))
		case isa.OpFCmpEQ:
			regs[in.dst] = boolVal(regs[in.a].Float() == regs[in.b].Float())
		case isa.OpFCmpNE:
			regs[in.dst] = boolVal(regs[in.a].Float() != regs[in.b].Float())
		case isa.OpFCmpLT:
			regs[in.dst] = boolVal(regs[in.a].Float() < regs[in.b].Float())
		case isa.OpFCmpLE:
			regs[in.dst] = boolVal(regs[in.a].Float() <= regs[in.b].Float())
		case isa.OpFCmpGT:
			regs[in.dst] = boolVal(regs[in.a].Float() > regs[in.b].Float())
		case isa.OpFCmpGE:
			regs[in.dst] = boolVal(regs[in.a].Float() >= regs[in.b].Float())
		case isa.OpI2F:
			regs[in.dst] = FloatVal(float64(regs[in.a].Bits))
		case isa.OpF2I:
			regs[in.dst] = IntVal(int64(regs[in.a].Float()))

		case isa.OpLoad:
			a := e.slots[in.k].Load()
			idx := regs[in.a].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("load %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			if traced {
				x.addr = a.Addr(idx)
			}
			regs[in.dst] = loadValue(a, idx)
		case isa.OpPrefetch:
			// Out-of-bounds prefetches are dropped, as hardware would; the
			// interpreter has nothing to prefetch into, so only a trace
			// (for the timing model's caches) needs the address.
			if traced {
				a := e.slots[in.k].Load()
				if idx := regs[in.a].Bits; a.InBounds(idx) {
					x.addr = a.Addr(idx)
				}
			}
		case isa.OpStore:
			a := e.slots[in.k].Load()
			idx := regs[in.a].Bits
			if !a.InBounds(idx) {
				st = x.trap(pc, fmt.Sprintf("store %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
				break run
			}
			if traced {
				x.addr = a.Addr(idx)
			}
			storeValue(a, idx, regs[in.b])

		case isa.OpEnq:
			if !e.queues[in.b].tryPush(regs[in.a]) {
				if !e.enq(int(in.b), regs[in.a]) {
					x.block(wEnq, int(in.b))
					break run
				}
			}
		case isa.OpEnqCtrl, isa.OpEnqCtrlV:
			v := CtrlVal(in.k)
			if in.op == isa.OpEnqCtrlV {
				v.Bits = regs[in.a].Bits
			}
			if !e.queues[in.b].tryPush(v) {
				if !e.enq(int(in.b), v) {
					x.block(wEnq, int(in.b))
					break run
				}
			}
			x.flag(traced, FlagCtrlDeq)
		case isa.OpDeq:
			q := &e.queues[in.b]
			v, ok := q.tryPop()
			if !ok && q.shared {
				v, ok, _ = e.take(int(in.b), true)
			}
			if !ok {
				x.block(wDeq, int(in.b))
				break run
			}
			if !v.Ctrl {
				regs[in.dst] = v
				break
			}
			x.flag(traced, FlagCtrlDeq)
			if x.handler != nil && x.handler[in.b] >= 0 {
				x.handlerVal = v.Bits
				nextPC = x.handler[in.b]
				x.flag(traced, FlagHandlerFire)
			} else {
				regs[in.dst] = v
			}
		case isa.OpPeek:
			q := &e.queues[in.b]
			v, ok := q.tryPeek()
			if !ok && q.shared {
				v, ok, _ = e.take(int(in.b), false)
			}
			if !ok {
				x.block(wDeq, int(in.b))
				break run
			}
			if v.Ctrl {
				x.flag(traced, FlagCtrlDeq)
			}
			regs[in.dst] = v
		case isa.OpIsCtrl:
			regs[in.dst] = boolVal(regs[in.a].Ctrl)
		case isa.OpCtrlCode:
			regs[in.dst] = IntVal(regs[in.a].Bits)
		case isa.OpSetHandler:
			x.handler[in.b] = int(in.k)
		case isa.OpHandlerVal:
			regs[in.dst] = IntVal(x.handlerVal)

		case isa.OpBr:
			if regs[in.a].Bits != 0 {
				nextPC = int(in.k)
				x.flag(traced, FlagTaken)
			}
		case isa.OpBrZ:
			if regs[in.a].Bits == 0 {
				nextPC = int(in.k)
				x.flag(traced, FlagTaken)
			}
		case isa.OpJmp:
			nextPC = int(in.k)
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
			// Quiesce the RAs that can see the swap first, so their
			// in-flight work observes the pre-swap bindings (hardware would
			// quiesce them). Announcing the wait before looking means an RA
			// on another core that finishes later sees it and wakes this
			// core; the functional configuration's RAs run on this
			// goroutine, so it drains them here instead.
			if x.state != wSwap {
				x.state = wSwap
				e.swapWait.Add(1)
			}
			if e.quantum != 0 && !e.swapDrain() {
				st = failed
				break run
			}
			if !e.rasQuiet(int(in.k), int(in.b)) {
				break run
			}
			x.state = wRunning
			e.swapWait.Add(-1)
			a := e.slots[in.k].Load()
			b := e.slots[in.b].Load()
			e.slots[in.k].Store(b)
			e.slots[in.b].Store(a)
		default:
			st = x.trap(pc, fmt.Sprintf("unimplemented op %v", in.op))
			break run
		}
		steps++
		switch {
		case traced:
			x.record(pc)
			if steps == limit {
				pc = nextPC
				break run
			}
		case steps >= limit:
			// Natively: flush to the shared counter and poll the stop flag.
			// A countdown, not a mask: a fused op counts two, so steps can
			// step over every multiple of flushEvery.
			e.bumpInstrs(steps - x.flushed)
			x.flushed = steps
			limit = steps + flushEvery
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

// cmpBr completes the fused compare-and-branch in at pc whose compare gave
// c: it writes the compare's register and returns the pc after the branch.
func cmpBr(regs []Value, in *instr, pc int, c bool) int {
	regs[in.dst] = boolVal(c)
	if c == in.takenOn {
		return int(in.k)
	}
	return pc + 2
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
	x.trace = addTrace(x.e.stageBufs, x.trace, TEntry{Addr: x.addr, PC: int32(pc), Flags: x.flags})
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
