// Package isa defines the flat register-machine instruction set that Phloem
// pipeline stages are lowered to and that the Pipette machine model executes.
//
// The ISA mirrors a conventional scalar ISA extended with Pipette's queue
// interface (Table I of the paper): enq/deq/peek, control-value enqueue and
// test, and control-value handler registration. Each pipeline stage is one
// Program executed by one SMT thread.
//
// Values are 64-bit and carry a hardware "control" tag bit, exactly like
// Pipette's in-band control values: ALU operations clear the tag, queue
// operations preserve it, and IsCtrl tests it.
package isa

import "fmt"

// Reg names a virtual register within one stage. Stages have private register
// files; communication between stages happens only through queues and memory.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Op enumerates instruction opcodes.
type Op uint8

const (
	OpNop Op = iota

	// Data movement and constants.
	OpConst // Dst = Imm
	OpMov   // Dst = A

	// Integer ALU.
	OpIAdd    // Dst = A + B
	OpIAddImm // Dst = A + Imm
	OpISub    // Dst = A - B
	OpIMul    // Dst = A * B
	OpIMulImm // Dst = A * Imm
	OpIDiv    // Dst = A / B (traps on 0 in the functional model)
	OpIRem    // Dst = A % B
	OpIAnd    // Dst = A & B
	OpIOr     // Dst = A | B
	OpIXor    // Dst = A ^ B
	OpIShl    // Dst = A << B
	OpIShr    // Dst = A >> B (arithmetic)
	OpIAndImm // Dst = A & Imm
	OpIShrImm // Dst = A >> Imm (arithmetic)

	// Integer comparisons (Dst = 0 or 1).
	OpICmpEQ
	OpICmpNE
	OpICmpLT
	OpICmpLE
	OpICmpGT
	OpICmpGE

	// Floating point (operands are float64 bit patterns in registers).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFAbs
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE
	OpI2F // Dst = float64(A)
	OpF2I // Dst = int64(float value in A), truncating

	// Memory. Slot selects an array slot; the machine resolves the slot to
	// the currently bound array (bindings can change at SwapSlots).
	OpLoad     // Dst = slot[A]
	OpStore    // slot[A] = B
	OpPrefetch // touch slot[A] (no result; warms the cache)

	// Queue interface (Table I).
	OpEnq      // enq(Q, A)
	OpEnqCtrl  // enq_ctrl(Q, Imm) — enqueue control value with code Imm
	OpEnqCtrlV // enq_ctrl(Q, A) — enqueue control value with code from reg A
	OpDeq      // Dst = deq(Q)
	OpPeek     // Dst = peek(Q)
	OpIsCtrl   // Dst = is_control(A)
	OpCtrlCode // Dst = code of A (valid when A is a control value)

	// Control-value handlers (Sec. III). When a Deq on queue Q is about to
	// pop a control value and a handler is registered, the thread jumps to
	// Target instead; the control value is consumed and its code is made
	// available via OpHandlerVal.
	OpSetHandler // set handler for Q at Target
	OpHandlerVal // Dst = code of the control value that fired the handler

	// Control flow.
	OpBr   // if A != 0 goto Target
	OpBrZ  // if A == 0 goto Target
	OpJmp  // goto Target
	OpHalt // stage finished

	// Phase synchronization. All threads rendezvous at their next Barrier.
	OpBarrier
	// SwapSlots exchanges the bindings of Slot and Slot2 machine-wide. Only
	// one thread may execute a given swap between two barriers (or at a
	// well-defined queue-ordered point); the code generator guarantees this.
	OpSwapSlots
)

var opNames = map[Op]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpIAdd: "iadd", OpIAddImm: "iaddi", OpISub: "isub", OpIMul: "imul",
	OpIMulImm: "imuli", OpIDiv: "idiv", OpIRem: "irem", OpIAnd: "iand",
	OpIOr: "ior", OpIXor: "ixor", OpIShl: "ishl", OpIShr: "ishr",
	OpIAndImm: "iandi", OpIShrImm: "ishri",
	OpICmpEQ: "icmpeq", OpICmpNE: "icmpne", OpICmpLT: "icmplt",
	OpICmpLE: "icmple", OpICmpGT: "icmpgt", OpICmpGE: "icmpge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFAbs: "fabs",
	OpFCmpEQ: "fcmpeq", OpFCmpNE: "fcmpne", OpFCmpLT: "fcmplt",
	OpFCmpLE: "fcmple", OpFCmpGT: "fcmpgt", OpFCmpGE: "fcmpge",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLoad: "load", OpStore: "store", OpPrefetch: "prefetch",
	OpEnq: "enq", OpEnqCtrl: "enqctrl", OpEnqCtrlV: "enqctrlv",
	OpDeq: "deq", OpPeek: "peek", OpIsCtrl: "isctrl", OpCtrlCode: "ctrlcode",
	OpSetHandler: "sethandler", OpHandlerVal: "handlerval",
	OpBr: "br", OpBrZ: "brz", OpJmp: "jmp", OpHalt: "halt",
	OpBarrier: "barrier", OpSwapSlots: "swapslots",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. Field use depends on Op; unused fields are zero
// (or NoReg for registers).
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Reg
	Imm    int64
	Slot   int // array slot for Load/Store/SwapSlots
	Slot2  int // second slot for SwapSlots
	Q      int // queue id for queue ops
	Target int // branch/jump/handler target (instruction index)
}

// Class groups opcodes for the timing model.
type Class uint8

const (
	ClassIntAlu Class = iota
	ClassFloatAlu
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassQueue
	ClassBranch
	ClassJump
	ClassSync  // barrier, swapslots
	ClassOther // nop, sethandler, halt
)

// Class returns the timing class of the instruction.
func (in *Instr) Class() Class {
	switch in.Op {
	case OpLoad:
		return ClassLoad
	case OpStore, OpPrefetch:
		return ClassStore
	case OpEnq, OpEnqCtrl, OpEnqCtrlV, OpDeq, OpPeek:
		return ClassQueue
	case OpBr, OpBrZ:
		return ClassBranch
	case OpJmp:
		return ClassJump
	case OpIMul, OpIMulImm:
		return ClassMul
	case OpIDiv, OpIRem, OpFDiv:
		return ClassDiv
	case OpFAdd, OpFSub, OpFMul, OpFNeg, OpFAbs,
		OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE,
		OpI2F, OpF2I:
		return ClassFloatAlu
	case OpBarrier, OpSwapSlots:
		return ClassSync
	case OpNop, OpHalt, OpSetHandler:
		return ClassOther
	default:
		return ClassIntAlu
	}
}

// Latency returns the execution latency in cycles for non-memory ops
// (memory latency comes from the cache model).
func (c Class) Latency() uint64 {
	switch c {
	case ClassFloatAlu:
		return 4
	case ClassMul:
		return 3
	case ClassDiv:
		return 20
	case ClassQueue:
		return 1
	default:
		return 1
	}
}

// IsQueueOp reports whether the instruction touches a queue.
func (in *Instr) IsQueueOp() bool { return in.Class() == ClassQueue }

// Reads returns the source registers read by the instruction (0, 1, or 2).
func (in *Instr) Reads() (a, b Reg) {
	a, b = NoReg, NoReg
	switch in.Op {
	case OpConst, OpDeq, OpPeek, OpJmp, OpHalt, OpNop, OpBarrier,
		OpSwapSlots, OpSetHandler, OpEnqCtrl, OpHandlerVal:
		// no register sources
	case OpMov, OpIAddImm, OpIMulImm, OpIAndImm, OpIShrImm, OpFNeg, OpFAbs,
		OpI2F, OpF2I, OpLoad, OpPrefetch, OpEnq, OpEnqCtrlV, OpIsCtrl,
		OpCtrlCode, OpBr, OpBrZ:
		a = in.A
	default:
		a, b = in.A, in.B
	}
	return a, b
}

// Writes reports the destination register (NoReg if none).
func (in *Instr) Writes() Reg {
	switch in.Op {
	case OpStore, OpPrefetch, OpEnq, OpEnqCtrl, OpEnqCtrlV, OpBr, OpBrZ,
		OpJmp, OpHalt, OpNop, OpBarrier, OpSwapSlots, OpSetHandler:
		return NoReg
	}
	return in.Dst
}

// Program is the code of one pipeline stage.
type Program struct {
	// Name identifies the stage (e.g., "enumerate neighbors").
	Name string
	// Instrs is the instruction sequence; entry point is index 0.
	Instrs []Instr
	// NumRegs is the size of the virtual register file.
	NumRegs int
	// Lines maps each instruction to the 1-based kernel source line it was
	// lowered from (0: compiler-generated glue). Parallel to Instrs; nil for
	// programs built without line tracking (hand-written stage programs).
	Lines []int32
}

// Line returns the source line for pc (0 when untracked or generated).
func (p *Program) Line(pc int) int32 {
	if pc < 0 || pc >= len(p.Lines) {
		return 0
	}
	return p.Lines[pc]
}

// Validate checks structural well-formedness: branch targets in range,
// registers in range. It returns the first problem found.
func (p *Program) Validate(numQueues, numSlots int) error {
	checkReg := func(r Reg, pc int, what string) error {
		if r == NoReg {
			return nil
		}
		if int(r) < 0 || int(r) >= p.NumRegs {
			return fmt.Errorf("isa: %s@%d: %s register %d out of range [0,%d)", p.Name, pc, what, r, p.NumRegs)
		}
		return nil
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		a, b := in.Reads()
		if err := checkReg(a, pc, "src"); err != nil {
			return err
		}
		if err := checkReg(b, pc, "src"); err != nil {
			return err
		}
		if err := checkReg(in.Writes(), pc, "dst"); err != nil {
			return err
		}
		switch in.Op {
		case OpBr, OpBrZ, OpJmp, OpSetHandler:
			if in.Target < 0 || in.Target >= len(p.Instrs) {
				return fmt.Errorf("isa: %s@%d: target %d out of range", p.Name, pc, in.Target)
			}
		}
		switch in.Op {
		case OpEnq, OpEnqCtrl, OpEnqCtrlV, OpDeq, OpPeek, OpSetHandler:
			if in.Q < 0 || in.Q >= numQueues {
				return fmt.Errorf("isa: %s@%d: queue %d out of range [0,%d)", p.Name, pc, in.Q, numQueues)
			}
		case OpLoad, OpStore, OpPrefetch:
			if in.Slot < 0 || in.Slot >= numSlots {
				return fmt.Errorf("isa: %s@%d: slot %d out of range [0,%d)", p.Name, pc, in.Slot, numSlots)
			}
		case OpSwapSlots:
			if in.Slot < 0 || in.Slot >= numSlots || in.Slot2 < 0 || in.Slot2 >= numSlots {
				return fmt.Errorf("isa: %s@%d: swap slots %d,%d out of range", p.Name, pc, in.Slot, in.Slot2)
			}
		}
	}
	if len(p.Instrs) == 0 || p.Instrs[len(p.Instrs)-1].Op != OpHalt {
		// Not fatal for loops that never exit, but all generated stages end
		// with Halt; enforce it to catch codegen bugs early.
		return fmt.Errorf("isa: %s: program must end with halt", p.Name)
	}
	return nil
}

// String renders the instruction in a readable assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Imm)
	case OpIAddImm, OpIMulImm, OpIAndImm, OpIShrImm:
		return fmt.Sprintf("r%d = %s r%d, %d", in.Dst, in.Op, in.A, in.Imm)
	case OpLoad:
		return fmt.Sprintf("r%d = load s%d[r%d]", in.Dst, in.Slot, in.A)
	case OpStore:
		return fmt.Sprintf("store s%d[r%d] = r%d", in.Slot, in.A, in.B)
	case OpPrefetch:
		return fmt.Sprintf("prefetch s%d[r%d]", in.Slot, in.A)
	case OpEnq:
		return fmt.Sprintf("enq q%d, r%d", in.Q, in.A)
	case OpEnqCtrl:
		return fmt.Sprintf("enq_ctrl q%d, %d", in.Q, in.Imm)
	case OpEnqCtrlV:
		return fmt.Sprintf("enq_ctrl q%d, r%d", in.Q, in.A)
	case OpDeq:
		return fmt.Sprintf("r%d = deq q%d", in.Dst, in.Q)
	case OpPeek:
		return fmt.Sprintf("r%d = peek q%d", in.Dst, in.Q)
	case OpSetHandler:
		return fmt.Sprintf("set_handler q%d -> @%d", in.Q, in.Target)
	case OpBr:
		return fmt.Sprintf("br r%d -> @%d", in.A, in.Target)
	case OpBrZ:
		return fmt.Sprintf("brz r%d -> @%d", in.A, in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case OpHalt:
		return "halt"
	case OpBarrier:
		return "barrier"
	case OpSwapSlots:
		return fmt.Sprintf("swap s%d, s%d", in.Slot, in.Slot2)
	case OpMov, OpFNeg, OpFAbs, OpI2F, OpF2I, OpIsCtrl, OpCtrlCode:
		return fmt.Sprintf("r%d = %s r%d", in.Dst, in.Op, in.A)
	case OpHandlerVal:
		return fmt.Sprintf("r%d = handlerval", in.Dst)
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("r%d = %s r%d, r%d", in.Dst, in.Op, in.A, in.B)
	}
}
