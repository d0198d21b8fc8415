package isa

import "fmt"

// Builder assembles a Program with symbolic labels and automatic register
// allocation. It is used by the code generator (internal/lower) and by the
// hand-written "manually pipelined" workload variants.
type Builder struct {
	name    string
	instrs  []Instr
	lines   []int32
	line    int32
	nextReg Reg
	labels  map[string]int
	fixups  []fixup
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder starts a new stage program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: map[string]int{}}
}

// Reg allocates a fresh virtual register.
func (b *Builder) Reg() Reg {
	r := b.nextReg
	b.nextReg++
	return r
}

// PC returns the index of the next emitted instruction.
func (b *Builder) PC() int { return len(b.instrs) }

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q in %s", name, b.name))
	}
	b.labels[name] = len(b.instrs)
}

// SetLine records the kernel source line for subsequently emitted
// instructions (0: compiler-generated glue). Callers that never use it get a
// program with all-zero lines.
func (b *Builder) SetLine(line int32) { b.line = line }

func (b *Builder) emit(in Instr) {
	b.instrs = append(b.instrs, in)
	b.lines = append(b.lines, b.line)
}

// Emit appends a raw instruction (used for ops without a dedicated helper).
func (b *Builder) Emit(in Instr) { b.emit(in) }

func (b *Builder) emitTo(in Instr, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), label: label})
	b.emit(in)
}

// Const emits Dst = imm and returns the destination register.
func (b *Builder) Const(imm int64) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpConst, Dst: d, Imm: imm})
	return d
}

// Op2 emits a two-source ALU op.
func (b *Builder) Op2(op Op, a, c Reg) Reg {
	d := b.Reg()
	b.emit(Instr{Op: op, Dst: d, A: a, B: c})
	return d
}

// Op1 emits a one-source op.
func (b *Builder) Op1(op Op, a Reg) Reg {
	d := b.Reg()
	b.emit(Instr{Op: op, Dst: d, A: a})
	return d
}

// OpImm emits an ALU op with an immediate operand (e.g., OpIAddImm).
func (b *Builder) OpImm(op Op, a Reg, imm int64) Reg {
	d := b.Reg()
	b.emit(Instr{Op: op, Dst: d, A: a, Imm: imm})
	return d
}

// MovTo emits dst = a into an existing register (for loop-carried values).
func (b *Builder) MovTo(dst, a Reg) {
	b.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// Op2To emits a two-source ALU op into an existing register.
func (b *Builder) Op2To(dst Reg, op Op, a, c Reg) {
	b.emit(Instr{Op: op, Dst: dst, A: a, B: c})
}

// OpImmTo emits an immediate ALU op into an existing register.
func (b *Builder) OpImmTo(dst Reg, op Op, a Reg, imm int64) {
	b.emit(Instr{Op: op, Dst: dst, A: a, Imm: imm})
}

// Load emits Dst = slot[idx].
func (b *Builder) Load(slot int, idx Reg) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpLoad, Dst: d, A: idx, Slot: slot})
	return d
}

// LoadTo emits dst = slot[idx] into an existing register.
func (b *Builder) LoadTo(dst Reg, slot int, idx Reg) {
	b.emit(Instr{Op: OpLoad, Dst: dst, A: idx, Slot: slot})
}

// Store emits slot[idx] = val.
func (b *Builder) Store(slot int, idx, val Reg) {
	b.emit(Instr{Op: OpStore, Slot: slot, A: idx, B: val})
}

// Enq emits enq(q, a).
func (b *Builder) Enq(q int, a Reg) {
	b.emit(Instr{Op: OpEnq, Q: q, A: a})
}

// EnqCtrl emits enq_ctrl(q, code).
func (b *Builder) EnqCtrl(q int, code int64) {
	b.emit(Instr{Op: OpEnqCtrl, Q: q, Imm: code})
}

// EnqCtrlV emits enq_ctrl(q, reg) forwarding a control code from a register.
func (b *Builder) EnqCtrlV(q int, a Reg) {
	b.emit(Instr{Op: OpEnqCtrlV, Q: q, A: a})
}

// Deq emits Dst = deq(q).
func (b *Builder) Deq(q int) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpDeq, Dst: d, Q: q})
	return d
}

// DeqTo emits dst = deq(q) into an existing register.
func (b *Builder) DeqTo(dst Reg, q int) {
	b.emit(Instr{Op: OpDeq, Dst: dst, Q: q})
}

// Peek emits Dst = peek(q).
func (b *Builder) Peek(q int) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpPeek, Dst: d, Q: q})
	return d
}

// IsCtrl emits Dst = is_control(a).
func (b *Builder) IsCtrl(a Reg) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpIsCtrl, Dst: d, A: a})
	return d
}

// CtrlCode emits Dst = control code of a.
func (b *Builder) CtrlCode(a Reg) Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpCtrlCode, Dst: d, A: a})
	return d
}

// HandlerVal emits Dst = code of the control value that fired the handler.
func (b *Builder) HandlerVal() Reg {
	d := b.Reg()
	b.emit(Instr{Op: OpHandlerVal, Dst: d})
	return d
}

// SetHandler registers the control-value handler for q at label.
func (b *Builder) SetHandler(q int, label string) {
	b.emitTo(Instr{Op: OpSetHandler, Q: q}, label)
}

// Br emits a conditional branch to label when a != 0.
func (b *Builder) Br(a Reg, label string) {
	b.emitTo(Instr{Op: OpBr, A: a}, label)
}

// BrZ emits a conditional branch to label when a == 0.
func (b *Builder) BrZ(a Reg, label string) {
	b.emitTo(Instr{Op: OpBrZ, A: a}, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) {
	b.emitTo(Instr{Op: OpJmp}, label)
}

// Halt emits the stage-finished instruction.
func (b *Builder) Halt() { b.emit(Instr{Op: OpHalt}) }

// Barrier emits a phase barrier.
func (b *Builder) Barrier() { b.emit(Instr{Op: OpBarrier}) }

// SwapSlots emits a machine-wide binding swap of two array slots.
func (b *Builder) SwapSlots(s1, s2 int) {
	b.emit(Instr{Op: OpSwapSlots, Slot: s1, Slot2: s2})
}

// Build resolves labels and returns the finished program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q in %s", f.label, b.name)
		}
		b.instrs[f.pc].Target = pc
	}
	p := &Program{Name: b.name, Instrs: b.instrs, NumRegs: int(b.nextReg), Lines: b.lines}
	return p, nil
}

// MustBuild is Build that panics on error; for use in tests and static tables.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
