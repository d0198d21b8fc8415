package lower

import (
	"fmt"
	"strconv"

	"phloem/internal/ir"
	"phloem/internal/isa"
)

// Flatten lowers one stage's IR statement list to a flat stage program.
// Virtual variables map 1:1 to registers; constants are hoisted into a
// prologue (standing in for what gcc -O3 does with loop-invariant
// materialization), except where the ISA has immediate forms.
func Flatten(p *ir.Prog, stageName string, body []ir.Stmt) (prog *isa.Program, err error) {
	// Internal invariant violations (e.g. a constant the hoisting pre-scan
	// missed) are raised as typed panics on the register-resolution path and
	// surfaced here as structured errors.
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			le.Stage = stageName
			prog, err = nil, le
		}
	}()
	f := &flattener{
		p:      p,
		b:      isa.NewBuilder(stageName),
		consts: map[int64]isa.Reg{},
	}
	// Reserve one register per program variable.
	for range p.Vars {
		f.b.Reg()
	}
	// Pre-scan for constants that need registers and hoist them.
	f.hoistConsts(body)
	if err := f.stmts(body); err != nil {
		return nil, err
	}
	f.b.SetLine(0) // epilogue halt is generated, not source
	f.b.Halt()
	return f.b.Build()
}

type flattener struct {
	p      *ir.Prog
	b      *isa.Builder
	consts map[int64]isa.Reg
	labelN int
}

func (f *flattener) newLabel(prefix string) string {
	f.labelN++
	return "." + prefix + strconv.Itoa(f.labelN)
}

// constReg returns the hoisted register for a constant.
func (f *flattener) constReg(imm int64) isa.Reg {
	r, ok := f.consts[imm]
	if !ok {
		panic(&Error{Detail: fmt.Sprintf("constant %d not hoisted", imm)})
	}
	return r
}

// reg resolves an operand to a register.
func (f *flattener) reg(o ir.Operand) isa.Reg {
	if o.IsConst {
		return f.constReg(o.Imm)
	}
	return isa.Reg(o.Var)
}

// immFoldable reports whether a binary op with constant B has an immediate
// ISA form (so the constant needs no register).
func immFoldable(op ir.BinOp, float bool) bool {
	if float {
		return false
	}
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpShr:
		return true
	}
	return false
}

// hoistConsts emits one Const per distinct register-needing constant of
// body, in the order the statements first use them, after growing the
// builder by the whole program's length.
func (f *flattener) hoistConsts(body []ir.Stmt) {
	var sc constScan
	sc.list(body)
	f.b.Grow(len(sc.imms) + sc.instrs + 1) // + the epilogue halt
	for _, imm := range sc.imms {
		f.consts[imm] = f.b.Const(imm)
	}
}

// constScan collects the constants a body needs in registers, without
// duplicates, and counts the instructions the body flattens to.
type constScan struct {
	imms   []int64
	instrs int
}

func (sc *constScan) need(o ir.Operand) {
	if !o.IsConst {
		return
	}
	for _, imm := range sc.imms {
		if imm == o.Imm {
			return
		}
	}
	sc.imms = append(sc.imms, o.Imm)
}

func (sc *constScan) rval(r ir.Rval) {
	switch r := r.(type) {
	case *ir.RvalBin:
		sc.need(r.A)
		if !(r.B.IsConst && immFoldable(r.Op, r.Float)) {
			sc.need(r.B)
		}
	case *ir.RvalUn:
		sc.need(r.A)
		// Some unary forms expand using a constant register.
		switch {
		case r.Op == ir.OpNeg && !r.Float:
			sc.need(ir.C(0))
		case r.Op == ir.OpNot:
			sc.need(ir.C(0))
		case r.Op == ir.OpBNot:
			sc.need(ir.C(-1))
		}
	case *ir.RvalLoad:
		sc.need(r.Idx)
	}
}

func (sc *constScan) list(list []ir.Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *ir.Assign:
			sc.rval(s.Src)
		case *ir.Store:
			sc.need(s.Idx)
			sc.need(s.Val)
		case *ir.Prefetch:
			sc.need(s.Idx)
		case *ir.If:
			sc.need(s.Cond)
			sc.list(s.Then)
			sc.list(s.Else)
			// The branch, and the jump over a non-empty else.
			sc.instrs += 2
		case *ir.Loop:
			sc.list(s.Pre)
			sc.need(s.Cond)
			sc.list(s.Body)
			// The exit branch and the back edge.
			sc.instrs += 2
		case *ir.Enq:
			sc.need(s.Val)
		}
		switch s.(type) {
		case *ir.If, *ir.Loop, *ir.DecoupleMark, *ir.Label:
		default:
			sc.instrs++
		}
	}
}

func (f *flattener) stmts(list []ir.Stmt) error {
	for _, s := range list {
		if err := f.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

var binToISA = map[ir.BinOp][2]isa.Op{
	// {int form, float form}
	ir.OpAdd: {isa.OpIAdd, isa.OpFAdd},
	ir.OpSub: {isa.OpISub, isa.OpFSub},
	ir.OpMul: {isa.OpIMul, isa.OpFMul},
	ir.OpDiv: {isa.OpIDiv, isa.OpFDiv},
	ir.OpRem: {isa.OpIRem, isa.OpNop},
	ir.OpAnd: {isa.OpIAnd, isa.OpNop},
	ir.OpOr:  {isa.OpIOr, isa.OpNop},
	ir.OpXor: {isa.OpIXor, isa.OpNop},
	ir.OpShl: {isa.OpIShl, isa.OpNop},
	ir.OpShr: {isa.OpIShr, isa.OpNop},
	ir.OpEQ:  {isa.OpICmpEQ, isa.OpFCmpEQ},
	ir.OpNE:  {isa.OpICmpNE, isa.OpFCmpNE},
	ir.OpLT:  {isa.OpICmpLT, isa.OpFCmpLT},
	ir.OpLE:  {isa.OpICmpLE, isa.OpFCmpLE},
	ir.OpGT:  {isa.OpICmpGT, isa.OpFCmpGT},
	ir.OpGE:  {isa.OpICmpGE, isa.OpFCmpGE},
}

func (f *flattener) assign(s *ir.Assign) error {
	dst := isa.Reg(s.Dst)
	switch r := s.Src.(type) {
	case *ir.RvalBin:
		if r.B.IsConst && immFoldable(r.Op, r.Float) {
			switch r.Op {
			case ir.OpAdd:
				f.b.OpImmTo(dst, isa.OpIAddImm, f.reg(r.A), r.B.Imm)
			case ir.OpSub:
				f.b.OpImmTo(dst, isa.OpIAddImm, f.reg(r.A), -r.B.Imm)
			case ir.OpMul:
				f.b.OpImmTo(dst, isa.OpIMulImm, f.reg(r.A), r.B.Imm)
			case ir.OpAnd:
				f.b.OpImmTo(dst, isa.OpIAndImm, f.reg(r.A), r.B.Imm)
			case ir.OpShr:
				f.b.OpImmTo(dst, isa.OpIShrImm, f.reg(r.A), r.B.Imm)
			}
			return nil
		}
		forms, ok := binToISA[r.Op]
		if !ok {
			return fmt.Errorf("lower: unknown binop %v", r.Op)
		}
		op := forms[0]
		if r.Float {
			op = forms[1]
			if op == isa.OpNop {
				return fmt.Errorf("lower: %v has no float form", r.Op)
			}
		}
		f.b.Op2To(dst, op, f.reg(r.A), f.reg(r.B))
	case *ir.RvalUn:
		a := f.reg(r.A)
		switch r.Op {
		case ir.OpMov:
			f.b.MovTo(dst, a)
		case ir.OpNeg:
			if r.Float {
				f.b.Op2To(dst, isa.OpFNeg, a, isa.NoReg)
			} else {
				f.b.Op2To(dst, isa.OpISub, f.constReg(0), a)
			}
		case ir.OpNot:
			f.b.Op2To(dst, isa.OpICmpEQ, a, f.constReg(0))
		case ir.OpBNot:
			f.b.Op2To(dst, isa.OpIXor, a, f.constReg(-1))
		case ir.OpAbs:
			if !r.Float {
				return fmt.Errorf("lower: integer abs should be lowered to control flow")
			}
			f.b.Op2To(dst, isa.OpFAbs, a, isa.NoReg)
		case ir.OpI2F:
			f.b.Op2To(dst, isa.OpI2F, a, isa.NoReg)
		case ir.OpF2I:
			f.b.Op2To(dst, isa.OpF2I, a, isa.NoReg)
		case ir.OpIsCtrl:
			f.b.Op2To(dst, isa.OpIsCtrl, a, isa.NoReg)
		case ir.OpCtrlCode:
			f.b.Op2To(dst, isa.OpCtrlCode, a, isa.NoReg)
		default:
			return fmt.Errorf("lower: unknown unop %v", r.Op)
		}
	case *ir.RvalLoad:
		f.b.LoadTo(dst, r.Slot, f.reg(r.Idx))
	case *ir.RvalDeq:
		f.b.DeqTo(dst, r.Q)
	case *ir.RvalHandlerVal:
		f.b.Op2To(dst, isa.OpHandlerVal, isa.NoReg, isa.NoReg)
	default:
		return fmt.Errorf("lower: unknown rval %T", r)
	}
	return nil
}

// stmtLine extracts the source line a statement carries (0 for glue the
// passes synthesize, which has no Line field at all).
func stmtLine(s ir.Stmt) int32 {
	switch s := s.(type) {
	case *ir.Assign:
		return int32(s.Line)
	case *ir.Store:
		return int32(s.Line)
	case *ir.Prefetch:
		return int32(s.Line)
	case *ir.If:
		return int32(s.Line)
	case *ir.Loop:
		return int32(s.Line)
	case *ir.Swap:
		return int32(s.Line)
	case *ir.Barrier:
		return int32(s.Line)
	}
	return 0
}

func (f *flattener) stmt(s ir.Stmt) error {
	f.b.SetLine(stmtLine(s))
	switch s := s.(type) {
	case *ir.Assign:
		return f.assign(s)
	case *ir.Store:
		f.b.Store(s.Slot, f.reg(s.Idx), f.reg(s.Val))
	case *ir.Prefetch:
		f.b.Emit(isa.Instr{Op: isa.OpPrefetch, Slot: s.Slot, A: f.reg(s.Idx)})
	case *ir.If:
		if len(s.Then) == 0 && len(s.Else) == 0 {
			return nil
		}
		if len(s.Then) == 0 {
			// only else: branch to end when cond true
			end := f.newLabel("ifend")
			f.b.Br(f.reg(s.Cond), end)
			if err := f.stmts(s.Else); err != nil {
				return err
			}
			f.b.Label(end)
			return nil
		}
		elseL := f.newLabel("else")
		endL := f.newLabel("ifend")
		f.b.BrZ(f.reg(s.Cond), elseL)
		if err := f.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			f.b.Jmp(endL)
			f.b.Label(elseL)
			if err := f.stmts(s.Else); err != nil {
				return err
			}
			f.b.Label(endL)
		} else {
			f.b.Label(elseL)
		}
	case *ir.Loop:
		head := f.newLabel("loop")
		exit := f.newLabel("exit")
		f.b.Label(head)
		if err := f.stmts(s.Pre); err != nil {
			return err
		}
		f.b.BrZ(f.reg(s.Cond), exit)
		if err := f.stmts(s.Body); err != nil {
			return err
		}
		f.b.Jmp(head)
		f.b.Label(exit)
	case *ir.Swap:
		f.b.SwapSlots(s.A, s.B)
	case *ir.Enq:
		f.b.Enq(s.Q, f.reg(s.Val))
	case *ir.EnqCtrl:
		f.b.EnqCtrl(s.Q, s.Code)
	case *ir.SetHandler:
		f.b.SetHandler(s.Q, s.Label)
	case *ir.Barrier:
		f.b.Barrier()
	case *ir.DecoupleMark:
		// Compilation hint only; no code.
	case *ir.Label:
		f.b.Label(s.Name)
	case *ir.Goto:
		f.b.Jmp(s.Name)
	case *ir.Halt:
		f.b.Halt()
	default:
		return fmt.Errorf("lower: unknown statement %T", s)
	}
	return nil
}
