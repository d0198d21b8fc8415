package verify

import (
	"fmt"

	"phloem/internal/ir"
	"phloem/internal/isa"
)

// checkDataflow implements the D rules per stage over the flat ISA:
//
//	D0 (error):   the stage fails to lower or is structurally invalid
//	              (emitted while building the model).
//	D1 (error):   a reachable instruction reads a register that no
//	              instruction in the stage ever writes and that is not a
//	              scalar parameter — it can only ever hold zero.
//	D2 (error):   int/float kind confusion: a float ALU op reading an int
//	              variable (or vice versa), a non-integer array index, or a
//	              load/store whose value register disagrees with the array
//	              slot's kind. Only declared variables are checked; compiler
//	              temporaries and hoisted constants are exempt (bit-pattern
//	              tricks like integer 0 for float 0.0 are legitimate).
//	D4 (warning): unreachable instructions (dead code a pass left behind).
//	D5 (error):   no halt is reachable — the stage can never finish, so the
//	              whole-machine run never terminates.
//	D6 (warning): a queue is peeked but never dequeued in the stage; peek
//	              does not pop, so the stage is likely spinning.
func (m *model) checkDataflow() {
	for i, st := range m.pl.Stages {
		if m.progs[i] == nil {
			continue
		}
		m.checkStageDataflow(i, st.Name, m.progs[i])
	}
}

func (m *model) checkStageDataflow(i int, name string, prog *isa.Program) {
	vars := m.pl.Prog.Vars
	reach := isa.Reachable(m.succs[i])
	defs := m.regDefCounts(prog)

	regName := func(r isa.Reg) string {
		if int(r) < len(vars) {
			return fmt.Sprintf("r%d (var %q)", r, vars[r].Name)
		}
		return fmt.Sprintf("r%d", r)
	}
	// kindOf resolves the declared kind of a variable register; compiler
	// temporaries (registers beyond the variable table) are unconstrained.
	kindOf := func(r isa.Reg) (ir.Kind, bool) {
		if r != isa.NoReg && int(r) < len(vars) {
			return vars[r].Kind, true
		}
		return 0, false
	}
	var curPC int
	expect := func(r isa.Reg, want ir.Kind, role string) {
		if k, ok := kindOf(r); ok && k != want {
			m.diag("D2", SevError, name, -1, curPC, "%s: %s %s has kind %s, want %s",
				prog.Instrs[curPC].Op, role, regName(r), k, want)
		}
	}

	if m.d1 == nil {
		m.d1 = map[isa.Reg]bool{}
	}
	reportedD1 := m.d1
	clear(reportedD1)
	haltReachable := false
	for pc, in := range prog.Instrs {
		if !reach[pc] {
			continue
		}
		curPC = pc
		if in.Op == isa.OpHalt {
			haltReachable = true
		}

		a, b := in.Reads()
		for _, r := range [2]isa.Reg{a, b} {
			if r == isa.NoReg || defs[r] > 0 || reportedD1[r] {
				continue
			}
			if int(r) < len(vars) && vars[r].Param {
				continue // initialized externally from scalar bindings
			}
			reportedD1[r] = true
			m.diag("D1", SevError, name, -1, pc,
				"register %s is read but never written in this stage", regName(r))
		}

		switch in.Op {
		case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIDiv, isa.OpIRem,
			isa.OpIAnd, isa.OpIOr, isa.OpIXor, isa.OpIShl, isa.OpIShr,
			isa.OpICmpEQ, isa.OpICmpNE, isa.OpICmpLT, isa.OpICmpLE,
			isa.OpICmpGT, isa.OpICmpGE:
			expect(in.A, ir.KInt, "left operand")
			expect(in.B, ir.KInt, "right operand")
			expect(in.Dst, ir.KInt, "destination")
		case isa.OpIAddImm, isa.OpIMulImm, isa.OpIAndImm, isa.OpIShrImm:
			expect(in.A, ir.KInt, "operand")
			expect(in.Dst, ir.KInt, "destination")
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
			expect(in.A, ir.KFloat, "left operand")
			expect(in.B, ir.KFloat, "right operand")
			expect(in.Dst, ir.KFloat, "destination")
		case isa.OpFCmpEQ, isa.OpFCmpNE, isa.OpFCmpLT, isa.OpFCmpLE,
			isa.OpFCmpGT, isa.OpFCmpGE:
			expect(in.A, ir.KFloat, "left operand")
			expect(in.B, ir.KFloat, "right operand")
			expect(in.Dst, ir.KInt, "destination")
		case isa.OpFNeg, isa.OpFAbs:
			expect(in.A, ir.KFloat, "operand")
			expect(in.Dst, ir.KFloat, "destination")
		case isa.OpI2F:
			expect(in.A, ir.KInt, "operand")
			expect(in.Dst, ir.KFloat, "destination")
		case isa.OpF2I:
			expect(in.A, ir.KFloat, "operand")
			expect(in.Dst, ir.KInt, "destination")
		case isa.OpLoad:
			expect(in.A, ir.KInt, "index")
			expect(in.Dst, m.pl.Prog.Slots[in.Slot].Kind, "destination")
		case isa.OpStore:
			expect(in.A, ir.KInt, "index")
			expect(in.B, m.pl.Prog.Slots[in.Slot].Kind, "stored value")
		case isa.OpPrefetch:
			expect(in.A, ir.KInt, "index")
		case isa.OpBr, isa.OpBrZ:
			expect(in.A, ir.KInt, "condition")
		}
	}

	if !haltReachable {
		m.diag("D5", SevError, name, -1, -1, "no halt is reachable; the stage can never finish")
	}

	// D4: report unreachable code as contiguous runs to keep noise down.
	for pc := 0; pc < len(prog.Instrs); {
		if reach[pc] {
			pc++
			continue
		}
		end := pc
		for end+1 < len(prog.Instrs) && !reach[end+1] {
			end++
		}
		if pc == end {
			m.diag("D4", SevWarning, name, -1, pc, "instruction is unreachable")
		} else {
			m.diag("D4", SevWarning, name, -1, pc, "instructions %d-%d are unreachable", pc, end)
		}
		pc = end + 1
	}

	qo := m.ops[i]
	for q, pcs := range qo.peek {
		if len(pcs) > 0 && len(qo.deq[q]) == 0 {
			m.diag("D6", SevWarning, name, q, pcs[0],
				"queue is peeked but never dequeued in this stage")
		}
	}
}
