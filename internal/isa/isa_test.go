package isa

import "testing"

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t")
	r := b.Const(3)
	b.Label("loop")
	r2 := b.OpImm(OpIAddImm, r, -1)
	b.MovTo(r, r2)
	b.Br(r, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(0, 0); err != nil {
		t.Fatal(err)
	}
	// The branch must target the label's instruction.
	var br *Instr
	for i := range p.Instrs {
		if p.Instrs[i].Op == OpBr {
			br = &p.Instrs[i]
		}
	}
	if br == nil || br.Target != 1 {
		t.Fatalf("branch target: %+v", br)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestValidateCatchesBadQueue(t *testing.T) {
	b := NewBuilder("t")
	b.Deq(3)
	b.Halt()
	p := b.MustBuild()
	if err := p.Validate(2, 0); err == nil {
		t.Error("queue 3 should be out of range")
	}
	if err := p.Validate(4, 0); err != nil {
		t.Errorf("queue 3 should be fine with 4 queues: %v", err)
	}
}

func TestValidateRequiresHalt(t *testing.T) {
	p := &Program{Name: "t", Instrs: []Instr{{Op: OpNop}}, NumRegs: 0}
	if err := p.Validate(0, 0); err == nil {
		t.Error("missing halt should fail validation")
	}
}

func TestReadsWrites(t *testing.T) {
	cases := []struct {
		in   Instr
		a, b Reg
		w    Reg
	}{
		{Instr{Op: OpIAdd, Dst: 2, A: 0, B: 1}, 0, 1, 2},
		{Instr{Op: OpConst, Dst: 3}, NoReg, NoReg, 3},
		{Instr{Op: OpDeq, Dst: 4, Q: 0}, NoReg, NoReg, 4},
		{Instr{Op: OpEnq, A: 5, Q: 0}, 5, NoReg, NoReg},
		{Instr{Op: OpStore, A: 1, B: 2}, 1, 2, NoReg},
		{Instr{Op: OpBr, A: 7}, 7, NoReg, NoReg},
		{Instr{Op: OpLoad, Dst: 8, A: 6}, 6, NoReg, 8},
	}
	for _, c := range cases {
		a, b := c.in.Reads()
		if a != c.a || b != c.b || c.in.Writes() != c.w {
			t.Errorf("%v: reads (%d,%d) writes %d; want (%d,%d) %d",
				c.in.Op, a, b, c.in.Writes(), c.a, c.b, c.w)
		}
	}
}

func TestClassLatencies(t *testing.T) {
	if (&Instr{Op: OpFAdd}).Class() != ClassFloatAlu {
		t.Error("fadd class")
	}
	if (&Instr{Op: OpDeq}).Class() != ClassQueue {
		t.Error("deq class")
	}
	if ClassDiv.Latency() <= ClassIntAlu.Latency() {
		t.Error("div should be slower than alu")
	}
	if !(&Instr{Op: OpEnqCtrl}).IsQueueOp() {
		t.Error("enq_ctrl is a queue op")
	}
}
