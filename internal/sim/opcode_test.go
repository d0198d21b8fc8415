package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// evalBin runs a single two-operand instruction and returns the result.
func evalBin(t *testing.T, op isa.Op, a, b Value) Value {
	t.Helper()
	m, _, err := bothEngines(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 1))
		bl := isa.NewBuilder("t")
		ra := bl.Const(a.Bits)
		rb := bl.Const(b.Bits)
		zero := bl.Const(0)
		d := bl.Op2(op, ra, rb)
		bl.Store(so, zero, d)
		bl.Halt()
		m.AddStage(&Stage{Prog: bl.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		return m
	})
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	return IntVal(m.Slots[0].Ints()[0])
}

func TestIntegerOpcodeSemantics(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpIAdd, 7, -3, 4},
		{isa.OpISub, 7, -3, 10},
		{isa.OpIMul, -4, 6, -24},
		{isa.OpIDiv, -17, 5, -3},
		{isa.OpIRem, -17, 5, -2},
		{isa.OpIAnd, 0b1100, 0b1010, 0b1000},
		{isa.OpIOr, 0b1100, 0b1010, 0b1110},
		{isa.OpIXor, 0b1100, 0b1010, 0b0110},
		{isa.OpIShl, 3, 4, 48},
		{isa.OpIShr, -16, 2, -4}, // arithmetic shift
		{isa.OpICmpEQ, 5, 5, 1},
		{isa.OpICmpEQ, 5, 6, 0},
		{isa.OpICmpNE, 5, 6, 1},
		{isa.OpICmpLT, -1, 0, 1},
		{isa.OpICmpLT, 0, -1, 0},
		{isa.OpICmpLE, 3, 3, 1},
		{isa.OpICmpGT, 4, 3, 1},
		{isa.OpICmpGE, 3, 4, 0},
	}
	for _, c := range cases {
		got := evalBin(t, c.op, IntVal(c.a), IntVal(c.b))
		if got.Bits != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, got.Bits, c.want)
		}
	}
}

func TestFloatOpcodeSemantics(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b float64
		want float64
	}{
		{isa.OpFAdd, 1.5, 2.25, 3.75},
		{isa.OpFSub, 1.5, 2.25, -0.75},
		{isa.OpFMul, -2, 3.5, -7},
		{isa.OpFDiv, 7, -2, -3.5},
	}
	for _, c := range cases {
		got := evalBin(t, c.op, FloatVal(c.a), FloatVal(c.b))
		if math.Float64frombits(uint64(got.Bits)) != c.want {
			t.Errorf("%v(%v, %v) = %v, want %v", c.op, c.a, c.b,
				math.Float64frombits(uint64(got.Bits)), c.want)
		}
	}
	cmp := []struct {
		op   isa.Op
		a, b float64
		want int64
	}{
		{isa.OpFCmpLT, 1, 2, 1},
		{isa.OpFCmpLT, 2, 1, 0},
		{isa.OpFCmpGE, 2, 2, 1},
		{isa.OpFCmpEQ, 2, 2, 1},
		{isa.OpFCmpNE, 2, 2, 0},
		{isa.OpFCmpLE, 1.5, 1.5, 1},
		{isa.OpFCmpGT, 3, 2.5, 1},
	}
	for _, c := range cmp {
		got := evalBin(t, c.op, FloatVal(c.a), FloatVal(c.b))
		if got.Bits != c.want {
			t.Errorf("%v(%v, %v) = %d, want %d", c.op, c.a, c.b, got.Bits, c.want)
		}
	}
}

func TestImmediateAndUnaryOpcodes(t *testing.T) {
	m, _, err := bothEngines(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 8))
		b := isa.NewBuilder("t")
		x := b.Const(-6)
		f := b.Const(FloatVal(-2.5).Bits)
		idx := func(i int64) isa.Reg { return b.Const(i) }
		b.Store(so, idx(0), b.OpImm(isa.OpIAddImm, x, 10))
		b.Store(so, idx(1), b.OpImm(isa.OpIMulImm, x, -2))
		b.Store(so, idx(2), b.OpImm(isa.OpIAndImm, x, 0xF))
		b.Store(so, idx(3), b.OpImm(isa.OpIShrImm, x, 1))
		b.Store(so, idx(4), b.Op1(isa.OpFNeg, f))
		b.Store(so, idx(5), b.Op1(isa.OpFAbs, f))
		b.Store(so, idx(6), b.Op1(isa.OpF2I, f))
		b.Store(so, idx(7), b.Op1(isa.OpI2F, x))
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Slots[0].Ints()
	if got[0] != 4 || got[1] != 12 || got[2] != (-6)&0xF || got[3] != -3 {
		t.Errorf("imm ops: %v", got[:4])
	}
	if math.Float64frombits(uint64(got[4])) != 2.5 {
		t.Errorf("fneg: %v", math.Float64frombits(uint64(got[4])))
	}
	if math.Float64frombits(uint64(got[5])) != 2.5 {
		t.Errorf("fabs: %v", math.Float64frombits(uint64(got[5])))
	}
	if got[6] != -2 {
		t.Errorf("f2i: %d", got[6])
	}
	if math.Float64frombits(uint64(got[7])) != -6.0 {
		t.Errorf("i2f: %v", math.Float64frombits(uint64(got[7])))
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	for _, op := range []isa.Op{isa.OpIDiv, isa.OpIRem} {
		_, _, err := bothEngines(t, func() *Machine {
			m := NewMachine(arch.DefaultConfig(1))
			b := isa.NewBuilder("t")
			x := b.Const(5)
			z := b.Const(0)
			b.Op2(op, x, z)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
			return m
		})
		if !errors.Is(err, ErrTrap) {
			t.Errorf("%v by zero should trap, got %v", op, err)
		}
	}
}

func TestOutOfBoundsTraps(t *testing.T) {
	mk := func(store bool, idx int64) error {
		_, _, err := bothEngines(t, func() *Machine {
			m := NewMachine(arch.DefaultConfig(1))
			arr := m.Space.Alloc("a", mem.I64, 2)
			sa := m.AddSlot("a", arr)
			b := isa.NewBuilder("t")
			i := b.Const(idx)
			if store {
				b.Store(sa, i, i)
			} else {
				b.Load(sa, i)
			}
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
			return m
		})
		return err
	}
	if err := mk(false, 2); err == nil {
		t.Error("load out of bounds should trap")
	}
	if err := mk(true, -1); err == nil {
		t.Error("store out of bounds should trap")
	}
	if err := mk(false, 1); err != nil {
		t.Errorf("in-bounds load trapped: %v", err)
	}
}

func TestPrefetchSemantics(t *testing.T) {
	_, st := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		arr := m.Space.AllocInts("a", []int64{1, 2})
		sa := m.AddSlot("a", arr)
		b := isa.NewBuilder("t")
		in := b.Const(1)
		oob := b.Const(99)
		b.Emit(isa.Instr{Op: isa.OpPrefetch, Slot: sa, A: in})
		// Out-of-bounds prefetches are dropped, not trapped.
		b.Emit(isa.Instr{Op: isa.OpPrefetch, Slot: sa, A: oob})
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		return m
	})
	if st.Cache.L1Misses == 0 {
		t.Error("the in-bounds prefetch should have touched the cache")
	}
}

func TestALUClearsControlTag(t *testing.T) {
	m, _ := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 2))
		q := m.AddQueue("q")
		{
			b := isa.NewBuilder("p")
			b.EnqCtrl(q, 5)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("c")
			zero := b.Const(0)
			one := b.Const(1)
			v := b.Deq(q)
			tag := b.IsCtrl(v)
			b.Store(so, zero, tag)
			// An ALU op on the value clears the tag.
			w := b.OpImm(isa.OpIAddImm, v, 0)
			tag2 := b.IsCtrl(w)
			b.Store(so, one, tag2)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	if out := m.Slots[0].Ints(); out[0] != 1 || out[1] != 0 {
		t.Errorf("tag semantics: %v", out)
	}
}

// cmpBrProgram builds "c = cmp x, y; br/brz c, taken" followed by a store
// of which way it went into out[0] and of c, read again after the branch,
// into out[1].
func cmpBrProgram(cmp, br isa.Op, x, y int64) func() *Machine {
	return func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 2))
		b := isa.NewBuilder("t")
		rx, ry := b.Const(x), b.Const(y)
		zero, one, two := b.Const(0), b.Const(1), b.Const(2)
		c := b.Op2(cmp, rx, ry)
		if br == isa.OpBr {
			b.Br(c, "taken")
		} else {
			b.BrZ(c, "taken")
		}
		b.Store(so, zero, one)
		b.Jmp("end")
		b.Label("taken")
		b.Store(so, zero, two)
		b.Label("end")
		b.Store(so, one, c)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		return m
	}
}

// TestFusedCompareBranch: every integer compare followed by a Br or BrZ on
// its result, taken and not taken, means on both configurations what the
// two instructions mean one after the other (natively it runs fused).
func TestFusedCompareBranch(t *testing.T) {
	cmps := map[isa.Op]func(x, y int64) bool{
		isa.OpICmpEQ: func(x, y int64) bool { return x == y },
		isa.OpICmpNE: func(x, y int64) bool { return x != y },
		isa.OpICmpLT: func(x, y int64) bool { return x < y },
		isa.OpICmpLE: func(x, y int64) bool { return x <= y },
		isa.OpICmpGT: func(x, y int64) bool { return x > y },
		isa.OpICmpGE: func(x, y int64) bool { return x >= y },
	}
	for cmp, eval := range cmps {
		for _, br := range []isa.Op{isa.OpBr, isa.OpBrZ} {
			seen := map[bool]bool{}
			for _, xy := range [][2]int64{{-3, 5}, {5, 5}, {5, -3}} {
				m, _, err := bothEngines(t, cmpBrProgram(cmp, br, xy[0], xy[1]))
				if err != nil {
					t.Fatalf("%v+%v(%d, %d): %v", cmp, br, xy[0], xy[1], err)
				}
				c := eval(xy[0], xy[1])
				taken := c == (br == isa.OpBr)
				seen[taken] = true
				want := []int64{1, 0}
				if taken {
					want[0] = 2
				}
				if c {
					want[1] = 1
				}
				if got := m.Slots[0].Ints(); got[0] != want[0] || got[1] != want[1] {
					t.Errorf("%v+%v(%d, %d): out = %v, want %v", cmp, br, xy[0], xy[1], got, want)
				}
			}
			if !seen[true] || !seen[false] {
				t.Errorf("%v+%v: operands do not cover taken and not taken", cmp, br)
			}
		}
	}
}

// TestFusionNeighbours: a compare followed by a branch on another register
// is not fused, a compare that overwrites its own operand is, and a jump
// straight to the branch half of a fused pair runs the branch alone, on
// the register as it is.
func TestFusionNeighbours(t *testing.T) {
	t.Run("other-register", func(t *testing.T) {
		m, _, err := bothEngines(t, func() *Machine {
			m := NewMachine(arch.DefaultConfig(1))
			so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 1))
			b := isa.NewBuilder("t")
			zero, one := b.Const(0), b.Const(1)
			c := b.Op2(isa.OpICmpLT, zero, one) // true, but the branch tests zero
			b.BrZ(zero, "taken")
			b.Store(so, zero, c)
			b.Halt()
			b.Label("taken")
			b.Store(so, zero, b.OpImm(isa.OpIAddImm, c, 6))
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
			return m
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Slots[0].Ints()[0]; got != 7 {
			t.Errorf("out = %d, want 7 (branch on the other register taken)", got)
		}
	})
	t.Run("overwrites-operand", func(t *testing.T) {
		// c = icmplt c, two reads c and overwrites it: 1 < 2 the first
		// time round, then c is bumped to 3 and 3 < 2 ends the loop.
		m, _, err := bothEngines(t, func() *Machine {
			m := NewMachine(arch.DefaultConfig(1))
			so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 1))
			b := isa.NewBuilder("t")
			zero, two, n := b.Const(0), b.Const(2), b.Const(0)
			c := b.Const(1)
			b.Jmp("loop")
			b.Label("again")
			b.OpImmTo(c, isa.OpIAddImm, c, 2)
			b.Label("loop")
			b.OpImmTo(n, isa.OpIAddImm, n, 1)
			b.Op2To(c, isa.OpICmpLT, c, two)
			b.Br(c, "again")
			b.Store(so, zero, n)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
			return m
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Slots[0].Ints()[0]; got != 2 {
			t.Errorf("loop ran %d times, want 2", got)
		}
	})
	t.Run("jump-to-branch-half", func(t *testing.T) {
		// The first visit to mid comes by jump with c = 1 (brz not taken);
		// the second falls in from the compare, which makes c = 0 (taken).
		m, _, err := bothEngines(t, func() *Machine {
			m := NewMachine(arch.DefaultConfig(1))
			so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 2))
			b := isa.NewBuilder("t")
			x, y := b.Const(5), b.Const(3)
			c := b.Const(1)
			zero, one := b.Const(0), b.Const(1)
			b.Jmp("mid")
			b.Label("top")
			b.Op2To(c, isa.OpICmpLT, x, y)
			b.Label("mid")
			b.BrZ(c, "taken")
			b.Store(so, zero, c)
			b.Jmp("top")
			b.Label("taken")
			b.Store(so, one, x)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
			return m
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Slots[0].Ints(); got[0] != 1 || got[1] != 5 {
			t.Errorf("out = %v, want [1 5]", got)
		}
	})
}

// stepUnvalidated runs m's one stage in the given configuration without
// Machine.Validate, which rejects a program that does not end in halt —
// the only kind that can reach the end-of-program sentinel.
func stepUnvalidated(t *testing.T, m *Machine, phase string, quantum uint64) error {
	t.Helper()
	e, _ := newEngine(m, phase, quantum)
	for {
		st, worked := e.stages[0].step()
		switch {
		case st == failed:
			return e.failure
		case st == halted:
			return nil
		case !worked:
			t.Fatalf("%s: stage stuck", phase)
		}
	}
}

// TestFallOffTheEnd: a program that runs past its last instruction traps
// with the same message and pc in both configurations — also when its last
// two instructions are a compare and branch, fused natively, that loops a
// few times before falling through.
func TestFallOffTheEnd(t *testing.T) {
	builds := map[string]func() *isa.Program{
		"straight": func() *isa.Program {
			b := isa.NewBuilder("t")
			b.Const(1)
			b.Emit(isa.Instr{Op: isa.OpNop})
			return b.MustBuild()
		},
		"fused-pair-last": func() *isa.Program {
			b := isa.NewBuilder("t")
			i, n := b.Const(0), b.Const(3)
			b.Label("loop")
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			b.Br(b.Op2(isa.OpICmpLT, i, n), "loop")
			return b.MustBuild()
		},
	}
	for name, build := range builds {
		var msgs []string
		for _, cfg := range []struct {
			phase   string
			quantum uint64
		}{{"functional", funcQuantum}, {"native", 0}} {
			p := build()
			m := NewMachine(arch.DefaultConfig(1))
			m.AddStage(&Stage{Prog: p, Thread: arch.ThreadID{Core: 0, Thread: 0}})
			err := stepUnvalidated(t, m, cfg.phase, cfg.quantum)
			var tr *TrapError
			if !errors.As(err, &tr) || tr.Msg != "pc out of range" || tr.PC != len(p.Instrs) {
				t.Fatalf("%s/%s: got %v, want a pc out of range trap at pc %d", name, cfg.phase, err, len(p.Instrs))
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: trap messages differ:\n  functional: %s\n  native:     %s", name, msgs[0], msgs[1])
		}
	}
}

// TestPredecode pins the decoded form: its size, the sentinel, where pairs
// fuse and that the traced configuration never fuses.
func TestPredecode(t *testing.T) {
	if s := (isa.OpSwapSlots + 1).String(); !strings.HasPrefix(s, "op(") {
		t.Fatalf("isa has an opcode after swapslots (%s); the decoded-only opcodes collide with it", s)
	}
	if size := unsafe.Sizeof(instr{}); size > 24 {
		t.Errorf("decoded instruction is %d bytes; every run allocates one per instruction, keep it at 24", size)
	}
	b := isa.NewBuilder("t")
	x, y := b.Const(1), b.Const(2)
	b.Label("top")
	c := b.Op2(isa.OpICmpLT, x, y) // pc 2: fused with 3
	b.Br(c, "top")
	d := b.Op2(isa.OpICmpGE, x, y) // pc 4: fused with 5 (BrZ)
	b.BrZ(d, "top")
	e := b.Op2(isa.OpICmpEQ, x, y) // pc 6: branch on another register
	b.Br(c, "top")
	b.Op2(isa.OpFCmpLT, x, y) // pc 8: not an integer compare
	b.Br(e, "top")
	b.Halt()
	p := b.MustBuild()

	fused := predecode(nil, p, true)
	want := map[int]isa.Op{2: opLTBr, 3: isa.OpBr, 4: opGEBr, 5: isa.OpBrZ, 6: isa.OpICmpEQ, 8: isa.OpFCmpLT, 10: isa.OpHalt, 11: opEnd}
	for pc, op := range want {
		if fused[pc].op != op {
			t.Errorf("pc %d decodes to %v, want %v", pc, fused[pc].op, op)
		}
	}
	if !fused[2].takenOn || fused[4].takenOn || fused[2].k != 2 || fused[4].k != 2 {
		t.Errorf("fused pairs: %+v %+v", fused[2], fused[4])
	}
	for pc, in := range predecode(nil, p, false) {
		if in.op >= opEQBr {
			t.Errorf("traced decode fused pc %d", pc)
		}
	}
}
