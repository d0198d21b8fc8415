package sim

import (
	"errors"
	"math"
	"testing"

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
