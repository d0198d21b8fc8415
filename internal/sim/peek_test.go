package sim

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// TestPeekDoesNotConsume: peek observes the head without popping; a
// following deq gets the same value.
func TestPeekDoesNotConsume(t *testing.T) {
	m, _ := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("out", mem.I64, 3)
		so := m.AddSlot("out", out)
		q := m.AddQueue("q")
		{
			b := isa.NewBuilder("p")
			r := b.Const(42)
			b.Enq(q, r)
			r2 := b.Const(43)
			b.Enq(q, r2)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("c")
			i0 := b.Const(0)
			i1 := b.Const(1)
			i2 := b.Const(2)
			pk := b.Peek(q)
			b.Store(so, i0, pk)
			d1 := b.Deq(q)
			b.Store(so, i1, d1)
			d2 := b.Deq(q)
			b.Store(so, i2, d2)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("out")]
	got := out.Ints()
	if got[0] != 42 || got[1] != 42 || got[2] != 43 {
		t.Errorf("peek/deq sequence: %v", got)
	}
}

// TestMultiCoreQueues: queues span cores (Pipette's inter-core
// communication); stages on different cores still pipeline.
func TestMultiCoreQueues(t *testing.T) {
	const n = 200
	m, st := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(2))
		out := m.Space.Alloc("out", mem.I64, 1)
		so := m.AddSlot("out", out)
		q := m.AddQueue("x")
		{
			b := isa.NewBuilder("p")
			i := b.Const(0)
			nn := b.Const(n)
			b.Label("l")
			b.Enq(q, i)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			c := b.Op2(isa.OpICmpLT, i, nn)
			b.Br(c, "l")
			b.EnqCtrl(q, arch.CtrlEnd)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("c")
			acc := b.Const(0)
			zero := b.Const(0)
			b.Label("l")
			v := b.Deq(q)
			t1 := b.IsCtrl(v)
			b.Br(t1, "e")
			b.Op2To(acc, isa.OpIAdd, acc, v)
			b.Jmp("l")
			b.Label("e")
			b.Store(so, zero, acc)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 1, Thread: 0}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("out")]
	if got, want := out.Ints()[0], int64(n*(n-1)/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if len(st.PerCore) != 2 {
		t.Errorf("expected 2 per-core breakdowns")
	}
}

// TestSMTSharesIssueWidth: four independent threads on one core cannot
// exceed the core's issue width in aggregate.
func TestSMTSharesIssueWidth(t *testing.T) {
	cfg := arch.DefaultConfig(1)
	const iters = 2000
	m, st := runBoth(t, func() *Machine {
		m := NewMachine(cfg)
		out := m.Space.Alloc("out", mem.I64, 4)
		so := m.AddSlot("out", out)
		for th := 0; th < 4; th++ {
			b := isa.NewBuilder("w")
			i := b.Const(0)
			nn := b.Const(iters)
			acc := b.Const(0)
			slot := b.Const(int64(th))
			b.Label("l")
			// 4 dependent ALU ops per iteration
			acc2 := b.OpImm(isa.OpIAddImm, acc, 1)
			acc3 := b.OpImm(isa.OpIMulImm, acc2, 1)
			b.MovTo(acc, acc3)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			c := b.Op2(isa.OpICmpLT, i, nn)
			b.Br(c, "l")
			b.Store(so, slot, acc)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: th}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("out")]
	for th := 0; th < 4; th++ {
		if out.Ints()[th] != iters {
			t.Errorf("thread %d acc = %d", th, out.Ints()[th])
		}
	}
	if st.IPC() > float64(cfg.IssueWidth) {
		t.Errorf("aggregate IPC %.2f exceeds issue width %d", st.IPC(), cfg.IssueWidth)
	}
	// Four threads must outperform one thread running 4x the work serially
	// (the SMT latency-hiding the paper's baseline architecture relies on).
	if st.IPC() < 1.5 {
		t.Errorf("SMT should overlap independent threads: IPC %.2f", st.IPC())
	}
}
