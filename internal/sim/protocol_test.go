package sim

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// TestControlValuesPassThroughRAChain checks the property the compiler's
// global control-code scheme depends on: control values entering a chained
// RA pipeline come out the far end, in order, between data groups.
func TestControlValuesPassThroughRAChain(t *testing.T) {
	m, _ := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		idx := m.Space.AllocInts("idx", []int64{2, 0, 1})
		tbl := m.Space.AllocInts("tbl", []int64{100, 200, 300})
		sIdx := m.AddSlot("idx", idx)
		sTbl := m.AddSlot("tbl", tbl)
		q0 := m.AddQueue("in")
		q1 := m.AddQueue("mid")
		q2 := m.AddQueue("out")
		// Chain: INDIRECT over idx, then INDIRECT over tbl.
		m.AddRA(arch.RASpec{Name: "a", Mode: arch.RAIndirect, Slot: sIdx, InQ: q0, OutQ: q1})
		m.AddRA(arch.RASpec{Name: "b", Mode: arch.RAIndirect, Slot: sTbl, InQ: q1, OutQ: q2})
		{
			b := isa.NewBuilder("prod")
			r0 := b.Const(0)
			r1 := b.Const(1)
			b.Enq(q0, r0)
			b.EnqCtrl(q0, 7)
			b.Enq(q0, r1)
			b.EnqCtrl(q0, arch.CtrlEnd)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		out := m.Space.Alloc("res", mem.I64, 4)
		sOut := m.AddSlot("res", out)
		{
			b := isa.NewBuilder("cons")
			i := b.Const(0)
			b.Label("loop")
			v := b.Deq(q2)
			c := b.IsCtrl(v)
			b.Br(c, "ctrl")
			b.Store(sOut, i, v)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			b.Jmp("loop")
			b.Label("ctrl")
			code := b.CtrlCode(v)
			b.Store(sOut, i, code)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			four := b.Const(4)
			d := b.Op2(isa.OpICmpLT, i, four)
			b.Br(d, "loop")
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("res")]
	got := out.Ints()
	// idx[0]=2 -> tbl[2]=300; ctrl 7; idx[1]=0 -> tbl[0]=100; ctrl END.
	want := []int64{300, 7, 100, arch.CtrlEnd}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain output %v, want %v", got, want)
		}
	}
}

// TestScanRAEmitNext checks range scans and the end-of-range marker.
func TestScanRAEmitNext(t *testing.T) {
	m, _ := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		data := m.Space.AllocInts("data", []int64{5, 6, 7, 8})
		sData := m.AddSlot("data", data)
		out := m.Space.Alloc("res", mem.I64, 8)
		sOut := m.AddSlot("res", out)
		qIn := m.AddQueue("in")
		qOut := m.AddQueue("out")
		m.AddRA(arch.RASpec{Name: "scan", Mode: arch.RAScan, Slot: sData,
			InQ: qIn, OutQ: qOut, EmitNext: true, NextCode: 42})
		{
			b := isa.NewBuilder("prod")
			r0 := b.Const(1)
			r1 := b.Const(3)
			b.Enq(qIn, r0) // scan [1, 3)
			b.Enq(qIn, r1)
			r2 := b.Const(3)
			r3 := b.Const(3)
			b.Enq(qIn, r2) // empty scan [3, 3): just the marker
			b.Enq(qIn, r3)
			b.EnqCtrl(qIn, arch.CtrlEnd)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("cons")
			i := b.Const(0)
			n := b.Const(5)
			b.Label("loop")
			v := b.Deq(qOut)
			c := b.IsCtrl(v)
			code := b.CtrlCode(v)
			_ = code
			b.BrZ(c, "data")
			cc := b.CtrlCode(v)
			b.Store(sOut, i, cc)
			b.Jmp("next")
			b.Label("data")
			b.Store(sOut, i, v)
			b.Label("next")
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			d := b.Op2(isa.OpICmpLT, i, n)
			b.Br(d, "loop")
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("res")]
	got := out.Ints()[:5]
	want := []int64{6, 7, 42, 42, arch.CtrlEnd}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan output %v, want %v", got, want)
		}
	}
}

// TestHandlerRedirect checks control-value handler semantics: the handler
// receives the code, the consuming dequeue is squashed, and data flow
// resumes at the handler's target.
func TestHandlerRedirect(t *testing.T) {
	m, st := runBoth(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("res", mem.I64, 4)
		sOut := m.AddSlot("res", out)
		q := m.AddQueue("q")
		{
			b := isa.NewBuilder("prod")
			r := b.Const(11)
			b.Enq(q, r)
			b.EnqCtrl(q, 9)
			r2 := b.Const(22)
			b.Enq(q, r2)
			b.EnqCtrl(q, arch.CtrlEnd)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("cons")
			i := b.Const(0)
			b.SetHandler(q, "handler")
			b.Label("loop")
			v := b.Deq(q)
			b.Store(sOut, i, v)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			b.Jmp("loop")
			b.Label("handler")
			code := b.HandlerVal()
			b.Store(sOut, i, code)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			end := b.Const(arch.CtrlEnd)
			d := b.Op2(isa.OpICmpEQ, code, end)
			b.BrZ(d, "loop")
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("res")]
	got := out.Ints()
	want := []int64{11, 9, 22, arch.CtrlEnd}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handler output %v, want %v", got, want)
		}
	}
	if st.HandlerFires != 2 {
		t.Errorf("handler fires: %d, want 2", st.HandlerFires)
	}
}

// TestQueueBackpressure checks that bounded timing queues throttle a fast
// producer without deadlock and without functional effect.
func TestQueueBackpressure(t *testing.T) {
	const n = 500
	m, st := runBoth(t, func() *Machine {
		cfg := arch.DefaultConfig(1)
		cfg.QueueDepth = 2
		m := NewMachine(cfg)
		out := m.Space.Alloc("res", mem.I64, 1)
		sOut := m.AddSlot("res", out)
		q := m.AddQueue("q")
		{
			b := isa.NewBuilder("prod")
			i := b.Const(0)
			nn := b.Const(n)
			b.Label("loop")
			b.Enq(q, i)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			c := b.Op2(isa.OpICmpLT, i, nn)
			b.Br(c, "loop")
			b.EnqCtrl(q, arch.CtrlEnd)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("cons")
			acc := b.Const(0)
			zero := b.Const(0)
			b.Label("loop")
			v := b.Deq(q)
			c := b.IsCtrl(v)
			b.Br(c, "end")
			b.Op2To(acc, isa.OpIAdd, acc, v)
			b.Jmp("loop")
			b.Label("end")
			b.Store(sOut, zero, acc)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	out := m.Slots[m.SlotIndex("res")]
	if got, want := out.Ints()[0], int64(n*(n-1)/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if st.TotalBreakdown().Queue == 0 {
		t.Error("a depth-2 queue must cause queue stalls")
	}
}

// TestSwapQuiescesSameCoreRA: a stage looks index 0 up through an INDIRECT
// RA on its own core and swaps the RA's array after every lookup. Every
// lookup must see its own round's binding. On one core the swap reads
// quiescence off the RA's input ring, so that ring takes the ring fast path
// like the RA's output, and no counter exists to bump.
func TestSwapQuiescesSameCoreRA(t *testing.T) {
	const rounds = 200
	build := func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		a := m.Space.AllocInts("a", []int64{1})
		b := m.Space.AllocInts("b", []int64{2})
		sa, sb := m.AddSlot("a", a), m.AddSlot("b", b)
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, rounds))
		idx, val := m.AddQueue("idx"), m.AddQueue("val")
		m.AddRA(arch.RASpec{Name: "look", Mode: arch.RAIndirect, Slot: sa, InQ: idx, OutQ: val})

		s := isa.NewBuilder("swapper")
		zero, i, n := s.Const(0), s.Const(0), s.Const(rounds)
		s.Label("loop")
		s.Enq(idx, zero)
		s.Store(so, i, s.Deq(val))
		s.SwapSlots(sa, sb)
		s.OpImmTo(i, isa.OpIAddImm, i, 1)
		s.Br(s.Op2(isa.OpICmpLT, i, n), "loop")
		s.Halt()
		m.AddStage(&Stage{Prog: s.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		return m
	}
	m, _, err := bothEngines(t, build)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Slots[2].Ints() {
		if want := int64(1 + i%2); v != want {
			t.Fatalf("round %d looked up %d, want %d", i, v, want)
		}
	}

	e, cores := newEngine(build(), "native", 0)
	if e.counted || !e.queues[0].direct || !e.queues[1].direct {
		t.Errorf("counted %v, direct: RA input %v, RA output %v; want no counters and both direct", e.counted, e.queues[0].direct, e.queues[1].direct)
	}
	e.runCore(cores[0])
	if e.failure != nil {
		t.Fatal(e.failure)
	}
	if e.raSent != nil || e.raDone != nil {
		t.Error("a one-core machine must keep no quiesce counters")
	}
}
