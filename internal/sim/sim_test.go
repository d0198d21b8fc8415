package sim

import (
	"math/rand"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// buildIntroSerial builds the paper's introductory snippet:
//
//	for (i = 0; i < N; i++)
//	    if (A[i] > 0) work(B[A[i]]);
//
// where work() accumulates into out[0] through a short dependency chain.
func buildIntroSerial(n int64, slotA, slotB, slotOut int) *isa.Program {
	b := isa.NewBuilder("intro-serial")
	i := b.Const(0)
	nReg := b.Const(n)
	acc := b.Const(0)
	zero := b.Const(0)
	b.Label("loop")
	cond := b.Op2(isa.OpICmpLT, i, nReg)
	b.BrZ(cond, "done")
	ai := b.Load(slotA, i)
	pos := b.Op2(isa.OpICmpGT, ai, zero)
	b.BrZ(pos, "next")
	bv := b.Load(slotB, ai)
	// work(): ~6 dependent ALU ops
	w := b.OpImm(isa.OpIAddImm, bv, 3)
	w = b.OpImm(isa.OpIMulImm, w, 5)
	w = b.OpImm(isa.OpIAddImm, w, 1)
	w = b.OpImm(isa.OpIAndImm, w, 0xffff)
	b.Op2To(acc, isa.OpIAdd, acc, w)
	b.Label("next")
	b.OpImmTo(i, isa.OpIAddImm, i, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Store(slotOut, zero, acc)
	b.Halt()
	return b.MustBuild()
}

func introReference(a, bv []int64) int64 {
	var acc int64
	for _, x := range a {
		if x > 0 {
			w := bv[x]
			w = (((w+3)*5 + 1) & 0xffff)
			acc += w
		}
	}
	return acc
}

func introData(t *testing.T, n int) ([]int64, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	a := make([]int64, n)
	bb := make([]int64, n)
	for i := range a {
		// ~half negative for unpredictable branches; positives index B.
		if rng.Intn(2) == 0 {
			a[i] = -1
		} else {
			a[i] = int64(rng.Intn(n))
		}
	}
	for i := range bb {
		bb[i] = int64(rng.Intn(1 << 20))
	}
	return a, bb
}

func runIntroSerial(t *testing.T, a, bv []int64) *Stats {
	t.Helper()
	m := NewMachine(arch.DefaultConfig(1))
	arrA := m.Space.AllocInts("A", a)
	arrB := m.Space.AllocInts("B", bv)
	arrOut := m.Space.Alloc("out", mem.I64, 1)
	sa := m.AddSlot("A", arrA)
	sb := m.AddSlot("B", arrB)
	so := m.AddSlot("out", arrOut)
	m.AddStage(&Stage{
		Prog:   buildIntroSerial(int64(len(a)), sa, sb, so),
		Thread: arch.ThreadID{Core: 0, Thread: 0},
	})
	st, err := m.Run()
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if got, want := arrOut.Ints()[0], introReference(a, bv); got != want {
		t.Fatalf("serial result = %d, want %d", got, want)
	}
	return st
}

// introPipeline builds the pipeline-parallel version from Sec. I:
// Fetch A[i] (SCAN RA) -> Filter A[i]>0 -> Fetch B[A[i]] (INDIRECT RA) -> work().
func introPipeline(a, bv []int64) (*Machine, *mem.Array) {
	m := NewMachine(arch.DefaultConfig(1))
	arrA := m.Space.AllocInts("A", a)
	arrB := m.Space.AllocInts("B", bv)
	arrOut := m.Space.Alloc("out", mem.I64, 1)
	sa := m.AddSlot("A", arrA)
	sb := m.AddSlot("B", arrB)
	so := m.AddSlot("out", arrOut)

	qScanIn := m.AddQueue("scanA.in")
	qAVals := m.AddQueue("a.vals")
	qFiltered := m.AddQueue("filtered")
	qBVals := m.AddQueue("b.vals")

	m.AddRA(arch.RASpec{Name: "scanA", Mode: arch.RAScan, Slot: sa, InQ: qScanIn, OutQ: qAVals})
	m.AddRA(arch.RASpec{Name: "fetchB", Mode: arch.RAIndirect, Slot: sb, InQ: qFiltered, OutQ: qBVals})

	// Stage 1: feed the scan RA with the whole range, then signal the end.
	{
		b := isa.NewBuilder("feed")
		zero := b.Const(0)
		n := b.Const(int64(len(a)))
		b.Enq(qScanIn, zero)
		b.Enq(qScanIn, n)
		b.EnqCtrl(qScanIn, arch.CtrlEnd)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	}
	// Stage 2: filter A[i] > 0, forward the value to the indirect RA.
	{
		b := isa.NewBuilder("filter")
		zero := b.Const(0)
		b.Label("loop")
		v := b.Deq(qAVals)
		isc := b.IsCtrl(v)
		b.Br(isc, "end")
		pos := b.Op2(isa.OpICmpGT, v, zero)
		b.BrZ(pos, "loop")
		b.Enq(qFiltered, v)
		b.Jmp("loop")
		b.Label("end")
		b.EnqCtrl(qFiltered, arch.CtrlEnd)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	}
	// Stage 3: work() on each fetched B value.
	{
		b := isa.NewBuilder("work")
		acc := b.Const(0)
		zero := b.Const(0)
		b.Label("loop")
		v := b.Deq(qBVals)
		isc := b.IsCtrl(v)
		b.Br(isc, "end")
		w := b.OpImm(isa.OpIAddImm, v, 3)
		w = b.OpImm(isa.OpIMulImm, w, 5)
		w = b.OpImm(isa.OpIAddImm, w, 1)
		w = b.OpImm(isa.OpIAndImm, w, 0xffff)
		b.Op2To(acc, isa.OpIAdd, acc, w)
		b.Jmp("loop")
		b.Label("end")
		b.Store(so, zero, acc)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 2}})
	}
	return m, arrOut
}

func runIntroPipeline(t *testing.T, a, bv []int64) *Stats {
	t.Helper()
	m, arrOut := introPipeline(a, bv)
	st, err := m.Run()
	if err != nil {
		t.Fatalf("pipeline run: %v", err)
	}
	if got, want := arrOut.Ints()[0], introReference(a, bv); got != want {
		t.Fatalf("pipeline result = %d, want %d", got, want)
	}
	return st
}

func TestIntroExampleCorrectness(t *testing.T) {
	a, bv := introData(t, 2000)
	runIntroSerial(t, a, bv)
	runIntroPipeline(t, a, bv)
}

func TestIntroExamplePipelineSpeedup(t *testing.T) {
	a, bv := introData(t, 20000)
	serial := runIntroSerial(t, a, bv)
	pipe := runIntroPipeline(t, a, bv)
	t.Logf("serial:   %s", serial)
	t.Logf("pipeline: %s", pipe)
	if pipe.Cycles >= serial.Cycles {
		t.Fatalf("expected pipeline speedup; serial=%d pipeline=%d cycles",
			serial.Cycles, pipe.Cycles)
	}
	speedup := float64(serial.Cycles) / float64(pipe.Cycles)
	if speedup < 1.3 {
		t.Errorf("pipeline speedup %.2fx is implausibly low for the intro example", speedup)
	}
}

func TestValueTagging(t *testing.T) {
	v := IntVal(7)
	if v.Ctrl {
		t.Error("data value should not be control-tagged")
	}
	c := CtrlVal(arch.CtrlNext)
	if !c.Ctrl || c.Bits != arch.CtrlNext {
		t.Errorf("CtrlVal broken: %+v", c)
	}
	f := FloatVal(3.5)
	if f.Float() != 3.5 {
		t.Errorf("float roundtrip: got %v", f.Float())
	}
}

func TestMachineValidateRejectsTwoConsumers(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	q := m.AddQueue("q")
	mk := func(name string, th int) *Stage {
		b := isa.NewBuilder(name)
		b.Deq(q)
		b.Halt()
		return &Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: th}}
	}
	m.AddStage(mk("c1", 0))
	m.AddStage(mk("c2", 1))
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation error for two consumers on one queue")
	}
}

func TestFunctionalDeadlockDetected(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	q := m.AddQueue("q")
	b := isa.NewBuilder("stuck")
	b.Deq(q)
	b.Halt()
	m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	if _, err := m.RunFunctional(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestBarrierSynchronizesThreads(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	arr := m.Space.Alloc("buf", mem.I64, 2)
	s := m.AddSlot("buf", arr)
	// Thread 0 writes buf[0]=11 before the barrier; thread 1 reads it after.
	{
		b := isa.NewBuilder("writer")
		zero := b.Const(0)
		v := b.Const(11)
		b.Store(s, zero, v)
		b.Barrier()
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	}
	{
		b := isa.NewBuilder("reader")
		b.Barrier()
		zero := b.Const(0)
		one := b.Const(1)
		v := b.Load(s, zero)
		b.Store(s, one, v)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := arr.Ints()[1]; got != 11 {
		t.Fatalf("barrier ordering broken: buf[1]=%d, want 11", got)
	}
}

func TestSwapSlots(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	a := m.Space.AllocInts("a", []int64{1})
	c := m.Space.AllocInts("c", []int64{2})
	sa := m.AddSlot("a", a)
	sc := m.AddSlot("c", c)
	b := isa.NewBuilder("swapper")
	zero := b.Const(0)
	b.SwapSlots(sa, sc)
	v := b.Load(sa, zero) // now reads array c
	b.Store(sc, zero, v)  // now writes array a
	b.Halt()
	m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := a.Ints()[0]; got != 2 {
		t.Fatalf("swap broken: a[0]=%d, want 2", got)
	}
}
