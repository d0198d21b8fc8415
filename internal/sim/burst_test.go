package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// RA bursts (ra.go) and ring-derived swap quiescence (engine.go). The
// traced functional configuration never bursts, so every machine here goes
// through bothEngines: a native run that bursts must match it in memory,
// instruction count, leftovers and trap text. The white-box halves step
// tasks by hand to reach the states a burst or a swap has to get right.

// enqAll emits an enqueue of each token into q: data as a constant,
// control as its code.
func enqAll(b *isa.Builder, q int, toks ...Value) {
	for _, v := range toks {
		if v.Ctrl {
			b.EnqCtrl(q, v.Bits)
		} else {
			b.Enq(q, b.Const(v.Bits))
		}
	}
}

// ints makes data tokens.
func ints(vs ...int64) []Value {
	toks := make([]Value, len(vs))
	for i, v := range vs {
		toks[i] = IntVal(v)
	}
	return toks
}

// end is the token that finishes a stream.
var end = CtrlVal(arch.CtrlEnd)

// addFeeder adds a stage on th that enqueues toks into q and halts.
func addFeeder(m *Machine, q int, th arch.ThreadID, toks ...Value) {
	b := isa.NewBuilder("feed")
	enqAll(b, q, toks...)
	b.Halt()
	m.AddStage(&Stage{Prog: b.MustBuild(), Thread: th})
}

// addRecorder adds a stage on th that stores every token it dequeues from
// q — data as its bits, a control value as its code — into a new array
// "res" of n elements, up to and including the end marker.
func addRecorder(m *Machine, q, n int, th arch.ThreadID) {
	so := m.AddSlot("res", m.Space.Alloc("res", mem.I64, n))
	b := isa.NewBuilder("record")
	i, stop := b.Const(0), b.Const(arch.CtrlEnd)
	b.Label("loop")
	v := b.Deq(q)
	b.Br(b.IsCtrl(v), "ctrl")
	b.Store(so, i, v)
	b.OpImmTo(i, isa.OpIAddImm, i, 1)
	b.Jmp("loop")
	b.Label("ctrl")
	code := b.CtrlCode(v)
	b.Store(so, i, code)
	b.OpImmTo(i, isa.OpIAddImm, i, 1)
	b.BrZ(b.Op2(isa.OpICmpEQ, code, stop), "loop")
	b.Halt()
	m.AddStage(&Stage{Prog: b.MustBuild(), Thread: th})
}

// recorded runs build through both configurations and requires its "res"
// array to hold exactly want.
func recorded(t *testing.T, build func() *Machine, want []int64) {
	t.Helper()
	m, _, err := bothEngines(t, build)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Slots[m.SlotIndex("res")].Ints(); !slices.Equal(got, want) {
		t.Fatalf("recorded %v\nwant     %v", got, want)
	}
}

// finish runs a one-core native engine's remaining tasks to completion,
// leaving out stages a hand-made step already halted.
func finish(t *testing.T, e *engine, cores [][]task) {
	t.Helper()
	for i, tk := range cores[0] {
		if x, ok := tk.(*stageExec); ok && x.state == wHalted {
			cores[0][i] = nil
		}
	}
	e.runCore(cores[0])
	if e.failure != nil {
		t.Fatal(e.failure)
	}
}

// raOf returns the engine's i-th RA.
func raOf(e *engine, i int) *raExec {
	return e.ras[i].(*raExec)
}

// iota64 returns n values base, base+step, ...
func iota64(n int, base, step int64) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = base + int64(i)*step
	}
	return vs
}

// TestRABurstScanLongerThanRing streams a 90-element range through an
// output ring of 4: each step bursts as far as the ring has room and
// keeps the rest of the range for the next.
func TestRABurstScanLongerThanRing(t *testing.T) {
	data := iota64(100, 1000, 7)
	build := func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		sd := m.AddSlot("data", m.Space.AllocInts("data", data))
		in, out := m.AddQueue("in"), m.AddQueue("out")
		m.Queues[out].Depth = 4
		m.AddRA(arch.RASpec{Name: "scan", Mode: arch.RAScan, Slot: sd, InQ: in, OutQ: out})
		addFeeder(m, in, arch.ThreadID{}, append(ints(5, 95), end)...)
		addRecorder(m, out, 91, arch.ThreadID{Thread: 1})
		return m
	}
	recorded(t, build, append(slices.Clone(data[5:95]), arch.CtrlEnd))

	e, cores := newEngine(build(), "native", 0)
	r := raOf(e, 0)
	if !r.burstScan {
		t.Fatal("a one-core SCAN into a direct ring must burst")
	}
	e.stages[0].step()
	if st, _ := r.step(); st != blocked || !r.scanning || r.cur != 9 || e.queues[1].n != 4 {
		t.Fatalf("after one step: %v, scanning %v, cur %d, out %d; want blocked mid-range at 9 with the ring full", st, r.scanning, r.cur, e.queues[1].n)
	}
	finish(t, e, cores)
}

// TestRABurstScanEmitNext: a range that exactly fills the output ring in
// its last burst leaves its EmitNext marker for the next step; an empty
// range sends the marker alone.
func TestRABurstScanEmitNext(t *testing.T) {
	data := iota64(10, 10, 1)
	build := func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		sd := m.AddSlot("data", m.Space.AllocInts("data", data))
		in, out := m.AddQueue("in"), m.AddQueue("out")
		m.Queues[out].Depth = 3
		m.AddRA(arch.RASpec{Name: "scan", Mode: arch.RAScan, Slot: sd, InQ: in, OutQ: out, EmitNext: true, NextCode: 42})
		addFeeder(m, in, arch.ThreadID{}, append(ints(0, 6, 6, 6, 7, 9), end)...)
		addRecorder(m, out, 12, arch.ThreadID{Thread: 1})
		return m
	}
	recorded(t, build, []int64{10, 11, 12, 13, 14, 15, 42, 42, 17, 18, 42, arch.CtrlEnd})

	e, cores := newEngine(build(), "native", 0)
	feed, rec, r := e.stages[0], e.stages[1], raOf(e, 0)
	feed.step()
	r.step()
	rec.step()
	if st, _ := r.step(); st != blocked || !r.scanning || r.cur != r.end || e.queues[1].n != 3 {
		t.Fatalf("%v, scanning %v, cur %d of %d, out %d; want the range out and its marker waiting for room", st, r.scanning, r.cur, r.end, e.queues[1].n)
	}
	finish(t, e, cores)
}

// TestRABurstF64 bursts loads of an F64 array, through SCAN and INDIRECT.
func TestRABurstF64(t *testing.T) {
	vals := []float64{-2, 0.5, math.Pi, 1e300, math.Copysign(0, -1), 7.25, math.Inf(1), 3}
	bits := make([]int64, len(vals))
	for i, f := range vals {
		bits[i] = int64(math.Float64bits(f))
	}
	for _, c := range []struct {
		mode arch.RAMode
		toks []Value
		want []int64
	}{
		{arch.RAScan, ints(1, 7), bits[1:7]},
		{arch.RAIndirect, ints(3, 0, 7, 7, 2, 6), []int64{bits[3], bits[0], bits[7], bits[7], bits[2], bits[6]}},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			build := func() *Machine {
				m := NewMachine(arch.DefaultConfig(1))
				sv := m.AddSlot("vals", m.Space.AllocFloats("vals", vals))
				in, out := m.AddQueue("in"), m.AddQueue("out")
				m.Queues[out].Depth = 4
				m.AddRA(arch.RASpec{Name: "load", Mode: c.mode, Slot: sv, InQ: in, OutQ: out})
				addFeeder(m, in, arch.ThreadID{}, append(c.toks, end)...)
				addRecorder(m, out, len(c.want)+1, arch.ThreadID{Thread: 1})
				return m
			}
			recorded(t, build, append(slices.Clone(c.want), arch.CtrlEnd))
		})
	}
}

// indirectMachine feeds toks through an INDIRECT RA over tbl (100..107)
// into an output ring of 4.
func indirectMachine(toks []Value, n int) func() *Machine {
	return func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		st := m.AddSlot("tbl", m.Space.AllocInts("tbl", iota64(8, 100, 1)))
		in, out := m.AddQueue("in"), m.AddQueue("out")
		m.Queues[out].Depth = 4
		m.AddRA(arch.RASpec{Name: "look", Mode: arch.RAIndirect, Slot: st, InQ: in, OutQ: out})
		addFeeder(m, in, arch.ThreadID{}, append(toks, end)...)
		addRecorder(m, out, n, arch.ThreadID{Thread: 1})
		return m
	}
}

// TestRABurstIndirectCtrlMidRun: a control value ends a run; the per-token
// path passes it through in order and the next run starts after it.
func TestRABurstIndirectCtrlMidRun(t *testing.T) {
	toks := append(ints(1, 2, 3), CtrlVal(7))
	toks = append(toks, ints(0, 4, 5, 6, 7)...)
	toks = append(toks, CtrlVal(9), IntVal(2))
	build := indirectMachine(toks, 12)
	recorded(t, build, []int64{101, 102, 103, 7, 100, 104, 105, 106, 107, 9, 102, arch.CtrlEnd})

	e, cores := newEngine(build(), "native", 0)
	if r := raOf(e, 0); !r.burstIndirect {
		t.Fatal("a one-core INDIRECT RA must burst")
	}
	finish(t, e, cores)
}

// TestRABurstIndirectOutOfBounds: an out-of-bounds index ends a run, and
// the per-token path traps with the functional configuration's text.
func TestRABurstIndirectOutOfBounds(t *testing.T) {
	_, _, err := bothEngines(t, indirectMachine(ints(0, 1, 2, 99, 3), 8))
	var trap *TrapError
	if !errors.As(err, &trap) || trap.Stage != "ra:look" || !strings.Contains(trap.Msg, "index 99 out of bounds for tbl (len 8)") {
		t.Fatalf("got %v, want the RA's out-of-bounds trap on index 99", err)
	}
}

// chainMachine is BFS's RA shape: vertex pairs (v, v+1) go through an
// INDIRECT RA over nodes into a middle ring that is a SCAN RA's input, and
// the SCAN streams each vertex's edges with a group marker. Halfway, the
// feeder swaps edges for edges2 (every entry +100), which must wait until
// the chain is quiet. The RAs and the recorder run on raCore of a machine
// with cores cores; the feeder on core 0.
func chainMachine(cores, raCore int) func() *Machine {
	nodes := []int64{0, 2, 5, 5, 8}
	edges := []int64{10, 11, 20, 21, 22, 30, 31, 32}
	return func() *Machine {
		m := NewMachine(arch.DefaultConfig(cores))
		sn := m.AddSlot("nodes", m.Space.AllocInts("nodes", nodes))
		se := m.AddSlot("edges", m.Space.AllocInts("edges", edges))
		se2 := m.AddSlot("edges2", m.Space.AllocInts("edges2", iota64(8, 0, 0)))
		for i, v := range edges {
			m.Slots[se2].StoreInt(int64(i), v+100)
		}
		vq, mid, out := m.AddQueue("v"), m.AddQueue("mid"), m.AddQueue("out")
		m.Queues[out].Depth = 2
		m.AddRA(arch.RASpec{Name: "ind", Mode: arch.RAIndirect, Slot: sn, InQ: vq, OutQ: mid, Core: raCore})
		m.AddRA(arch.RASpec{Name: "scan", Mode: arch.RAScan, Slot: se, InQ: mid, OutQ: out, EmitNext: true, NextCode: arch.CtrlNext, Core: raCore})

		f := isa.NewBuilder("feed")
		enqAll(f, vq, ints(0, 1, 2, 3, 3, 4)...)
		f.SwapSlots(se, se2)
		enqAll(f, vq, ints(1, 2, 0, 1)...)
		enqAll(f, vq, end)
		f.Halt()
		m.AddStage(&Stage{Prog: f.MustBuild(), Thread: arch.ThreadID{Core: 0}})
		addRecorder(m, out, len(chainWant), arch.ThreadID{Core: raCore, Thread: 1})
		return m
	}
}

var chainWant = []int64{10, 11, 0, 0, 30, 31, 32, 0, 120, 121, 122, 0, 110, 111, 0, arch.CtrlEnd}

// TestRABurstIndirectScanChain: on one core the middle ring, though an RA
// input in a machine that swaps, is direct, and both RAs burst.
func TestRABurstIndirectScanChain(t *testing.T) {
	build := chainMachine(1, 0)
	recorded(t, build, chainWant)

	e, cores := newEngine(build(), "native", 0)
	ind, scan := raOf(e, 0), raOf(e, 1)
	if e.counted || !e.queues[0].direct || !e.queues[1].direct || !ind.burstIndirect || !scan.burstScan {
		t.Errorf("one core: counted %v, direct v %v mid %v, bursts indirect %v scan %v; want no counters, direct rings, both bursting",
			e.counted, e.queues[0].direct, e.queues[1].direct, ind.burstIndirect, scan.burstScan)
	}
	finish(t, e, cores)
	if e.raSent != nil || e.raDone != nil {
		t.Error("a one-core machine must keep no quiesce counters")
	}
}

// TestRABurstDeclinesOnTwoCores: with the RAs on another core than the
// swapping feeder, the counters stay, RA inputs leave the ring fast path
// and the INDIRECT RA moves token by token; the SCAN still bursts into the
// recorder's ring on its own core, since a range in flight holds off a
// counted swap as well.
func TestRABurstDeclinesOnTwoCores(t *testing.T) {
	build := chainMachine(2, 1)
	e, _ := newEngine(build(), "native", 0)
	ind, scan := raOf(e, 0), raOf(e, 1)
	if !e.counted || e.queues[0].direct || e.queues[1].direct || !e.queues[2].direct {
		t.Errorf("two cores: counted %v, direct v %v mid %v out %v; want counters, counted RA inputs, a direct output",
			e.counted, e.queues[0].direct, e.queues[1].direct, e.queues[2].direct)
	}
	if ind.burstScan || ind.burstIndirect || !scan.burstScan {
		t.Errorf("bursts: indirect %v/%v, scan %v; want only the SCAN's", ind.burstScan, ind.burstIndirect, scan.burstScan)
	}
	for i := 0; i < 20; i++ {
		recorded(t, build, chainWant)
	}
}

// swapScanMachine: a swapper hands a SCAN RA the range [0,6) of a, swaps a
// for b, and hands it the same range again; a recorder drains the RA's
// output ring of 2. Every token of the first range must come from a.
func swapScanMachine() *Machine {
	m := NewMachine(arch.DefaultConfig(1))
	sa := m.AddSlot("a", m.Space.AllocInts("a", iota64(6, 1, 1)))
	sb := m.AddSlot("b", m.Space.AllocInts("b", iota64(6, -1, -1)))
	in, out := m.AddQueue("in"), m.AddQueue("out")
	m.Queues[out].Depth = 2
	m.AddRA(arch.RASpec{Name: "scan", Mode: arch.RAScan, Slot: sa, InQ: in, OutQ: out})
	s := isa.NewBuilder("swapper")
	enqAll(s, in, ints(0, 6)...)
	s.SwapSlots(sa, sb)
	enqAll(s, in, IntVal(0), IntVal(6), end)
	s.Halt()
	m.AddStage(&Stage{Prog: s.MustBuild(), Thread: arch.ThreadID{}})
	addRecorder(m, out, 13, arch.ThreadID{Thread: 1})
	return m
}

// TestSwapQuiescesScanRA: on one core, a swap must wait while tokens sit in
// its RA's input ring, and again while the RA streams a range with its
// input empty — both states the rings and the scanning flag alone report.
func TestSwapQuiescesScanRA(t *testing.T) {
	recorded(t, swapScanMachine, []int64{1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6, arch.CtrlEnd})

	e, cores := newEngine(swapScanMachine(), "native", 0)
	swapper, r := e.stages[0], raOf(e, 0)
	a := e.slots[0].Load()
	waits := func(when string) {
		t.Helper()
		if st, _ := swapper.step(); st != blocked || swapper.state != wSwap || e.slots[0].Load() != a {
			t.Fatalf("%s: swapper %v in state %d, slot a swapped %v; want it blocked in the swap", when, st, swapper.state, e.slots[0].Load() != a)
		}
	}
	waits("range queued")
	if e.queues[0].n != 2 || r.scanning {
		t.Fatalf("RA input %d tokens, scanning %v; want the range queued", e.queues[0].n, r.scanning)
	}
	r.step()
	if e.queues[0].n != 0 || !r.scanning {
		t.Fatalf("RA input %d tokens, scanning %v; want the range streaming", e.queues[0].n, r.scanning)
	}
	waits("range streaming")
	finish(t, e, cores)
	if got := e.m.Slots[e.m.SlotIndex("res")].Ints(); got[5] != 6 || got[6] != -1 {
		t.Fatalf("recorded %v: the swap landed mid-range", got)
	}
}
