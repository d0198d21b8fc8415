package native_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
	"phloem/internal/native"
	"phloem/internal/sim"
)

// Machine-level tests for the drain/termination protocol, the guardrails,
// and the sentinel-error contract. Machines are built twice (engines
// consume queue/slot state) so functional and native runs never share
// anything but the build recipe.

func thread(n int) arch.ThreadID { return arch.ThreadID{Core: 0, Thread: n} }

// diffMachines runs the same machine recipe through both backends and
// requires matching instruction counts, leftovers, and memory.
func diffMachines(t *testing.T, name string, build func() *sim.Machine) {
	t.Helper()
	fm := build()
	ts, err := fm.RunFunctional()
	if err != nil {
		t.Fatalf("%s: functional: %v", name, err)
	}
	nm := build()
	st, err := native.Run(nm, native.Options{})
	if err != nil {
		t.Fatalf("%s: native: %v", name, err)
	}
	if st.Instructions != ts.Instructions {
		t.Errorf("%s: native %d instructions, functional %d", name, st.Instructions, ts.Instructions)
	}
	for q := range st.Leftover {
		if st.Leftover[q] != ts.Leftover[q] {
			t.Errorf("%s: q%d leftover %d native vs %d functional", name, q, st.Leftover[q], ts.Leftover[q])
		}
	}
	compareSpaces(t, name, fm.Space, nm.Space)
}

// stageWait returns the named stage's entry in err's deadlock snapshot.
func stageWait(t *testing.T, err error, stage string) sim.StageWait {
	t.Helper()
	var de *sim.DeadlockError
	if !errors.As(err, &de) || de.Snapshot.Phase != "native" {
		t.Fatalf("expected a native-phase DeadlockError, got %#v", err)
	}
	for _, w := range de.Snapshot.Stages {
		if w.Stage == stage {
			return w
		}
	}
	t.Fatalf("stage %q not in snapshot: %v", stage, err)
	return sim.StageWait{}
}

// sameSnapshot reports whether two deadlock errors carry the same wait-for
// snapshot apart from the phase that took it.
func sameSnapshot(a, b error) bool {
	var da, db *sim.DeadlockError
	if !errors.As(a, &da) || !errors.As(b, &db) {
		return false
	}
	sa := *da.Snapshot
	sa.Phase = db.Snapshot.Phase
	return reflect.DeepEqual(&sa, db.Snapshot)
}

// checkBlocked requires the named stage to be reported blocked in the
// given state at its nth (from 0) instruction with opcode op, on queue q.
func checkBlocked(t *testing.T, m *sim.Machine, err error, stage, state string, op isa.Op, nth, q int) {
	t.Helper()
	w := stageWait(t, err, stage)
	pc := -1
	for _, st := range m.Stages {
		if st.Prog.Name != stage {
			continue
		}
		for i, in := range st.Prog.Instrs {
			if in.Op != op {
				continue
			}
			if nth == 0 {
				pc = i
				break
			}
			nth--
		}
	}
	if w.State != state || int(w.PC) != pc || w.Queue == nil || w.Queue.Q != q {
		t.Errorf("%s: blocked as %v, want %s at pc=%d on q%d", stage, w, state, pc, q)
	}
}

// TestEmptyPipeline: a machine whose only stage immediately halts, and a
// machine with no stages at all.
func TestEmptyPipeline(t *testing.T) {
	diffMachines(t, "halt-only", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		b := isa.NewBuilder("empty")
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	})
	m := sim.NewMachine(arch.DefaultConfig(1))
	st, err := native.Run(m, native.Options{})
	if err != nil {
		t.Fatalf("no-stage machine: %v", err)
	}
	if st.Instructions != 0 {
		t.Errorf("no-stage machine executed %d instructions", st.Instructions)
	}
}

// TestHandlerOnlyStage: a consumer that does nothing but loop on deq with
// a registered control handler as its sole exit path.
func TestHandlerOnlyStage(t *testing.T) {
	diffMachines(t, "handler-only", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("out", mem.I64, 2)
		so := m.AddSlot("out", out)
		q := m.AddQueue("work")

		p := isa.NewBuilder("producer")
		for i := int64(1); i <= 3; i++ {
			v := p.Const(i * 10)
			p.Enq(q, v)
		}
		p.EnqCtrl(q, arch.CtrlEnd)
		p.Halt()
		m.AddStage(&sim.Stage{Prog: p.MustBuild(), Thread: thread(0)})

		c := isa.NewBuilder("consumer")
		c.SetHandler(q, "end")
		acc := c.Const(0)
		zero := c.Const(0)
		one := c.Const(1)
		c.Label("loop")
		v := c.Deq(q)
		c.Op2To(acc, isa.OpIAdd, acc, v)
		c.Jmp("loop")
		c.Label("end")
		c.Store(so, zero, acc)
		hv := c.HandlerVal()
		c.Store(so, one, hv)
		c.Halt()
		m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: thread(1)})
		return m
	})
}

// TestOverSentQueue: tokens left in a queue nobody consumes. Within the
// queue's capacity both backends finish and report the same leftovers;
// past it both block on the full queue (every ring is bounded, as in the
// timing model) and report the same deadlock.
func TestOverSentQueue(t *testing.T) {
	build := func(tokens int64) func() *sim.Machine {
		return func() *sim.Machine {
			m := sim.NewMachine(arch.DefaultConfig(1))
			m.Queues = append(m.Queues, arch.QueueSpec{Name: "sink", Depth: 8})
			b := isa.NewBuilder("producer")
			i := b.Const(0)
			n := b.Const(tokens)
			b.Label("loop")
			done := b.Op2(isa.OpICmpGE, i, n)
			b.Br(done, "out")
			b.Enq(0, i)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			b.Jmp("loop")
			b.Label("out")
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
			return m
		}
	}
	diffMachines(t, "oversend-within-cap", build(4))

	// Past capacity: the producer blocks on the full queue with no
	// consumer, which is a deadlock at once on both backends.
	_, ferr := build(12)().RunFunctional()
	if !errors.Is(ferr, sim.ErrDeadlock) {
		t.Fatalf("functional oversend past capacity: got %v, want ErrDeadlock", ferr)
	}
	m := build(12)()
	_, err := native.Run(m, native.Options{})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("native oversend past capacity: got %v, want ErrDeadlock", err)
	}
	checkBlocked(t, m, err, "producer", "enq-full", isa.OpEnq, 0, 0)
	if w := stageWait(t, err, "producer"); w.Queue.Len != 8 || w.Queue.Cap != 8 {
		t.Errorf("sink should be reported full at 8/8, got %v", w.Queue)
	}
	if !sameSnapshot(ferr, err) {
		t.Errorf("deadlock snapshots differ:\n  functional: %v\n  native:     %v", ferr, err)
	}
}

// TestZeroProducerDeq: dequeuing a queue no stage or RA ever feeds is a
// deadlock on both backends, with the queue and the blocked dequeue's pc
// in the snapshot.
func TestZeroProducerDeq(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		m.Queues = append(m.Queues, arch.QueueSpec{Name: "never_fed"})
		b := isa.NewBuilder("starved")
		b.DeqTo(b.Reg(), 0)
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	}
	_, ferr := build().RunFunctional()
	if !errors.Is(ferr, sim.ErrDeadlock) {
		t.Fatalf("functional: got %v, want ErrDeadlock", ferr)
	}
	m := build()
	_, nerr := native.Run(m, native.Options{})
	if !errors.Is(nerr, sim.ErrDeadlock) {
		t.Fatalf("native: got %v, want ErrDeadlock", nerr)
	}
	if !strings.Contains(nerr.Error(), "never_fed") {
		t.Errorf("snapshot should name the starved queue, got: %v", nerr)
	}
	checkBlocked(t, m, nerr, "starved", "deq-empty", isa.OpDeq, 0, 0)
}

// TestCrossBlockDeadlock: two stages each waiting for the other's first
// token. Both queues have live producers, so nothing ever closes and only
// the idle census can catch it.
func TestCrossBlockDeadlock(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		q0 := m.AddQueue("ab")
		q1 := m.AddQueue("ba")
		mk := func(name string, deqQ, enqQ int, tid int) {
			b := isa.NewBuilder(name)
			v := b.Deq(deqQ)
			b.Enq(enqQ, v)
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(tid)})
		}
		mk("a", q1, q0, 0)
		mk("b", q0, q1, 1)
		return m
	}
	_, ferr := build().RunFunctional()
	if !errors.Is(ferr, sim.ErrDeadlock) {
		t.Fatalf("functional: got %v, want ErrDeadlock", ferr)
	}
	m := build()
	_, nerr := native.Run(m, native.Options{})
	if !errors.Is(nerr, sim.ErrDeadlock) {
		t.Fatalf("native: got %v, want ErrDeadlock", nerr)
	}
	checkBlocked(t, m, nerr, "a", "deq-empty", isa.OpDeq, 0, 1)
	checkBlocked(t, m, nerr, "b", "deq-empty", isa.OpDeq, 0, 0)
}

// infiniteLoop builds a machine that never terminates and touches no
// queues: the livelock/cancellation test subject.
func infiniteLoop(traceCap int) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(1))
	m.MaxTraceEntries = traceCap
	b := isa.NewBuilder("spin")
	r := b.Const(0)
	b.Label("loop")
	b.OpImmTo(r, isa.OpIAddImm, r, 1)
	b.Jmp("loop")
	b.Halt() // unreachable; the builder requires a trailing halt
	m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
	return m
}

// TestCancellation: Machine.Ctx cancellation mid-run returns the same
// ErrCancelled sentinel family as the simulator, with the native phase.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := infiniteLoop(1 << 40)
	m.Ctx = ctx
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := native.Run(m, native.Options{})
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	var ce *sim.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("not a CancelledError: %#v", err)
	}
	if ce.Phase != "native" {
		t.Errorf("phase = %q, want native", ce.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not preserved: %v", err)
	}
}

// TestPreCancelled: an already-cancelled context aborts promptly.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := infiniteLoop(1 << 40)
	m.Ctx = ctx
	if _, err := native.Run(m, native.Options{}); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
}

// TestCancelledDeadline: a wall-clock deadline is a context deadline; when
// its timer fires mid-run the run stops with ErrCancelled and the deadline
// as the cause.
func TestCancelledDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	m := infiniteLoop(1 << 40)
	m.Ctx = ctx
	_, err := native.Run(m, native.Options{})
	if !errors.Is(err, sim.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCancelled caused by context.DeadlineExceeded", err)
	}
}

// TestTraceLimitParity: a livelocked program trips the instruction cap on
// both backends with the same sentinel.
func TestTraceLimitParity(t *testing.T) {
	if _, err := infiniteLoop(200_000).RunFunctional(); !errors.Is(err, sim.ErrTraceLimit) {
		t.Fatalf("functional: got %v, want ErrTraceLimit", err)
	}
	if _, err := native.Run(infiniteLoop(200_000), native.Options{}); !errors.Is(err, sim.ErrTraceLimit) {
		t.Fatalf("native: got %v, want ErrTraceLimit", err)
	}
}

// TestTrapParity: a functional trap (division by zero) carries the same
// class, stage, and message on both backends.
func TestTrapParity(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		b := isa.NewBuilder("divzero")
		z := b.Const(0)
		b.Op2(isa.OpIDiv, z, z)
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	}
	_, ferr := build().RunFunctional()
	_, nerr := native.Run(build(), native.Options{})
	if !errors.Is(ferr, sim.ErrTrap) || !errors.Is(nerr, sim.ErrTrap) {
		t.Fatalf("trap classes: functional %v, native %v", ferr, nerr)
	}
	if ferr.Error() != nerr.Error() {
		t.Errorf("trap messages differ:\n  functional: %v\n  native:     %v", ferr, nerr)
	}
}

// TestBarrierHaltRelease: a stage halting must release the remaining
// stages' barrier (the live-count rule), whether the rule is applied at
// once (native) or between rounds (functional).
func TestBarrierHaltRelease(t *testing.T) {
	diffMachines(t, "barrier-halt", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("out", mem.I64, 4)
		so := m.AddSlot("out", out)
		mk := func(name string, slot int, idx, val int64, tid int) {
			b := isa.NewBuilder(name)
			i := b.Const(idx)
			v := b.Const(val)
			b.Store(slot, i, v)
			b.Barrier()
			v2 := b.OpImm(isa.OpIAddImm, v, 100)
			b.Store(slot, i, v2)
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(tid)})
		}
		mk("a", so, 0, 1, 0)
		mk("b", so, 1, 2, 1)
		// c halts without ever reaching a barrier; a and b must still
		// release once c is gone.
		c := isa.NewBuilder("c")
		i := c.Const(2)
		v := c.Const(3)
		c.Store(so, i, v)
		c.Halt()
		m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: thread(2)})
		return m
	})
}

// TestInstructionCountAtFlushBoundary: a stage's count is flushed in chunks
// of 1024 and Halt leaves the interpreter before the periodic flush, so a
// stage whose total (Halt included) is a multiple of the chunk must still
// report all of it — straight through, and when it blocks and resumes.
func TestInstructionCountAtFlushBoundary(t *testing.T) {
	pad := func(b *isa.Builder, total int) *isa.Program {
		p := b.MustBuild()
		for n := len(p.Instrs); n < total-1; n++ {
			b.Emit(isa.Instr{Op: isa.OpNop})
		}
		b.Halt()
		return b.MustBuild()
	}
	for _, n := range []int{1023, 1024, 1025, 2048, 3072} {
		build := func() *sim.Machine {
			m := sim.NewMachine(arch.DefaultConfig(1))
			m.AddStage(&sim.Stage{Prog: pad(isa.NewBuilder("line"), n), Thread: thread(0)})
			return m
		}
		diffMachines(t, "straight-line", build)
		if st, err := native.Run(build(), native.Options{}); err != nil {
			t.Fatal(err)
		} else if st.Instructions != uint64(n) {
			t.Errorf("%d-instruction stage counted as %d", n, st.Instructions)
		}
	}
	// The producer overfills the queue and the consumer starts on an empty
	// one, so both cross their flush boundaries after being resumed.
	const tokens = 100
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		q := m.AddQueue("work")
		c := isa.NewBuilder("consumer")
		for i := 0; i < tokens; i++ {
			c.Deq(q)
		}
		m.AddStage(&sim.Stage{Prog: pad(c, 2048), Thread: thread(0)})
		p := isa.NewBuilder("producer")
		v := p.Const(7)
		for i := 0; i < tokens; i++ {
			p.Enq(q, v)
		}
		m.AddStage(&sim.Stage{Prog: pad(p, 1024), Thread: thread(1)})
		return m
	}
	diffMachines(t, "blocked-and-resumed", build)
	if st, err := native.Run(build(), native.Options{}); err != nil {
		t.Fatal(err)
	} else if st.Instructions != 1024+2048 {
		t.Errorf("stages of 1024 and 2048 instructions counted as %d", st.Instructions)
	}

	// A fused compare-and-branch counts two at once, so a pair whose
	// compare is instruction 1024 (or 2048) carries the count from 1023
	// past the boundary without landing on it.
	for _, n := range []int{2050, 2051, 3072} {
		build := func() *sim.Machine {
			m := sim.NewMachine(arch.DefaultConfig(1))
			b := isa.NewBuilder("straddle")
			zero := b.Const(0)
			for _, at := range []int{1023, 2047} {
				for b.PC() < at {
					b.Emit(isa.Instr{Op: isa.OpNop})
				}
				b.BrZ(b.Op2(isa.OpICmpNE, zero, zero), fmt.Sprintf("next%d", at))
				b.Label(fmt.Sprintf("next%d", at))
			}
			m.AddStage(&sim.Stage{Prog: pad(b, n), Thread: thread(0)})
			return m
		}
		diffMachines(t, "straddling-pairs", build)
		if st, err := native.Run(build(), native.Options{}); err != nil {
			t.Fatal(err)
		} else if st.Instructions != uint64(n) {
			t.Errorf("%d-instruction stage with straddling fused pairs counted as %d", n, st.Instructions)
		}
	}
}

// fusedSpin builds one never-terminating stage per core that spins in a
// loop of one fused compare-and-branch, two instructions a turn, entered
// after pre padding instructions: with pre odd, the count only ever takes
// odd values and never lands on a multiple of the flush interval.
func fusedSpin(cores, traceCap, pre int) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(cores))
	m.MaxTraceEntries = traceCap
	for c := 0; c < cores; c++ {
		b := isa.NewBuilder(fmt.Sprintf("fused-spin%d", c))
		lo, hi := b.Const(0), b.Const(1)
		for i := 0; i < pre; i++ {
			b.Emit(isa.Instr{Op: isa.OpNop})
		}
		b.Label("spin")
		b.Br(b.Op2(isa.OpICmpLT, lo, hi), "spin")
		b.Halt() // unreachable; the builder requires a trailing halt
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: c}})
	}
	return m
}

// within runs f and fails the test if it has not returned after d: a stage
// that never polls the stop flag never returns at all.
func within(t *testing.T, d time.Duration, name string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: still running after %v; the stop flag is never polled", name, d)
		return nil
	}
}

// TestFusedSpinPollsStopFlag: a stage looping on one fused pair, entered at
// an even and at an odd count, still flushes its count and polls the stop
// flag, so the livelock guard and cancellation both end it.
func TestFusedSpinPollsStopFlag(t *testing.T) {
	for _, pre := range []int{0, 1} {
		name := fmt.Sprintf("entered-after-%d", 2+pre)
		err := within(t, time.Minute, name, func() error {
			_, err := native.Run(fusedSpin(1, 200_000, pre), native.Options{})
			return err
		})
		var te *sim.TraceLimitError
		if !errors.As(err, &te) || te.Entries <= 200_000 {
			t.Errorf("%s: got %v, want ErrTraceLimit past 200000", name, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		m := fusedSpin(1, 1<<40, pre)
		m.Ctx = ctx
		timer := time.AfterFunc(10*time.Millisecond, cancel)
		err = within(t, time.Minute, name, func() error {
			_, err := native.Run(m, native.Options{})
			return err
		})
		timer.Stop()
		cancel()
		if !errors.Is(err, sim.ErrCancelled) {
			t.Errorf("%s: got %v, want ErrCancelled", name, err)
		}
	}
}
