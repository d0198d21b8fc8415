package native_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/isa"
	"phloem/internal/mem"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// Multi-core machines: a host goroutine per simulated core, cross-core
// queues and the barrier behind the engine lock, and the idle census as
// the deadlock verdict. Everything here also runs under -race -cpu 1,2,4.

// TestDiffReplicatedBFS runs compiled BFS replicated onto four cores
// (private queues, RAs and fringes per replica; shared graph; one
// machine-wide barrier group) through the differential harness.
func TestDiffReplicatedBFS(t *testing.T) {
	const R = 4
	prog, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	repl, err := pipeline.Replicate(res.Pipeline, R, []string{"nodes", "edges"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.CSR{graph.Grid("grid", 20, 20, 2), graph.PowerLaw("pl", 400, 3, 3)} {
		base := workloads.BFSBindings(g, 0)
		b := pipeline.Bindings{
			Ints:    map[string][]int64{"nodes": g.Nodes, "edges": g.Edges},
			Scalars: base.Scalars,
		}
		for r := 0; r < R; r++ {
			for _, name := range []string{"distances", "cur_fringe", "next_fringe"} {
				b.Ints[fmt.Sprintf("r%d.%s", r, name)] = append([]int64(nil), base.Ints[name]...)
			}
		}
		inst := runDiffOn(t, "replicated/bfs/"+g.Name, repl, arch.DefaultConfig(R), b)
		want := workloads.BFSRef(g, 0)
		for r := 0; r < R; r++ {
			got := inst.Arrays[fmt.Sprintf("r%d.distances", r)].Ints()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: replica %d distances[%d] = %d, want %d", g.Name, r, i, got[i], want[i])
				}
			}
		}
	}
}

// twoCore builds a producer on core 0 feeding a consumer on core 1
// through one cross-core queue. The producer first spins for spin
// iterations, so the consumer's core parks and must be woken by the first
// token. Both then meet at a barrier that a third stage, which halts
// without reaching it, has to release from core 1.
func twoCore(spin int64) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(2))
	out := m.Space.Alloc("out", mem.I64, 4)
	so := m.AddSlot("out", out)
	q := m.AddQueue("cross")
	m.Queues[q].Depth = 2

	p := isa.NewBuilder("producer")
	i := p.Const(0)
	n := p.Const(spin)
	p.Label("spin")
	p.OpImmTo(i, isa.OpIAddImm, i, 1)
	p.Br(p.Op2(isa.OpICmpLT, i, n), "spin")
	for v := int64(1); v <= 5; v++ {
		p.Enq(q, p.Const(v*10))
	}
	p.EnqCtrl(q, arch.CtrlEnd)
	p.Barrier()
	p.Store(so, p.Const(0), p.Const(7))
	p.Halt()
	m.AddStage(&sim.Stage{Prog: p.MustBuild(), Thread: arch.ThreadID{Core: 0}})

	c := isa.NewBuilder("consumer")
	c.SetHandler(q, "end")
	acc := c.Const(0)
	c.Label("loop")
	c.Op2To(acc, isa.OpIAdd, acc, c.Deq(q))
	c.Jmp("loop")
	c.Label("end")
	c.Barrier()
	c.Store(so, c.Const(1), acc)
	c.Halt()
	m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: arch.ThreadID{Core: 1}})

	h := isa.NewBuilder("bystander")
	h.Store(so, h.Const(2), h.Const(3))
	h.Halt()
	m.AddStage(&sim.Stage{Prog: h.MustBuild(), Thread: arch.ThreadID{Core: 1, Thread: 1}})
	return m
}

func TestCrossCoreQueueAndBarrier(t *testing.T) {
	for _, spin := range []int64{0, 20_000} {
		for i := 0; i < 10; i++ {
			diffMachines(t, fmt.Sprintf("two-core/spin%d", spin), func() *sim.Machine { return twoCore(spin) })
		}
	}
}

// TestCrossCoreSwap: a stage on core 0 looks index 0 up through an
// INDIRECT RA on core 1, swaps the RA's array for another, and repeats. The
// RA's core may be anywhere in its loop when the swap lands, and every
// lookup must still see the binding of its own round.
func TestCrossCoreSwap(t *testing.T) {
	const rounds = 2000
	diffMachines(t, "cross-core-swap", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(2))
		a := m.Space.Alloc("a", mem.I64, 1)
		a.StoreInt(0, 1)
		b := m.Space.Alloc("b", mem.I64, 1)
		b.StoreInt(0, 2)
		sa, sb := m.AddSlot("a", a), m.AddSlot("b", b)
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, rounds))
		idx, val := m.AddQueue("idx"), m.AddQueue("val")
		m.AddRA(arch.RASpec{Name: "look", Mode: arch.RAIndirect, Slot: sa, InQ: idx, OutQ: val, Core: 1})

		s := isa.NewBuilder("swapper")
		zero := s.Const(0)
		i := s.Const(0)
		n := s.Const(rounds)
		s.Label("loop")
		s.Enq(idx, zero)
		s.Store(so, i, s.Deq(val))
		s.SwapSlots(sa, sb)
		s.OpImmTo(i, isa.OpIAddImm, i, 1)
		s.Br(s.Op2(isa.OpICmpLT, i, n), "loop")
		s.Halt()
		m.AddStage(&sim.Stage{Prog: s.MustBuild(), Thread: arch.ThreadID{Core: 0}})
		return m
	})
}

// crossDeadlock puts the two stages of TestCrossBlockDeadlock on
// different cores and adds busy bystander cores that finish late: the
// verdict must wait for them, then be exact.
func crossDeadlock(cores int) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(cores))
	q0 := m.AddQueue("ab")
	q1 := m.AddQueue("ba")
	mk := func(name string, deqQ, enqQ, core int) {
		b := isa.NewBuilder(name)
		b.Enq(enqQ, b.Deq(deqQ))
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: core}})
	}
	mk("a", q1, q0, 0)
	mk("b", q0, q1, 1)
	for c := 2; c < cores; c++ {
		b := isa.NewBuilder(fmt.Sprintf("busy%d", c))
		i := b.Const(0)
		n := b.Const(100_000)
		b.Label("spin")
		b.OpImmTo(i, isa.OpIAddImm, i, 1)
		b.Br(b.Op2(isa.OpICmpLT, i, n), "spin")
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: c}})
	}
	return m
}

func TestCrossCoreDeadlock(t *testing.T) {
	if _, err := crossDeadlock(4).RunFunctional(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("functional: got %v, want ErrDeadlock", err)
	}
	for i := 0; i < 20; i++ {
		m := crossDeadlock(4)
		_, err := native.Run(m, native.Options{})
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("native: got %v, want ErrDeadlock", err)
		}
		checkBlocked(t, m, err, "a", "deq-empty", isa.OpDeq, 0, 1)
		checkBlocked(t, m, err, "b", "deq-empty", isa.OpDeq, 0, 0)
		var de *sim.DeadlockError
		errors.As(err, &de)
		if len(de.Snapshot.Stages) != 2 {
			t.Errorf("snapshot should list exactly the two blocked stages, got: %v", err)
		}
	}
}

// spinners builds one never-terminating stage per core; with trap set,
// core 0 divides by zero after a short spin instead.
func spinners(cores, traceCap int, trap bool) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(cores))
	m.MaxTraceEntries = traceCap
	for c := 0; c < cores; c++ {
		b := isa.NewBuilder(fmt.Sprintf("spin%d", c))
		r := b.Const(0)
		lim := b.Const(5000)
		b.Label("loop")
		b.OpImmTo(r, isa.OpIAddImm, r, 1)
		if trap && c == 0 {
			b.Br(b.Op2(isa.OpICmpLT, r, lim), "loop")
			b.Op2(isa.OpIDiv, r, b.Const(0))
		}
		b.Jmp("loop")
		b.Halt() // unreachable; the builder requires a trailing halt
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: c}})
	}
	return m
}

// noLeak runs f and requires the goroutine count back at its starting
// value: nothing an engine entry point starts may outlive it. A goroutine
// that has done its work can take a moment to leave the count, hence the
// retry.
func noLeak(t *testing.T, name string, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%s: %d goroutines before the run, %d after\n%s", name, before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestNoGoroutineLeak covers every exit path of both engine entry points:
// native.Run on a single-core machine (which must not start a goroutine at
// all) and on a four-core one, and RunFunctional, which runs every task on
// the caller's goroutine and polls for cancellation, on the same machines.
func TestNoGoroutineLeak(t *testing.T) {
	entries := []struct {
		name string
		run  func(m *sim.Machine) error
	}{
		{"native", func(m *sim.Machine) error { _, err := native.Run(m, native.Options{}); return err }},
		{"functional", func(m *sim.Machine) error { _, err := m.RunFunctional(); return err }},
	}
	for _, entry := range entries {
		for _, cores := range []int{1, 4} {
			run := func(name string, m *sim.Machine, want error) {
				t.Helper()
				name = fmt.Sprintf("%s/%s/%d-core", entry.name, name, cores)
				noLeak(t, name, func() {
					if err := entry.run(m); !errors.Is(err, want) {
						t.Errorf("%s: got %v, want %v", name, err, want)
					}
				})
			}
			success := twoCore(1000)
			deadlock := crossDeadlock(4)
			if cores == 1 {
				success = sim.NewMachine(arch.DefaultConfig(1))
				b := isa.NewBuilder("halt")
				b.Halt()
				success.AddStage(&sim.Stage{Prog: b.MustBuild()})
				deadlock = sim.NewMachine(arch.DefaultConfig(1))
				deadlock.AddQueue("never_fed")
				b = isa.NewBuilder("starved")
				b.Deq(0)
				b.Halt()
				deadlock.AddStage(&sim.Stage{Prog: b.MustBuild()})
			}
			run("success", success, nil)
			run("deadlock", deadlock, sim.ErrDeadlock)
			run("trap", spinners(cores, 1<<40, true), sim.ErrTrap)
			run("trace-limit", spinners(cores, 200_000, false), sim.ErrTraceLimit)

			m := spinners(cores, 1<<40, false)
			m.WallDeadline = time.Now().Add(10 * time.Millisecond)
			run("wall-deadline", m, sim.ErrWallBudget)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			m = spinners(cores, 1<<40, false)
			m.Ctx = ctx
			run("pre-cancelled", m, sim.ErrCancelled)

			ctx, cancel = context.WithCancel(context.Background())
			m = spinners(cores, 1<<40, false)
			m.Ctx = ctx
			timer := time.AfterFunc(10*time.Millisecond, cancel)
			run("mid-run-cancel", m, sim.ErrCancelled)
			timer.Stop()
			cancel()

			// A loop of one fused pair entered at an odd count.
			ctx, cancel = context.WithCancel(context.Background())
			m = fusedSpin(cores, 1<<40, 1)
			m.Ctx = ctx
			timer = time.AfterFunc(10*time.Millisecond, cancel)
			run("fused-spin-cancel", m, sim.ErrCancelled)
			timer.Stop()
			cancel()
		}
	}
}
