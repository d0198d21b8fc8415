package sim

import (
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/isa"
)

// overSendMachine builds a two-stage pipeline whose producer enqueues three
// tokens while the consumer dequeues only one, leaving two in the queue.
func overSendMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewMachine(arch.DefaultConfig(1))
	q := m.AddQueue("overfed")
	{
		b := isa.NewBuilder("prod")
		v := b.Const(7)
		b.Enq(q, v)
		b.Enq(q, v)
		b.Enq(q, v)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	}
	{
		b := isa.NewBuilder("cons")
		b.Deq(q)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	}
	return m
}

func TestLeftoverSurfacesOverSend(t *testing.T) {
	m, ts, err := bothEngines(t, func() *Machine { return overSendMachine(t) })
	if err != nil {
		t.Fatalf("functional run: %v", err)
	}
	if len(ts.Leftover) != 1 || ts.Leftover[0] != 2 {
		t.Fatalf("Leftover = %v, want [2]", ts.Leftover)
	}
	err = ts.CheckDrained(m)
	if err == nil {
		t.Fatal("CheckDrained = nil for an over-sent pipeline")
	}
	for _, want := range []string{"queue 0", "overfed", "2 leftover"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CheckDrained error missing %q: %v", want, err)
		}
	}
}

func TestCheckDrainedCleanPipeline(t *testing.T) {
	m, ts, err := bothEngines(t, func() *Machine {
		m := NewMachine(arch.DefaultConfig(1))
		q := m.AddQueue("balanced")
		{
			b := isa.NewBuilder("prod")
			v := b.Const(7)
			b.Enq(q, v)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
		}
		{
			b := isa.NewBuilder("cons")
			b.Deq(q)
			b.Halt()
			m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
		}
		return m
	})
	if err != nil {
		t.Fatalf("functional run: %v", err)
	}
	if err := ts.CheckDrained(m); err != nil {
		t.Errorf("CheckDrained on a drained pipeline: %v", err)
	}
}

// TestLeftoverBeyondCapacity: in the functional configuration a full ring
// doubles instead of refusing — the ring fast path declines and the engine
// grows it — so a producer can over-send far past the queue's capacity and
// the surplus surfaces as Leftover.
func TestLeftoverBeyondCapacity(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	m.Queues = append(m.Queues, arch.QueueSpec{Name: "overfed", Depth: 2})
	{
		b := isa.NewBuilder("prod")
		i, n := b.Const(0), b.Const(100)
		b.Label("loop")
		b.Enq(0, i)
		b.OpImmTo(i, isa.OpIAddImm, i, 1)
		b.Br(b.Op2(isa.OpICmpLT, i, n), "loop")
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	}
	{
		b := isa.NewBuilder("cons")
		b.Deq(0)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	}
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Leftover[0] != 99 {
		t.Errorf("Leftover = %v, want [99]", ts.Leftover)
	}
}
