package sim

import (
	"errors"
	"fmt"
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
	err = checkDrained(ts, m)
	if err == nil {
		t.Fatal("checkDrained = nil for an over-sent pipeline")
	}
	for _, want := range []string{"queue 0", "overfed", "2 leftover"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("checkDrained error missing %q: %v", want, err)
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
	if err := checkDrained(ts, m); err != nil {
		t.Errorf("checkDrained on a drained pipeline: %v", err)
	}
}

// TestLeftoverBeyondCapacity: a full ring refuses the enqueue in both
// configurations, so a producer that over-sends past its queue's capacity
// to a consumer that takes one token blocks on the full ring, and the run
// deadlocks instead of reporting the surplus as Leftover.
func TestLeftoverBeyondCapacity(t *testing.T) {
	_, _, err := bothEngines(t, func() *Machine {
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
		return m
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	if s := de.Snapshot.Stages; len(s) != 1 || s[0].Stage != "prod" || s[0].State != "enq-full" ||
		s[0].Queue.Len != 2 || s[0].Queue.Cap != 2 {
		t.Errorf("want prod alone, enq-full at 2/2:\n%s", de.Snapshot)
	}
}

// checkDrained reports over-sent queues: it returns nil when every queue
// drained, otherwise an error naming each queue (index, name, and leftover
// token count) in queue order. The machine must be the one that produced
// the trace set.
func checkDrained(ts *TraceSet, m *Machine) error {
	var sb strings.Builder
	for q, n := range ts.Leftover {
		if n == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString("; ")
		}
		name := ""
		if q < len(m.Queues) {
			name = m.Queues[q].Name
		}
		fmt.Fprintf(&sb, "queue %d (%s): %d leftover token(s)", q, name, n)
	}
	if sb.Len() == 0 {
		return nil
	}
	return fmt.Errorf("pipeline did not drain: %s", sb.String())
}
