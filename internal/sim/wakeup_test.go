package sim

import (
	"testing"
	"unsafe"

	"phloem/internal/arch"
	"phloem/internal/isa"
	"phloem/internal/mem"
)

// wakeEngine builds a one-stage machine around the built program (slot 0 is
// a 64-element int array), runs the functional phase and returns a timing
// engine at cycle 0 with nothing fetched, for tests that drive fetch, issue
// and retire by hand.
func wakeEngine(t *testing.T, cfg arch.Config, build func(b *isa.Builder)) (*timingEngine, *tThread) {
	t.Helper()
	m := NewMachine(cfg)
	m.AddSlot("A", m.Space.Alloc("A", mem.I64, 64))
	b := isa.NewBuilder("wake")
	build(b)
	m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{}})
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	e := newTimingEngine(m, ts)
	return e, e.threads[0]
}

// issue issues entry seq of t at the engine's current cycle.
func issue(t *testing.T, e *timingEngine, th *tThread, seq int) *winEntry {
	t.Helper()
	en := &th.win[seq&th.winMask]
	if int(en.seq) != seq {
		t.Fatalf("slot of seq %d holds seq %d", seq, en.seq)
	}
	if ok, _, _ := e.tryIssue(th, en); !ok {
		t.Fatalf("seq %d did not issue at cycle %d", seq, e.now)
	}
	return en
}

func (th *tThread) isWaiting(seq int) bool { return th.waiting.has(seq & th.winMask) }

func TestWinEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(winEntry{}); s > 64 {
		t.Errorf("winEntry is %d bytes; it was 64 before the wake links and must not grow past that", s)
	}
}

// TestWakeSameProducerBothSources: an entry reading one register twice sits
// on its producer's dependents list twice and leaves the waiting set only
// when both operands have their time.
func TestWakeSameProducerBothSources(t *testing.T) {
	e, th := wakeEngine(t, arch.DefaultConfig(1), func(b *isa.Builder) {
		idx := b.Const(0)       // seq 0
		v := b.Load(0, idx)     // seq 1
		b.Op2(isa.OpIAdd, v, v) // seq 2
		b.Halt()                // seq 3
	})
	if !e.fetch(th) || th.count != 4 {
		t.Fatalf("fetched %d entries, want 4", th.count)
	}
	if !th.isWaiting(1) || !th.isWaiting(2) || th.isWaiting(0) || th.isWaiting(3) {
		t.Fatal("after fetch the load and the add wait, the const and the halt do not")
	}
	issue(t, e, th, 0)
	if th.isWaiting(1) || !th.isWaiting(2) {
		t.Fatal("the const's issue wakes the load and nothing else")
	}
	if ready, _, mb := e.checkIssue(th, &th.win[1]); ready || !mb {
		t.Error("the load's operand completes next cycle: blocked on an operand now")
	}
	e.now = 1
	ld := issue(t, e, th, 1)
	add := &th.win[2]
	if add.rdyA != ld.doneAt || add.rdyB != ld.doneAt || th.isWaiting(2) {
		t.Fatalf("add has rdyA=%d rdyB=%d waiting=%v, want both %d and awake", add.rdyA, add.rdyB, th.isWaiting(2), ld.doneAt)
	}
	e.now = ld.doneAt - 1
	if ready, _, mb := e.checkIssue(th, add); ready || !mb {
		t.Error("add ready before the load completes")
	}
	e.now = ld.doneAt
	if ready, _, _ := e.checkIssue(th, add); !ready {
		t.Error("add not ready when the load completes")
	}
}

// TestWakeProducerIssuedOrRetired: a consumer fetched after its producer
// issued takes the completion time at fetch; after the producer retired the
// value is simply there.
func TestWakeProducerIssuedOrRetired(t *testing.T) {
	cfg := arch.DefaultConfig(1)
	cfg.FetchWidth = 1
	e, th := wakeEngine(t, cfg, func(b *isa.Builder) {
		idx := b.Const(0)            // seq 0
		v := b.Load(0, idx)          // seq 1
		b.OpImm(isa.OpIAddImm, v, 1) // seq 2: fetched while the load is in flight
		b.OpImm(isa.OpIAddImm, v, 2) // seq 3: fetched after the load retired
		b.Halt()
	})
	e.fetch(th)
	issue(t, e, th, 0)
	e.now = 1
	e.retireHead(th)
	e.fetch(th)
	ld := issue(t, e, th, 1)
	e.now = 2
	e.fetch(th)
	if c := &th.win[2]; c.rdyA != ld.doneAt || th.isWaiting(2) || ld.deps != noLink {
		t.Fatalf("consumer of an in-flight producer: rdyA=%d waiting=%v producer deps=%d, want %d, awake, none",
			c.rdyA, th.isWaiting(2), ld.deps, ld.doneAt)
	}
	e.now = ld.doneAt
	e.retireHead(th)
	e.fetch(th)
	if c := &th.win[3]; c.rdyA != 0 || th.isWaiting(3) {
		t.Fatalf("consumer of a retired producer: rdyA=%d waiting=%v, want 0 and awake", c.rdyA, th.isWaiting(3))
	}
}

// TestWakeConsumerFetchedInIssueCycle: fetch precedes issue within a cycle,
// so a consumer fetched in the cycle its producer issues is on the
// dependents list in time.
func TestWakeConsumerFetchedInIssueCycle(t *testing.T) {
	cfg := arch.DefaultConfig(1)
	cfg.FetchWidth = 1
	e, th := wakeEngine(t, cfg, func(b *isa.Builder) {
		c := b.Const(5)              // seq 0
		b.OpImm(isa.OpIMulImm, c, 3) // seq 1
		b.Halt()
	})
	e.fetch(th)
	e.now = 1
	e.fetch(th)
	if !th.isWaiting(1) {
		t.Fatal("consumer of an unissued producer must wait")
	}
	p := issue(t, e, th, 0)
	if c := &th.win[1]; c.rdyA != p.doneAt || th.isWaiting(1) {
		t.Fatalf("rdyA=%d waiting=%v, want %d and awake", c.rdyA, th.isWaiting(1), p.doneAt)
	}
}

// TestWakeAcrossRingWrap: with a four-entry window the producer sits in the
// last slot and its dependents in the first ones; the lists are by slot, and
// the scan's view of the sets follows the ring around.
func TestWakeAcrossRingWrap(t *testing.T) {
	cfg := arch.DefaultConfig(1)
	cfg.WindowSize = 4
	e, th := wakeEngine(t, cfg, func(b *isa.Builder) {
		idx := b.Const(0)                 // seq 0, slot 0
		b.Const(1)                        // seq 1, slot 1
		b.Const(2)                        // seq 2, slot 2
		v := b.Load(0, idx)               // seq 3, slot 3
		w := b.OpImm(isa.OpIAddImm, v, 1) // seq 4, slot 0
		b.Op2(isa.OpIAdd, v, w)           // seq 5, slot 1
		b.Halt()                          // seq 6, slot 2
	})
	e.fetch(th)
	for seq := 0; seq < 3; seq++ {
		issue(t, e, th, seq)
	}
	e.now = 1
	for i := 0; i < 3; i++ {
		e.retireHead(th)
	}
	e.fetch(th)
	if th.head != 3 || th.count != 4 {
		t.Fatalf("head=%d count=%d, want 3 and 4", th.head, th.count)
	}
	sc := th.scan(2)
	if sc.from != 0 || sc.n != 4 || sc.unissued != (bits128{lo: 0b1111}) {
		t.Fatalf("scan %+v, want offsets 0..3 all unissued", sc)
	}
	if w := th.view(th.waiting, 0).below(4); w != (bits128{lo: 0b0110}) {
		t.Fatalf("waiting offsets %04b, want the two consumers (0110)", w.lo)
	}
	ld := issue(t, e, th, 3)
	if th.isWaiting(4) || !th.isWaiting(5) || th.win[0].rdyA != ld.doneAt || th.win[1].rdyA != ld.doneAt {
		t.Fatal("the load's issue must reach both wrapped dependents and wake the one with nothing else pending")
	}
	e.now = ld.doneAt
	inc := issue(t, e, th, 4)
	if th.isWaiting(5) || th.win[1].rdyB != inc.doneAt {
		t.Fatal("second operand not delivered across the wrap")
	}
	if u := th.scan(2).unissued; u != (bits128{lo: 0b1100}) {
		t.Fatalf("unissued offsets %04b after two issues, want 1100", u.lo)
	}
}

// TestStoreToLoadWake: a load waits for the newest older in-window store to
// its address to issue (not to complete) and ignores stores elsewhere.
func TestStoreToLoadWake(t *testing.T) {
	e, th := wakeEngine(t, arch.DefaultConfig(1), func(b *isa.Builder) {
		i0 := b.Const(0)   // seq 0
		i1 := b.Const(1)   // seq 1
		b.Store(0, i0, i1) // seq 2: A[0] = 1
		b.Store(0, i1, i1) // seq 3: A[1] = 1
		b.Load(0, i0)      // seq 4: waits for seq 2
		b.Halt()
	})
	e.fetch(th)
	issue(t, e, th, 0)
	issue(t, e, th, 1)
	if !th.isWaiting(4) {
		t.Fatal("load must wait for the store to its address")
	}
	e.now = 1
	issue(t, e, th, 3)
	if !th.isWaiting(4) {
		t.Fatal("a store to another address woke the load")
	}
	issue(t, e, th, 2)
	if th.isWaiting(4) {
		t.Fatal("the store's issue did not wake the load")
	}
	if ready, _, _ := e.checkIssue(th, &th.win[4]); !ready {
		t.Error("load may issue in the cycle the store issues")
	}
}

// TestQueueOpsParkInOrder: a queue op with ready operands behind an unissued
// older queue op is parked by the scan and unparked by that op's issue.
func TestQueueOpsParkInOrder(t *testing.T) {
	m := NewMachine(arch.DefaultConfig(1))
	q := m.AddQueue("q")
	m.Queues[q].Depth = 1
	{
		b := isa.NewBuilder("prod")
		v := b.Const(7)
		b.Enq(q, v) // seq 1
		b.Enq(q, v) // seq 2: behind seq 1, and the queue holds one
		b.EnqCtrl(q, arch.CtrlEnd)
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	}
	{
		b := isa.NewBuilder("cons")
		b.Label("loop")
		v := b.Deq(q)
		b.BrZ(b.IsCtrl(v), "loop")
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	}
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	e := newTimingEngine(m, ts)
	prod := e.threads[0]
	e.fetch(prod)
	issue(t, e, prod, 0)
	e.now = 1
	e.issueCore(0) // issues seq 1, finds seq 2 behind a full queue and seq 3 behind seq 2
	if !prod.win[1].issued || prod.win[2].issued {
		t.Fatal("first enqueue should issue, second block on the full queue")
	}
	if prod.parked.has(2) || !prod.parked.has(3) {
		t.Fatal("the blocked enqueue is not parked (it is first in line); the one behind it is")
	}
	e.queues[q].pop()
	e.now = 2
	issue(t, e, prod, 2)
	if prod.parked.has(3) {
		t.Fatal("issuing a queue op must unpark its successor")
	}
}

// TestRedirectLeavesWindowHalfFilled: fetch stops behind a mispredicted
// branch and resumes only after it has issued and the penalty has passed;
// the scan meanwhile walks the short window.
func TestRedirectLeavesWindowHalfFilled(t *testing.T) {
	e, th := wakeEngine(t, arch.DefaultConfig(1), func(b *isa.Builder) {
		one := b.Const(1) // seq 0
		b.Br(one, "on")   // seq 1: taken; the cold predictor says not taken
		b.Label("on")
		b.Const(2) // seq 2
		b.Halt()
	})
	e.fetch(th)
	if th.count != 2 || th.redirectSeq != 1 || e.stats.Mispredicts != 1 {
		t.Fatalf("count=%d redirectSeq=%d mispredicts=%d, want fetch stopped behind the branch", th.count, th.redirectSeq, e.stats.Mispredicts)
	}
	if sc := th.scan(2); sc.n != 2 || sc.unissued.count() != 2 {
		t.Fatalf("scan over the half-filled window: %+v", sc)
	}
	issue(t, e, th, 0)
	e.now = 1
	if e.fetch(th) {
		t.Fatal("fetched past an unissued mispredicted branch")
	}
	br := issue(t, e, th, 1)
	e.now = br.doneAt + e.m.Cfg.MispredictPenalty - 1
	if e.fetch(th) {
		t.Fatal("fetched inside the redirect penalty")
	}
	e.now++
	if !e.fetch(th) || th.fetchIdx != 4 {
		t.Fatal("fetch did not resume after the penalty")
	}
}

// TestHaltWaitsToBecomeHead: with every other entry issued, Halt stays a
// candidate that the scan re-examines each cycle (no wake time exists for
// it) until the entries before it have retired.
func TestHaltWaitsToBecomeHead(t *testing.T) {
	m, _ := introMachine(t, 8)
	m.Stages[0].Prog = func() *isa.Program {
		b := isa.NewBuilder("halt")
		idx := b.Const(0)
		b.Load(0, idx)
		b.Halt()
		return b.MustBuild()
	}()
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	e := newTimingEngine(m, ts)
	th := e.threads[0]
	e.fetch(th)
	issue(t, e, th, 0)
	e.now = 1
	ld := issue(t, e, th, 1)
	for e.now = 2; e.now < ld.doneAt; e.now++ {
		th.dirty = false
		if n, _, _, _ := e.issueCore(0); n != 0 || !th.dirty || th.finished {
			t.Fatalf("cycle %d: issued=%d dirty=%v finished=%v; Halt must wait and keep the thread polling", e.now, n, th.dirty, th.finished)
		}
	}
	e.retireHead(th)
	e.retireHead(th)
	if n, _, _, _ := e.issueCore(0); n != 1 || !th.finished {
		t.Fatal("Halt did not issue once it was the window head")
	}
	// End to end the same machine finishes with everything issued.
	st, err := m.RunTiming(ts)
	if err != nil || st.Issued != st.Instructions {
		t.Fatalf("run: %v, %+v", err, st)
	}
}

// TestTimingAllocs: RunTiming's allocations are set-up plus the queue and RA
// in-flight buffers, none of which grow with the trace: a replay of an
// eight times longer trace allocates the same number of objects, give or
// take a few buffer doublings.
func TestTimingAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		a, bv := introData(t, n)
		m, _ := introPipeline(a, bv)
		ts, err := m.RunFunctional()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := m.RunTiming(ts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(4000)
	t.Logf("RunTiming allocations: %.0f for n=500, %.0f for n=4000", small, large)
	if large > small+8 {
		t.Errorf("allocations grow with trace length: %.0f for n=500, %.0f for n=4000", small, large)
	}
}
