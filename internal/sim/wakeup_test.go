package sim

import (
	"fmt"
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

// dueAt reports the cycle entry seq of th is due at, if it is on the due list.
func dueAt(th *tThread, seq int) (uint64, bool) {
	for _, d := range th.due {
		if int(d)&th.winMask == seq&th.winMask {
			return d >> th.dueShift, true
		}
	}
	return 0, false
}

// TestWakeSameProducerBothSources: an entry reading one register twice sits
// on its producer's dependents list twice, joins the due list once, when
// the second operand gets its time, and leaves the waiting set when the
// producer completes.
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
	if at, ok := dueAt(th, 1); !ok || at != 1 || !th.isWaiting(1) || len(th.due) != 1 {
		t.Fatalf("the const's issue puts the load on the due list at 1 and nothing else: due %v", th.due)
	}
	if ready, _, mb := e.checkIssue(th, &th.win[1]); ready || !mb {
		t.Error("the load's operand completes next cycle: blocked on an operand now")
	}
	e.now = 1
	th.ripen(e.now)
	if th.isWaiting(1) || len(th.due) != 0 || th.nextDue != farFuture {
		t.Fatal("the load did not leave waiting and the due list at its due cycle")
	}
	ld := issue(t, e, th, 1)
	add := &th.win[2]
	if add.rdyA != ld.doneAt || add.rdyB != ld.doneAt || !th.isWaiting(2) || len(th.due) != 1 || th.nextDue != ld.doneAt {
		t.Fatalf("add has rdyA=%d rdyB=%d waiting=%v due=%v, want both %d, waiting, due once", add.rdyA, add.rdyB, th.isWaiting(2), th.due, ld.doneAt)
	}
	e.now = ld.doneAt - 1
	th.ripen(e.now)
	if ready, _, mb := e.checkIssue(th, add); ready || !mb || !th.isWaiting(2) {
		t.Error("add ready before the load completes")
	}
	e.now = ld.doneAt
	th.ripen(e.now)
	if ready, _, _ := e.checkIssue(th, add); !ready || th.isWaiting(2) {
		t.Error("add not ready and awake when the load completes")
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
// dependents list in time, and is due when the producer completes.
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
	if at, ok := dueAt(th, 1); th.win[1].rdyA != p.doneAt || !th.isWaiting(1) || !ok || at != p.doneAt {
		t.Fatalf("rdyA=%d waiting=%v due=%v, want %d, waiting and due then", th.win[1].rdyA, th.isWaiting(1), th.due, p.doneAt)
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
	th.ripen(e.now) // the load's index is there now
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
	if at, ok := dueAt(th, 4); !ok || at != ld.doneAt || th.win[0].rdyA != ld.doneAt || th.win[1].rdyA != ld.doneAt {
		t.Fatal("the load's issue must reach both wrapped dependents and make the one with nothing else pending due")
	}
	if _, ok := dueAt(th, 5); ok || !th.isWaiting(5) {
		t.Fatal("the add still waits for the increment's issue")
	}
	e.now = ld.doneAt
	th.ripen(e.now)
	if th.isWaiting(4) {
		t.Fatal("the increment did not leave waiting across the wrap")
	}
	inc := issue(t, e, th, 4)
	if at, ok := dueAt(th, 5); !ok || at != inc.doneAt || th.win[1].rdyB != inc.doneAt {
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

// TestQueueOpsParkInOrder: a queue op blocked on a full queue parks on it
// and the queue's pop unparks it; one with ready operands behind it parks
// in order and is unparked by that op's issue.
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
	prod, cons := e.threads[0], e.threads[1]
	e.fetch(prod)
	issue(t, e, prod, 0)
	e.now = 1
	_, _, full, _ := e.issueCore(0) // issues seq 1, finds seq 2 on a full queue and seq 3 behind seq 2
	if !prod.win[1].issued || prod.win[2].issued || !full {
		t.Fatal("first enqueue should issue, second block on the full queue")
	}
	if prod.qPark != 2<<1|1 || !prod.parked.has(2) || !prod.parked.has(3) {
		t.Fatalf("qPark=%d: the blocked enqueue parks on its queue, the one behind it in order", prod.qPark)
	}
	e.fetch(cons)
	e.now = 2
	issue(t, e, cons, 0) // the pop
	if prod.parked.has(2) || prod.qPark != noLink || !prod.parked.has(3) || !prod.dirty {
		t.Fatal("the pop must unpark the enqueue parked on the queue, and only it")
	}
	issue(t, e, prod, 2)
	if prod.parked.has(3) {
		t.Fatal("issuing a queue op must unpark its successor")
	}
}

// stagesEngine builds a machine with one stage per core over queues of
// depth 1 (queue i named q<i>), fanned out as given, runs the functional
// phase and returns a timing engine at cycle 0 with nothing fetched.
func stagesEngine(t *testing.T, queues int, fan []arch.FanOut, stages ...func(b *isa.Builder)) *timingEngine {
	t.Helper()
	m := NewMachine(arch.DefaultConfig(len(stages)))
	for i := 0; i < queues; i++ {
		m.Queues[m.AddQueue(fmt.Sprintf("q%d", i))].Depth = 1
	}
	m.FanOuts = fan
	for c, build := range stages {
		b := isa.NewBuilder(fmt.Sprintf("s%d", c))
		build(b)
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: c}})
	}
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	return newTimingEngine(m, ts)
}

// TestWakeAtDueCycle: a dependent leaves the waiting set, and issues, in
// exactly the cycle its producer completes, for a latency-1 ALU producer and
// for a load that misses L1.
func TestWakeAtDueCycle(t *testing.T) {
	e, th := wakeEngine(t, arch.DefaultConfig(1), func(b *isa.Builder) {
		c := b.Const(0)              // seq 0
		b.OpImm(isa.OpIAddImm, c, 1) // seq 1: ALU consumer of the const
		v := b.Load(0, c)            // seq 2
		b.OpImm(isa.OpIAddImm, v, 1) // seq 3: consumer of the load
		b.Halt()
	})
	e.fetch(th)
	e.issueCore(0)
	if !th.win[0].issued || !th.isWaiting(1) || !th.isWaiting(2) || th.nextDue != 1 {
		t.Fatal("cycle 0: the const issues, its two consumers are due at 1")
	}
	e.now = 1
	e.issueCore(0)
	ld := &th.win[2]
	if !th.win[1].issued || !ld.issued {
		t.Fatal("cycle 1: both consumers of the const issue")
	}
	if e.hier.Stats().L1Misses != 1 || ld.doneAt <= e.now+1 {
		t.Fatalf("the load should miss L1: done at %d", ld.doneAt)
	}
	for e.now = 2; e.now < ld.doneAt; e.now++ {
		e.issueCore(0)
		if !th.isWaiting(3) || th.win[3].issued {
			t.Fatalf("cycle %d: the load's consumer left waiting before the load completes at %d", e.now, ld.doneAt)
		}
	}
	e.issueCore(0)
	if !th.win[3].issued {
		t.Fatalf("cycle %d: the load's consumer did not issue when the load completed", e.now)
	}
}

// TestExactScanWakesAtEarliestOperand: where the scan may reach a Halt,
// the thread is rescanned when a polling scan would have been, at the first
// of a due entry's operand times rather than at its due time.
func TestExactScanWakesAtEarliestOperand(t *testing.T) {
	e, th := wakeEngine(t, arch.DefaultConfig(1), func(b *isa.Builder) {
		c := b.Const(0)                   // seq 0
		v := b.Load(0, c)                 // seq 1: misses L1
		w := b.OpImm(isa.OpIMulImm, c, 3) // seq 2: done three cycles after issue
		b.Op2(isa.OpIAdd, v, w)           // seq 3
		b.Halt()
	})
	e.fetch(th)
	e.issueCore(0)
	e.now = 1
	e.issueCore(0)
	ld, mul := &th.win[1], &th.win[2]
	if !ld.issued || !mul.issued || mul.doneAt >= ld.doneAt {
		t.Fatal("cycle 1: the load and the multiply issue, the multiply completes first")
	}
	e.now = 2
	th.dirty = true
	if n, _, _, _ := e.issueCore(0); n != 0 || th.dirty || th.wakeAt != mul.doneAt {
		t.Fatalf("cycle 2: issued %d, dirty %v, wakeAt %d; want a sleep until the multiply completes at %d", n, th.dirty, th.wakeAt, mul.doneAt)
	}
}

// TestParkedDequeueUnparkedByLatePush: a dequeue parked on an empty queue
// is unparked by a push whose token is visible only next cycle; it does not
// park again on that token but waits for its known time and then issues.
func TestParkedDequeueUnparkedByLatePush(t *testing.T) {
	e := stagesEngine(t, 1, nil,
		func(b *isa.Builder) {
			b.Enq(0, b.Const(7)) // seq 1
			b.Halt()
		},
		func(b *isa.Builder) {
			b.Deq(0) // seq 0
			b.Halt()
		})
	prod, cons := e.threads[0], e.threads[1]
	e.fetch(prod)
	e.fetch(cons)
	issue(t, e, prod, 0)
	if _, empty, _, _ := e.issueCore(1); !empty || cons.qPark != 0 || !cons.parked.has(0) {
		t.Fatal("cycle 0: the dequeue parks on the empty queue")
	}
	e.now = 1
	issue(t, e, prod, 1)
	if cons.qPark != noLink || cons.parked.has(0) || !cons.dirty {
		t.Fatal("the push must unpark the dequeue")
	}
	if n, empty, _, _ := e.issueCore(1); n != 0 || !empty || cons.parked.has(0) {
		t.Fatal("cycle 1: the token is not visible yet; the dequeue is blocked on the queue but not parked")
	}
	e.now = 2
	if n, _, _, _ := e.issueCore(1); n != 1 || !cons.win[0].issued {
		t.Fatal("cycle 2: the dequeue issues once the token is visible")
	}
}

// TestParkedFanOutEnqueueUnparkedByDestinationPop: a fanned enqueue that
// parks on a full destination is unparked by a pop on that destination.
func TestParkedFanOutEnqueueUnparkedByDestinationPop(t *testing.T) {
	e := stagesEngine(t, 2, []arch.FanOut{{Src: 0, Dst: []int{1}}},
		func(b *isa.Builder) {
			v := b.Const(7)
			b.Enq(0, v) // seq 1
			b.Enq(0, v) // seq 2
			b.Halt()
		},
		func(b *isa.Builder) {
			b.Deq(0)
			b.Deq(0)
			b.Halt()
		},
		func(b *isa.Builder) {
			b.Deq(1)
			b.Deq(1)
			b.Halt()
		})
	prod, src, dst := e.threads[0], e.threads[1], e.threads[2]
	for _, th := range e.threads {
		e.fetch(th)
	}
	issue(t, e, prod, 0)
	e.now = 1
	issue(t, e, prod, 1)
	e.now = 2
	issue(t, e, src, 0) // the source has room again; the destination is full
	if _, _, full, _ := e.issueCore(0); !full || prod.qPark != 2<<1|1 || !prod.parked.has(2) {
		t.Fatal("cycle 2: the second enqueue parks on the full destination")
	}
	e.now = 3
	issue(t, e, dst, 0)
	if prod.qPark != noLink || prod.parked.has(2) || !prod.dirty {
		t.Fatal("the destination's pop must unpark the fanned enqueue")
	}
	if n, _, _, _ := e.issueCore(0); n != 1 || !prod.win[2].issued {
		t.Fatal("cycle 3: the fanned enqueue issues")
	}
}

// TestParkRecordLeavesWithItsOp: once the op parked on its queue is
// unparked and issues, a later entry in its slot is not taken for it.
func TestParkRecordLeavesWithItsOp(t *testing.T) {
	cfg := arch.DefaultConfig(2)
	cfg.WindowSize = 4
	m := NewMachine(cfg)
	q := m.AddQueue("q")
	{
		b := isa.NewBuilder("prod")
		b.Enq(q, b.Const(7))
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 0}})
	}
	{
		b := isa.NewBuilder("cons")
		v := b.Deq(q) // seq 0, slot 0
		for i := 0; i < 4; i++ {
			v = b.OpImm(isa.OpIMulImm, v, 1) // seqs 1..4; seq 4 reuses slot 0
		}
		b.Halt()
		m.AddStage(&Stage{Prog: b.MustBuild(), Thread: arch.ThreadID{Core: 1}})
	}
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	e := newTimingEngine(m, ts)
	prod, cons := e.threads[0], e.threads[1]
	e.fetch(prod)
	e.fetch(cons)
	issue(t, e, prod, 0)
	e.issueCore(1)
	if cons.qPark != 0 {
		t.Fatal("cycle 0: the dequeue parks on the empty queue")
	}
	e.now = 1
	issue(t, e, prod, 1)
	e.now = 2
	deq := issue(t, e, cons, 0)
	e.now = deq.doneAt
	e.retireHead(cons)
	e.fetch(cons)
	if cons.win[0].seq != 4 || cons.qPark != noLink {
		t.Fatalf("slot 0 holds seq %d, qPark=%d: want seq 4 and no park record", cons.win[0].seq, cons.qPark)
	}
	if _, empty, _, _ := e.issueCore(1); empty {
		t.Fatal("the multiply in the dequeue's old slot was taken for an op blocked on an empty queue")
	}
}

// TestReachShortRescannedAfterRetire: a scan whose reach ends before the
// window does and that knows no wake time keeps the thread polling, so an
// entry a retirement brings into range issues in the cycle it arrives.
func TestReachShortRescannedAfterRetire(t *testing.T) {
	cfg := arch.DefaultConfig(1)
	cfg.FetchWidth = 128
	e, th := wakeEngine(t, cfg, func(b *isa.Builder) {
		for i := 0; i < 130; i++ {
			b.Const(int64(i))
		}
		b.Halt()
	})
	e.fetch(th)
	if th.count != 128 {
		t.Fatalf("fetched %d, want a full window", th.count)
	}
	reach := 2 * issueScanCap
	for seq := 0; seq < reach; seq++ {
		issue(t, e, th, seq) // in flight until cycle 1; the scan still starts at 0
	}
	if n, _, _, _ := e.issueCore(0); n != 0 || !th.dirty {
		t.Fatal("cycle 0: nothing in reach to issue, and no known wake time: the thread must stay dirty")
	}
	e.now = 1
	if n, _, _, _ := e.issueCore(0); n != 0 || !th.dirty {
		t.Fatal("cycle 1 before retirement: still nothing in reach")
	}
	e.retireHead(th)
	if n, _, _, _ := e.issueCore(0); n != 1 || !th.win[reach].issued {
		t.Fatalf("after a retirement the entry at offset %d comes into reach and must issue", reach)
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
