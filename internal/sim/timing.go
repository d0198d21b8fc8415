package sim

import (
	"math"
	"math/bits"
	"sync"

	"phloem/internal/arch"
	"phloem/internal/cache"
	"phloem/internal/isa"
)

// Timing engine: replays the functional traces on the Pipette machine model.
// Each SMT thread fetches its trace in order into a reorder window; the core
// issues up to IssueWidth ready micro-ops per cycle across its threads
// (oldest-first within each thread, register renaming via producer tracking).
// Queue operations issue in program order per thread and block on full/empty
// architectural queues; reference accelerators replay their micro-event
// traces with a bounded outstanding-miss window and in-order delivery.
//
// The issue scan is wakeup-driven rather than polled: it loads a window entry
// only in a cycle where it can issue. An entry whose operands are not all
// complete, a queue op behind an unissued older queue op, and a queue op
// facing an empty or full queue sit in per-thread bitsets (waiting, parked)
// and the scan accounts for them from the bits. The producer, when it
// issues, writes its completion time into each dependent, which leaves the
// set when that time comes (the due list); an issuing queue op unparks its
// successor, and a queue's push or pop unparks the op parked on it. A thread
// with nothing to issue sleeps until the earliest known time or an event
// (DESIGN.md section 5 lists every wake event).

const (
	issueScanCap     = 48 // unissued entries examined per thread per cycle
	predBits         = 12
	defaultIdleLimit = 1 << 20 // cycles without progress before declaring deadlock
	farFuture        = math.MaxUint64 / 4
)

// decoded is what the timing engine needs of one static instruction, computed
// once per program so the per-entry paths never switch on the opcode to find
// operands, queue role or latency.
type decoded struct {
	srcA, srcB, dst isa.Reg
	q               int32
	op              isa.Op
	qRole           uint8 // notQueue, or which end of queue q the op is on
	lat             uint8
}

const (
	notQueue uint8 = iota
	enqueues       // Enq, EnqCtrl, EnqCtrlV
	dequeues       // Deq, Peek
)

func decode(p *isa.Program) []decoded {
	out := make([]decoded, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d := &out[i]
		d.srcA, d.srcB = in.Reads()
		d.dst = in.Writes()
		d.q, d.op = int32(in.Q), in.Op
		switch in.Op {
		case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
			d.qRole = enqueues
		case isa.OpDeq, isa.OpPeek:
			d.qRole = dequeues
		}
		d.lat = uint8(in.Class().Latency())
	}
	return out
}

// noLink ends a dependents list.
const noLink = -1

// winEntry is one in-flight micro-op. Entry seq lives in window slot
// seq&winMask from fetch to retire, so slot numbers are stable names for
// entries and the dependents lists below need no allocation.
type winEntry struct {
	doneAt uint64
	// rdyA and rdyB are the cycles at which the two things this entry waits
	// for are satisfied: the completion of the producers of its register
	// sources and, in rdyB of a load (loads read one register), the issue of
	// the newest older in-window store to the same address. 0: nothing to
	// wait for; farFuture: that producer has not issued yet, and it will
	// store the real time here when it does.
	rdyA, rdyB uint64
	seq        int32 // trace index
	// depSeq orders queue ops: the previous queue op of the thread, which
	// must have issued first (-1: none). A store instead keeps the previous
	// store of its address bucket here (tThread.storeHead chains).
	depSeq int32
	// deps heads the list of entries waiting on this one: each link is
	// slot<<1|operand (operand 1: rdyB) and continues through that entry's
	// nextA or nextB.
	deps         int32
	nextA, nextB int32
	nextQ        int32 // queue ops: slot of the next queue op, once fetched
	q            int32 // queue id for queue ops
	op           isa.Op
	qRole        uint8
	lat          uint8
	issued       bool
	redirect     bool // fetch stopped behind this entry (mispredict/handler)
	released     bool // for barriers: all threads arrived, entry may issue
}

type tThread struct {
	idx   int // index into Machine.Stages (probe identity)
	core  int
	slot  int // SMT thread index on the core
	dec   []decoded
	trace []TEntry
	name  string

	fetchIdx int
	win      []winEntry
	winMask  int
	head     int // ring index of oldest entry (baseSeq & winMask)
	count    int
	baseSeq  int // seq of oldest entry in window
	scanFrom int // offset of the oldest unissued entry (lazy: never past it)

	// unissued holds the slots of fetched entries that have not issued.
	// Two disjoint subsets of it hold entries the issue scan need not load:
	// waiting, whose rdyA or rdyB is still farFuture or, the subset timed,
	// whose operands complete after the cycle the last of their times came
	// in; and parked, queue ops with operands ready that were seen behind an
	// unissued older queue op or, as qPark, on an empty or full queue.
	unissued, waiting, parked slotSet

	// due lists the timed entries as at<<dueShift | slot; they leave
	// waiting once now reaches at. nextDue is the smallest at (farFuture:
	// none). An entry joins once, when its last operand gets a time, so the
	// list never outgrows its window-size capacity.
	due      []uint64
	dueShift uint
	nextDue  uint64
	// qPark is the head queue op parked on its queue, slot<<1 | 1 for an
	// enqueue facing a full queue, slot<<1 for a dequeue or peek facing an
	// empty one (noLink: none). The queue's next pop or push unparks it.
	qPark int32

	regWriter []int32 // last fetched writer seq per register (-1: none live)
	// storeHead[h] is the newest fetched store whose address hashes to h;
	// older stores of the bucket chain through winEntry.depSeq. Only stores
	// still in the window matter (exact memory disambiguation, as an OOO
	// core's store queue provides), and a seq below baseSeq ends a chain, so
	// nothing is ever removed and the table stays O(window).
	storeHead   []int32
	storeShift  uint
	lastQOp     int32  // last fetched queue-op seq (-1: none)
	redirectAt  uint64 // fetch blocked until this cycle (redirect penalty)
	redirectSeq int    // entry that must issue before fetch resumes (-1: none)

	// gshare predictor
	predTable []uint8
	history   uint32

	finished bool
	issuedN  uint64

	// Scan-skip state: the thread is rescanned when dirty or once wakeAt is
	// reached (farFuture: only an event wakes it); lastQE/lastQF/lastMB
	// cache the stall classification (blocked on empty queue, full queue,
	// memory) meanwhile.
	dirty  bool
	wakeAt uint64
	lastQE bool
	lastQF bool
	lastMB bool
}

type tQueue struct {
	ready []uint64 // readyAt per token, FIFO
	head  int
	cap   int
}

func (q *tQueue) len() int { return len(q.ready) - q.head }
func (q *tQueue) push(at uint64) {
	q.ready = append(q.ready, at)
}
func (q *tQueue) pop() {
	q.head++
	// Occupancy is bounded by cap, so compacting once the dead prefix
	// exceeds it keeps the buffer at a few times the queue capacity
	// (amortized O(1) per token) instead of growing toward 8K entries.
	if q.head > q.cap && q.head*2 > len(q.ready) {
		q.ready = append(q.ready[:0], q.ready[q.head:]...)
		q.head = 0
	}
}
func (q *tQueue) headReady() uint64 { return q.ready[q.head] }

type tRA struct {
	id          int // index into Machine.RAs (probe identity)
	core        int
	events      []RAEvent
	idx         int
	inQ, outQ   int
	outstanding int
	// inflight delivery FIFO: completion times, delivered in order.
	inflight []uint64
	ifHead   int
	loads    int // loads among inflight
}

type timingEngine struct {
	m         *Machine
	hier      *cache.Hierarchy
	threads   []*tThread
	byCore    [][]*tThread
	queues    []tQueue
	ras       []*tRA
	rasByCore [][]*tRA
	now       uint64
	live      int // threads not finished

	// qConsumer[q] is the thread consuming queue q (nil if an RA consumes
	// it); qProducers[q] lists producing threads (for full-queue wakeups).
	qConsumer  []*tThread
	qProducers [][]*tThread

	// mshrs[core] holds the completion times of outstanding L1 misses.
	mshrs [][]uint64

	stats    Stats
	queueOps uint64
	raEvents uint64
	// memN numbers memory accesses for the MemLatency fault hook; ctrlN
	// numbers control-value enqueues per queue for CtrlDelay.
	memN  uint64
	ctrlN []uint64

	// probe observation state. probe is nil when no telemetry is installed;
	// every hook site tests it once. sampleEvery/sampleAt drive interval
	// samples; curThread/curPC remember the first micro-op issued in the
	// current issueCore call for issue-cycle attribution.
	probe       Probe
	sampleEvery uint64
	sampleAt    uint64
	curThread   int
	curPC       int
}

// extraMemLatency consults the MemLatency fault hook for the next access.
func (e *timingEngine) extraMemLatency() uint64 {
	f := e.m.Faults
	if f == nil || f.MemLatency == nil {
		return 0
	}
	d := f.MemLatency(e.memN)
	e.memN++
	return d
}

// ctrlDelay consults the CtrlDelay fault hook for a control enqueue on q.
func (e *timingEngine) ctrlDelay(q int) uint64 {
	f := e.m.Faults
	if f == nil || f.CtrlDelay == nil {
		return 0
	}
	d := f.CtrlDelay(q, e.ctrlN[q])
	e.ctrlN[q]++
	return d
}

// stalled consults the ThreadStall fault hook for thread t at e.now.
func (e *timingEngine) stalled(t *tThread) bool {
	f := e.m.Faults
	return f != nil && f.ThreadStall != nil && f.ThreadStall(t.core, t.slot, e.now)
}

// RunTiming replays traces and returns timing statistics. The Machine must be
// the same instance (programs, queues, RAs) that produced the traces.
func (m *Machine) RunTiming(ts *TraceSet) (*Stats, error) {
	e := newTimingEngine(m, ts)
	defer putHierarchy(e.hier)
	if e.probe != nil {
		e.probe.BeginTiming(m)
	}
	if err := e.run(); err != nil {
		// On a budget or cancellation abort, attach the
		// partial stats accumulated so far so the caller can still see how
		// the aborted run spent its cycles.
		var partial **Stats
		switch te := err.(type) {
		case *CycleBudgetError:
			partial = &te.Stats
		case *CancelledError:
			partial = &te.Stats
		}
		if partial != nil {
			e.finishStats()
			*partial = &e.stats
			if e.probe != nil {
				e.probe.EndTiming(&e.stats)
			}
		}
		return nil, err
	}
	e.finishStats()
	if e.probe != nil {
		e.probe.EndTiming(&e.stats)
	}
	return &e.stats, nil
}

// hierPools holds reset cache hierarchies by configuration: every replay
// needs a cold one, and building one allocates about 0.6 MB of lines per
// core at the default sizes.
var (
	hierMu    sync.Mutex
	hierPools = map[cache.HierarchyConfig]*freeList[*cache.Hierarchy]{}
)

func hierarchyPool(cfg cache.HierarchyConfig) *freeList[*cache.Hierarchy] {
	hierMu.Lock()
	defer hierMu.Unlock()
	p := hierPools[cfg]
	if p == nil {
		p = &freeList[*cache.Hierarchy]{}
		hierPools[cfg] = p
	}
	return p
}

// getHierarchy returns a cold hierarchy for cfg.
func getHierarchy(cfg cache.HierarchyConfig) *cache.Hierarchy {
	if h, ok := hierarchyPool(cfg).get(); ok {
		return h
	}
	return cache.NewHierarchy(cfg)
}

// putHierarchy resets h and hands it back for the next replay.
func putHierarchy(h *cache.Hierarchy) {
	h.Reset()
	hierarchyPool(h.Config()).put(h)
}

// newTimingEngine sets up the replay of ts on m at cycle 0.
func newTimingEngine(m *Machine, ts *TraceSet) *timingEngine {
	e := &timingEngine{m: m, hier: getHierarchy(m.Cfg.Mem)}
	e.byCore = make([][]*tThread, m.Cfg.Cores)
	e.rasByCore = make([][]*tRA, m.Cfg.Cores)
	for i, st := range m.Stages {
		winSize := 1
		for winSize < m.Cfg.WindowSize {
			winSize <<= 1
		}
		words := slotSetWords(winSize)
		sets := make([]uint64, 3*words+winSize) // and the due list
		shift := uint(bits.TrailingZeros(uint(winSize)))
		// regWriter and storeHead share one allocation; at most winSize stores
		// are in flight, so winSize buckets keep the chains near length one.
		links := make([]int32, st.Prog.NumRegs+winSize)
		for j := range links {
			links[j] = -1
		}
		t := &tThread{
			idx:         i,
			core:        st.Thread.Core,
			slot:        st.Thread.Thread,
			dec:         decode(st.Prog),
			trace:       ts.Threads[i],
			name:        st.Prog.Name,
			win:         make([]winEntry, winSize),
			winMask:     winSize - 1,
			unissued:    slotSet{sets[:words], winSize},
			waiting:     slotSet{sets[words : 2*words], winSize},
			parked:      slotSet{sets[2*words : 3*words], winSize},
			due:         sets[3*words : 3*words : 3*words+winSize],
			dueShift:    shift,
			nextDue:     farFuture,
			qPark:       noLink,
			regWriter:   links[:st.Prog.NumRegs],
			storeHead:   links[st.Prog.NumRegs:],
			storeShift:  64 - shift,
			lastQOp:     -1,
			redirectSeq: -1,
			predTable:   make([]uint8, 1<<predBits),
		}
		if len(t.trace) == 0 {
			t.finished = true
		} else {
			e.live++
		}
		e.threads = append(e.threads, t)
		e.byCore[t.core] = append(e.byCore[t.core], t)
	}
	e.queues = make([]tQueue, len(m.Queues))
	for q := range e.queues {
		e.queues[q].cap = m.queueCap(q)
	}
	e.ctrlN = make([]uint64, len(m.Queues))
	for i, spec := range m.RAs {
		ra := &tRA{
			id:   i,
			core: spec.Core, events: ts.RA[i], inQ: spec.InQ, outQ: spec.OutQ,
			outstanding: m.raWindow(i),
		}
		e.ras = append(e.ras, ra)
		e.rasByCore[spec.Core] = append(e.rasByCore[spec.Core], ra)
	}
	e.qConsumer = make([]*tThread, len(m.Queues))
	e.qProducers = make([][]*tThread, len(m.Queues))
	for i, st := range m.Stages {
		t := e.threads[i]
		t.dirty = true
		for _, in := range st.Prog.Instrs {
			switch in.Op {
			case isa.OpDeq, isa.OpPeek:
				e.qConsumer[in.Q] = t
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				dup := false
				for _, p := range e.qProducers[in.Q] {
					if p == t {
						dup = true
					}
				}
				if !dup {
					e.qProducers[in.Q] = append(e.qProducers[in.Q], t)
				}
			}
		}
	}
	e.mshrs = make([][]uint64, m.Cfg.Cores)
	e.stats.PerCore = make([]Breakdown, m.Cfg.Cores)
	e.stats.Instructions = ts.Instructions

	e.probe = m.Probe
	if e.probe != nil {
		e.sampleEvery = m.Cfg.TelemetryInterval
		e.sampleAt = e.sampleEvery
	}
	return e
}

// finishStats fills in the derived statistics (cycles, cache, energy,
// per-thread counts) from the engine's current state.
func (e *timingEngine) finishStats() {
	e.stats.Cycles = e.now
	e.stats.Cache = e.hier.Stats()
	active := 0
	for c := range e.byCore {
		if len(e.byCore[c]) > 0 || len(e.rasByCore[c]) > 0 {
			active++
		}
	}
	computeEnergy(&e.stats, e.queueOps, e.raEvents, active)
	for _, t := range e.threads {
		e.stats.Threads = append(e.stats.Threads, ThreadStats{Name: t.name, Instructions: uint64(len(t.trace))})
	}
}

func (e *timingEngine) run() error {
	idle := uint64(0)
	idleLimit := e.m.Cfg.IdleLimit
	if idleLimit == 0 {
		idleLimit = defaultIdleLimit
	}
	budget := e.m.Cfg.CycleBudget
	interruptible := e.m.Ctx != nil // a nil Ctx pays one test per cycle
	nextInterruptCheck := uint64(0)
	for {
		if budget != 0 && e.now >= budget {
			return &CycleBudgetError{Budget: budget, Cycles: e.now}
		}
		if interruptible && e.now >= nextInterruptCheck {
			if err := e.m.checkInterrupt("timing", e.now); err != nil {
				return err
			}
			nextInterruptCheck = e.now + interruptCheckPeriod
		}
		if e.probe != nil && e.sampleEvery != 0 && e.now >= e.sampleAt {
			e.emitSample()
			e.sampleAt = (e.now/e.sampleEvery + 1) * e.sampleEvery
		}
		done := e.live == 0
		if done {
			for _, ra := range e.ras {
				if ra.idx < len(ra.events) || ra.ifHead < len(ra.inflight) {
					done = false
					break
				}
			}
		}
		if done {
			return nil
		}

		progress := false

		// 1. Retire completed entries in order.
		for _, t := range e.threads {
			for t.count > 0 {
				h := &t.win[t.head]
				if !h.issued || h.doneAt > e.now {
					break
				}
				e.retireHead(t)
				progress = true
			}
		}

		// 2. Barrier resolution: a thread "arrives" when its window head is
		// an unissued Barrier entry. When all live threads have arrived (or
		// finished), the pending barriers are released; the release latches
		// per entry so cross-core barriers may issue on different cycles.
		if e.barriersReady() {
			for _, t := range e.threads {
				if !t.finished && t.count > 0 {
					t.win[t.head].released = true
					t.dirty = true
				}
			}
			progress = true
		}

		// 3. Fetch.
		for _, t := range e.threads {
			if e.fetch(t) {
				progress = true
			}
		}

		// 4. RA tick.
		for _, ra := range e.ras {
			if e.tickRA(ra) {
				progress = true
			}
		}

		// 5. Issue per core.
		for c := range e.byCore {
			issued, blockEmpty, blockFull, blockMem := e.issueCore(c)
			if issued > 0 {
				progress = true
				e.stats.PerCore[c].Issue++
				if e.probe != nil {
					e.probe.CoreCycles(c, ClassIssue, e.curThread, e.curPC, 1)
				}
			} else if e.coreLive(c) {
				switch {
				case blockEmpty || blockFull:
					e.stats.PerCore[c].Queue++
					// Empty wins when both block (the consumer side is what
					// keeps the pipeline from draining).
					if blockEmpty {
						e.stats.QueueEmptyStalls++
					} else {
						e.stats.QueueFullStalls++
					}
					e.attributeStall(c, ClassQueue, 1)
				case blockMem:
					e.stats.PerCore[c].Backend++
					e.attributeStall(c, ClassBackend, 1)
				default:
					e.stats.PerCore[c].Other++
					e.attributeStall(c, ClassOther, 1)
				}
			}
		}

		if progress {
			idle = 0
			e.now++
			continue
		}

		// 6. Idle: fast-forward to the next known event.
		next := e.nextEvent()
		if next > e.now && next < farFuture {
			delta := next - e.now
			// Attribute skipped cycles per core using the same stall class.
			for c := range e.byCore {
				if !e.coreLive(c) {
					continue
				}
				blockQ, blockMem := e.classifyCore(c)
				switch {
				case blockQ:
					e.stats.PerCore[c].Queue += delta - 1
					e.attributeStall(c, ClassQueue, delta-1)
				case blockMem:
					e.stats.PerCore[c].Backend += delta - 1
					e.attributeStall(c, ClassBackend, delta-1)
				default:
					e.stats.PerCore[c].Other += delta - 1
					e.attributeStall(c, ClassOther, delta-1)
				}
			}
			e.now = next
			idle = 0
			continue
		}
		idle++
		e.now++
		if idle > idleLimit {
			return &DeadlockError{Snapshot: e.snapshot(), IdleCycles: idle}
		}
	}
}

// emitSample delivers a cumulative Stats snapshot to the probe. Only the
// counters that accumulate during the run are meaningful mid-flight; Energy
// and Threads are derived at the end and stay zero in samples.
func (e *timingEngine) emitSample() {
	snap := e.stats
	snap.Cycles = e.now
	snap.Cache = e.hier.Stats()
	snap.PerCore = append([]Breakdown(nil), e.stats.PerCore...)
	e.probe.Sample(&snap)
}

// attributeStall reports weight stall cycles of the given class on core c to
// the probe, attributed to the oldest blocked entry of that class (or -1/-1
// when no site is identifiable). It matches exactly the cycles the engine
// adds to the core's Breakdown, so probe-side totals reconcile with Stats.
func (e *timingEngine) attributeStall(c int, class StallClass, weight uint64) {
	if e.probe == nil || weight == 0 {
		return
	}
	th, pc := e.stallSite(c, class)
	e.probe.CoreCycles(c, class, th, pc, weight)
}

// stallSite finds a representative (thread, PC) for a stall of the given
// class on core c: the oldest unissued window entry whose blocking reason
// matches. checkIssue is side-effect-free apart from MSHR-list compaction,
// which is behavior-preserving, so probing here cannot change timing.
func (e *timingEngine) stallSite(c int, class StallClass) (thread, pc int) {
	for _, t := range e.byCore[c] {
		if t.finished {
			continue
		}
		sc := t.scan(1)
		for rest := sc.unissued; !rest.empty(); rest = rest.dropFirst() {
			en := t.at(sc.from + rest.first())
			ready, qb, mb := e.checkIssue(t, en)
			match := false
			switch class {
			case ClassQueue:
				match = qb
			case ClassBackend:
				match = mb
			default:
				match = !ready && !qb && !mb
			}
			if match {
				return t.idx, int(t.trace[en.seq].PC)
			}
		}
	}
	return -1, -1
}

// snapshot captures the timing engine's wait-for state: which stage blocks
// on which queue (full/empty), RA window occupancy, and per-thread retire
// watermarks.
func (e *timingEngine) snapshot() *WaitForSnapshot {
	s := &WaitForSnapshot{Phase: "timing", Cycle: e.now}
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		w := StageWait{
			Stage:   t.name,
			Thread:  arch.ThreadID{Core: t.core, Thread: t.slot},
			PC:      -1,
			Fetched: t.fetchIdx,
			Total:   len(t.trace),
			Retired: uint64(t.baseSeq),
		}
		if t.count == 0 {
			w.State = "window-empty"
		} else {
			h := &t.win[t.head]
			w.PC = t.trace[h.seq].PC
			switch {
			case h.issued:
				w.State = "in-flight"
			case h.qRole == enqueues:
				w.State = "enq-full"
				w.Queue = e.queueWait(int(h.q))
			case h.qRole == dequeues:
				w.State = "deq-empty"
				w.Queue = e.queueWait(int(h.q))
			case h.op == isa.OpBarrier && !h.released:
				w.State = "barrier"
			case h.op == isa.OpLoad:
				w.State = "mem"
			default:
				w.State = "other"
			}
		}
		s.Stages = append(s.Stages, w)
	}
	for i, ra := range e.ras {
		if ra.idx >= len(ra.events) && ra.ifHead >= len(ra.inflight) {
			continue
		}
		next := "done"
		if ra.idx < len(ra.events) {
			switch ra.events[ra.idx].Kind {
			case RAConsume:
				next = "consume"
			case RALoad:
				next = "load"
			default:
				next = "pass"
			}
		}
		s.RAs = append(s.RAs, RAWait{
			Name:     e.m.RAs[i].Name,
			Inflight: len(ra.inflight) - ra.ifHead,
			Window:   ra.outstanding,
			Next:     next,
			In:       *e.queueWait(ra.inQ),
			Out:      *e.queueWait(ra.outQ),
		})
	}
	for q := range e.queues {
		s.Queues = append(s.Queues, *e.queueWait(q))
	}
	return s
}

func (e *timingEngine) queueWait(q int) *QueueWait {
	return &QueueWait{Q: q, Name: e.m.Queues[q].Name, Len: e.queues[q].len(), Cap: e.queues[q].cap}
}

// mshrAvailable reports whether the core can start another L1 miss at e.now,
// compacting completed entries.
func (e *timingEngine) mshrAvailable(core int) bool {
	lim := e.m.Cfg.MSHRs
	if lim <= 0 {
		return true
	}
	live := e.mshrs[core][:0]
	for _, t := range e.mshrs[core] {
		if t > e.now {
			live = append(live, t)
		}
	}
	e.mshrs[core] = live
	return len(live) < lim
}

// wakeConsumer reports a push on q to its consumer thread, unparking a
// dequeue parked on an empty queue.
func (e *timingEngine) wakeConsumer(q int) {
	if t := e.qConsumer[q]; t != nil {
		t.dirty = true
		if t.qPark != noLink && t.qPark&1 == 0 {
			t.unpark()
		}
	}
}

// wakeProducers reports a pop on q to its producer threads, unparking an
// enqueue parked on a full queue.
func (e *timingEngine) wakeProducers(q int) {
	for _, t := range e.qProducers[q] {
		t.dirty = true
		if t.qPark != noLink && t.qPark&1 == 1 {
			t.unpark()
		}
	}
}

// unpark makes the op parked on its queue a candidate again.
func (t *tThread) unpark() {
	t.parked.clear(int(t.qPark >> 1))
	t.qPark = noLink
}

func (e *timingEngine) coreLive(c int) bool {
	for _, t := range e.byCore[c] {
		if !t.finished {
			return true
		}
	}
	return false
}

// retireHead removes the completed head entry, releasing rename state.
func (e *timingEngine) retireHead(t *tThread) {
	t.head = (t.head + 1) & t.winMask
	t.count--
	t.baseSeq++
	if t.scanFrom > 0 {
		t.scanFrom--
	}
}

// scan is the part of a thread's window one walk of its unissued entries
// covers: window offsets [from, from+n).
type scan struct {
	from, n int
	// unissued holds the unissued entries in the range, member i standing
	// for offset from+i (as in every other set cut to a scan).
	unissued bits128
	// capped reports that the range holds issueScanCap unissued entries, so
	// there may be more beyond it.
	capped bool
}

// scan applies the issue scan rule, which exists only here: a walk starts at
// window offset scanFrom, reaches at most reach*issueScanCap offsets, and
// examines at most issueScanCap unissued entries. issueCore reaches twice as
// far as the read-only walks.
func (t *tThread) scan(reach int) scan {
	const _ = uint(128 - 2*issueScanCap) // the widest scan must fit a bits128
	sc := scan{from: t.scanFrom}
	sc.n = max(0, min(t.count-sc.from, reach*issueScanCap))
	sc.unissued = t.view(t.unissued, sc.from).below(sc.n)
	if c := sc.unissued.count(); c >= issueScanCap {
		sc.capped = true
		if c > issueScanCap {
			sc.n = sc.unissued.nth(issueScanCap) + 1
			sc.unissued = sc.unissued.below(sc.n)
		}
	}
	return sc
}

// view returns set's members among the 128 window offsets from from on,
// member i standing for offset from+i. Offsets past the window's count may
// show entries from the other end of the ring; callers cut the view to
// their range.
func (t *tThread) view(set slotSet, from int) bits128 {
	return set.view(t.head + from)
}

// at returns the entry at window offset off.
func (t *tThread) at(off int) *winEntry {
	return &t.win[(t.head+off)&t.winMask]
}

// source resolves one thing the entry in slot waits for: the entry prod of
// the same thread (-1: none). It returns the cycle the wait is over if that
// is known. Otherwise prod is in the window and has not issued: the slot
// joins prod's dependents under link and gets the time when prod issues.
func (t *tThread) source(prod, link int32) (rdy uint64, next int32) {
	if int(prod) < t.baseSeq {
		return 0, noLink // no producer, or retired: the value is there
	}
	p := &t.win[int(prod)&t.winMask]
	if p.issued {
		return p.doneAt, noLink
	}
	next, p.deps = p.deps, link
	return farFuture, next
}

// wakeDependents hands the issuing entry's completion time to every entry
// waiting on it. One with nothing left to wait for leaves the waiting set
// now if its operands are complete, and otherwise joins the due list at the
// cycle they are. A load waits for an older store to issue, not to complete
// (the store queue forwards), so it may follow the store in the same cycle.
func (t *tThread) wakeDependents(en *winEntry, now uint64) {
	rdy := en.doneAt
	if en.op == isa.OpStore {
		rdy = now
	}
	for l := en.deps; l != noLink; {
		slot := int(l >> 1)
		c := &t.win[slot]
		other := c.rdyA
		if l&1 == 0 {
			c.rdyA, other, l = rdy, c.rdyB, c.nextA
		} else {
			c.rdyB, l = rdy, c.nextB
		}
		switch at := max(rdy, other); {
		case other == farFuture:
		case at <= now:
			t.waiting.clear(slot)
		default:
			t.due = append(t.due, at<<t.dueShift|uint64(slot))
			t.nextDue = min(t.nextDue, at)
		}
	}
}

// ripen takes the due entries whose operands complete by now out of the
// waiting set.
func (t *tThread) ripen(now uint64) {
	keep, next := t.due[:0], uint64(farFuture)
	for _, d := range t.due {
		if at := d >> t.dueShift; at > now {
			keep, next = append(keep, d), min(next, at)
		} else {
			t.waiting.clear(int(d) & t.winMask)
		}
	}
	t.due, t.nextDue = keep, next
}

// lastStore returns the newest store to addr still in the window, or -1.
func (t *tThread) lastStore(addr uint64) int32 {
	for s := t.storeHead[t.storeBucket(addr)]; int(s) >= t.baseSeq; s = t.win[int(s)&t.winMask].depSeq {
		if t.trace[s].Addr == addr {
			return s
		}
	}
	return -1
}

func (t *tThread) storeBucket(addr uint64) uint64 {
	return addr * 0x9e3779b97f4a7c15 >> t.storeShift
}

// fetch brings up to FetchWidth trace entries into the window.
func (e *timingEngine) fetch(t *tThread) bool {
	if t.finished {
		return false
	}
	fetched := 0
	for fetched < e.m.Cfg.FetchWidth {
		if t.count >= len(t.win) || t.fetchIdx >= len(t.trace) {
			break
		}
		if t.redirectSeq >= 0 {
			// Fetch is blocked behind an unresolved redirect.
			if t.redirectSeq >= t.baseSeq && !t.win[t.redirectSeq&t.winMask].issued {
				break
			}
			if e.now < t.redirectAt {
				break
			}
			t.redirectSeq = -1
		}
		seq := t.fetchIdx
		te := &t.trace[seq]
		d := &t.dec[te.PC]
		slot := seq & t.winMask
		en := &t.win[slot]
		*en = winEntry{seq: int32(seq), depSeq: -1, deps: noLink, nextA: noLink, nextB: noLink, nextQ: noLink,
			q: d.q, op: d.op, qRole: d.qRole, lat: d.lat}

		if d.srcA != isa.NoReg {
			en.rdyA, en.nextA = t.source(t.regWriter[d.srcA], int32(slot<<1))
		}
		if d.srcB != isa.NoReg {
			en.rdyB, en.nextB = t.source(t.regWriter[d.srcB], int32(slot<<1|1))
		}
		switch d.op {
		case isa.OpLoad:
			en.rdyB, en.nextB = t.source(t.lastStore(te.Addr), int32(slot<<1|1))
		case isa.OpStore:
			h := t.storeBucket(te.Addr)
			en.depSeq, t.storeHead[h] = t.storeHead[h], int32(seq)
		case isa.OpBr, isa.OpBrZ:
			taken := te.Flags&FlagTaken != 0
			idx := (uint32(te.PC) ^ t.history) & (1<<predBits - 1)
			ctr := t.predTable[idx]
			pred := ctr >= 2
			if pred != taken {
				en.redirect = true
				e.stats.Mispredicts++
			}
			if taken && ctr < 3 {
				t.predTable[idx] = ctr + 1
			} else if !taken && ctr > 0 {
				t.predTable[idx] = ctr - 1
			}
			t.history = t.history<<1 | b2u(taken)
		case isa.OpDeq:
			if te.Flags&FlagHandlerFire != 0 {
				// A firing handler redirects the front end, like the
				// hardware jump Pipette performs when a control value is
				// about to be dequeued.
				en.redirect = true
				e.stats.HandlerFires++
				if e.probe != nil {
					e.probe.HandlerFire(t.idx, int(te.PC), e.now)
				}
			}
		}
		if d.qRole != notQueue {
			// Queue ops issue in program order per thread.
			if prev := int(t.lastQOp); prev >= t.baseSeq {
				t.win[prev&t.winMask].nextQ = int32(slot)
			}
			en.depSeq, t.lastQOp = t.lastQOp, int32(seq)
		}
		if d.dst != isa.NoReg {
			t.regWriter[d.dst] = int32(seq)
		}
		t.unissued.set(slot)
		if en.rdyA == farFuture || en.rdyB == farFuture {
			t.waiting.set(slot)
		}

		t.count++
		t.dirty = true
		t.fetchIdx++
		fetched++
		if en.redirect {
			t.redirectSeq = seq
			t.redirectAt = farFuture
			break
		}
	}
	return fetched > 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// barriersReady reports whether all live threads are parked at a barrier.
func (e *timingEngine) barriersReady() bool {
	any := false
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		if t.count == 0 {
			return false
		}
		h := &t.win[t.head]
		// A barrier that was already released but has not issued yet has
		// not been crossed: counting it as a fresh arrival would pair it
		// with other threads' *next* barriers and skew the rendezvous.
		if h.issued || h.released {
			return false
		}
		if h.op != isa.OpBarrier {
			return false
		}
		any = true
	}
	return any
}

// issueCore issues up to IssueWidth ready micro-ops on core c. It returns the
// number issued and whether any thread was blocked on an empty queue, a full
// queue, or memory. Threads are visited in rotating order for SMT fairness.
func (e *timingEngine) issueCore(c int) (issued int, blockEmpty, blockFull, blockMem bool) {
	budget := e.m.Cfg.IssueWidth
	ths := e.byCore[c]
	n := len(ths)
	if n == 0 {
		return 0, false, false, false
	}
	e.curThread, e.curPC = -1, -1
	start := int(e.now) % n
	for k := 0; k < n; k++ {
		j := start + k
		if j >= n {
			j -= n
		}
		t := ths[j]
		if t.finished {
			continue
		}
		// Ripen even when the thread is not scanned, so that classifyCore
		// and stallSite never see a ripe entry in waiting.
		if e.now >= t.nextDue {
			t.ripen(e.now)
		}
		if budget == 0 {
			continue
		}
		if e.stalled(t) {
			// Barred from issuing this cycle; stay dirty so the thread
			// rescans as soon as the stall window ends.
			t.dirty = true
			if e.probe != nil {
				e.probe.ThreadState(t.idx, ClassOther, e.now)
			}
			continue
		}
		if !t.dirty && e.now < t.wakeAt {
			blockEmpty = blockEmpty || t.lastQE
			blockFull = blockFull || t.lastQF
			blockMem = blockMem || t.lastMB
			if e.probe != nil {
				e.probe.ThreadState(t.idx, stallClassOf(t.lastQE || t.lastQF, t.lastMB), e.now)
			}
			continue
		}
		t.dirty = false
		anyIssued := false
		firstUnissued := -1
		wake := uint64(farFuture)
		tQE, tQF, tMB := false, false, false
		sc := t.scan(2)
		waiting, parked := t.view(t.waiting, sc.from), t.view(t.parked, sc.from)
		stop := sc.n // the scan examines offsets from..from+stop-1
		for i := 0; ; i++ {
			// Only these have to be looked at; the sets answer for the rest.
			cand := sc.unissued.andNot(waiting).andNot(parked).from(i)
			if cand.empty() {
				break
			}
			i = cand.first()
			en := t.at(sc.from + i)
			ok, qb, mb := e.tryIssue(t, en)
			if ok {
				issued++
				budget--
				t.issuedN++
				e.stats.Issued++
				anyIssued = true
				if budget == 0 {
					stop = i + 1
					break
				}
				// The issue may have woken or unparked entries further on.
				// Only a store wakes a dependent in its own cycle (later
				// times go to the due list), and an issue unparks only its
				// queue successor: an op parked on its queue is the thread's
				// oldest unissued queue op, so no queue op of it can issue.
				if en.op == isa.OpStore {
					waiting = t.view(t.waiting, sc.from)
				}
				if en.nextQ != noLink {
					parked = t.view(t.parked, sc.from)
				}
				continue
			}
			if firstUnissued < 0 {
				firstUnissued = sc.from + i
			}
			if w := e.entryWake(t, en); w < wake {
				wake = w
			}
			tMB = tMB || mb
			slot := int(en.seq) & t.winMask
			switch {
			case qb && en.qRole == enqueues:
				// A full queue: nothing but a pop changes this.
				t.qPark = int32(slot<<1 | 1)
			case qb && e.queues[en.q].len() == 0:
				// An empty queue: nothing but a push changes this. A token
				// not yet visible has a time, which entryWake took.
				t.qPark = int32(slot << 1)
			case qb:
				tQE = true
				continue
			case en.qRole != notQueue && !mb:
				// Operands ready, in order behind an unissued queue op:
				// nothing but that op's issue changes this.
			default:
				continue
			}
			t.parked.set(slot)
			parked = parked.with(i)
		}
		// The entries stepped over: a waiting one is blocked on an operand,
		// an op parked on its queue on that queue, and any other parked one
		// on nothing the breakdown names.
		waiting, parked = waiting.below(stop), parked.below(stop)
		tMB = tMB || !waiting.empty()
		if p := t.qPark; p != noLink {
			if i := (int(p>>1)-t.head)&t.winMask - sc.from; i >= 0 && i < stop {
				if p&1 == 1 {
					tQF = true
				} else {
					tQE = true
				}
			}
		}
		if k := sc.from + waiting.or(parked).first(); k < sc.from+stop && (firstUnissued < 0 || k < firstUnissued) {
			firstUnissued = k
		}
		blockEmpty = blockEmpty || tQE
		blockFull = blockFull || tQF
		blockMem = blockMem || tMB
		if e.probe != nil {
			if anyIssued {
				e.probe.ThreadState(t.idx, ClassIssue, e.now)
			} else {
				e.probe.ThreadState(t.idx, stallClassOf(tQE || tQF, tMB), e.now)
			}
		}
		if firstUnissued >= 0 {
			t.scanFrom = firstUnissued
		} else if !sc.unissued.below(stop).empty() || t.scanFrom >= t.count {
			t.scanFrom = 0
		}
		// A scan that issued (new issues unlock dependents and move
		// scanFrom; the budget only stops a scan that issued) or that the
		// cap cut short is repeated next cycle. Otherwise, where the range
		// ends before the window does, the next range depends on the cycle
		// the rescan runs in (scanFrom moved, and retirement moves a stale
		// scanFrom of 0), and so does a Halt's issue (it waits for
		// retirement, which is no event): there the thread is rescanned
		// when a scan that examined its timed entries would have been, at
		// the earliest time one of them names, or every cycle if none is
		// known. Elsewhere every blocked entry is woken by an event, which
		// marks the thread dirty, or at its own or its due time, and a
		// rescan in any cycle before that would find what this one did.
		if anyIssued || sc.capped {
			t.dirty = true
			continue
		}
		if t.count-sc.from > 2*issueScanCap || t.fetchIdx == len(t.trace) {
			if wake = min(wake, e.timedWake(t, sc.from, stop)); wake >= farFuture {
				t.dirty = true
				continue
			}
		} else {
			wake = min(wake, t.nextDue)
		}
		t.wakeAt = wake
		t.lastQE, t.lastQF, t.lastMB = tQE, tQF, tMB
	}
	return issued, blockEmpty, blockFull, blockMem
}

// stallClassOf maps per-thread block bits to the stall class with the same
// priority order the per-core classification uses.
func stallClassOf(qb, mb bool) StallClass {
	switch {
	case qb:
		return ClassQueue
	case mb:
		return ClassBackend
	}
	return ClassOther
}

// entryWake estimates when a not-ready entry could become issuable from
// information known now: producer completion times and available queue
// tokens. Unissued producers and queue-state changes wake the thread via
// dirty marking instead.
func (e *timingEngine) entryWake(t *tThread, en *winEntry) uint64 {
	w := uint64(farFuture)
	if d := en.rdyA; d > e.now && d < w {
		w = d
	}
	if d := en.rdyB; d > e.now && d < w {
		w = d
	}
	if en.qRole == dequeues {
		if q := &e.queues[en.q]; q.len() > 0 {
			if r := q.headReady(); r > e.now && r < w {
				w = r
			}
		}
	}
	if en.op == isa.OpLoad && len(e.mshrs[t.core]) >= e.m.Cfg.MSHRs && e.m.Cfg.MSHRs > 0 {
		for _, c := range e.mshrs[t.core] {
			if c > e.now && c < w {
				w = c
			}
		}
	}
	return w
}

// timedWake is the earliest entryWake of the timed entries among offset
// indexes [0, stop) of a scan from from that issued nothing: the wake they
// would have given had the scan examined them. The MSHR list looks the same
// to each (in such a scan a load's check compacts it only to find it still
// full).
func (e *timingEngine) timedWake(t *tThread, from, stop int) uint64 {
	w := uint64(farFuture)
	for _, d := range t.due {
		slot := int(d) & t.winMask
		if i := (slot-t.head)&t.winMask - from; i >= 0 && i < stop {
			w = min(w, e.entryWake(t, &t.win[slot]))
		}
	}
	return w
}

// classifyCore recomputes the stall classification without issuing (used when
// fast-forwarding idle periods).
func (e *timingEngine) classifyCore(c int) (blockQ, blockMem bool) {
	for _, t := range e.byCore[c] {
		if t.finished {
			continue
		}
		sc := t.scan(1)
		rest := sc.unissued.andNot(t.view(t.waiting, sc.from))
		blockMem = blockMem || rest != sc.unissued // a waiting entry
		for ; !rest.empty(); rest = rest.dropFirst() {
			_, qb, mb := e.checkIssue(t, t.at(sc.from+rest.first()))
			blockQ = blockQ || qb
			blockMem = blockMem || mb
		}
	}
	return blockQ, blockMem
}

// checkIssue evaluates readiness without side effects.
func (e *timingEngine) checkIssue(t *tThread, en *winEntry) (ready, blockQ, blockMem bool) {
	if en.rdyA > e.now || en.rdyB > e.now {
		// Waiting on an operand (or, a load, on an older store to its
		// address): attributed to memory, FU latency counts as backend too.
		return false, false, true
	}
	switch en.op {
	case isa.OpLoad:
		if !e.mshrAvailable(t.core) {
			return false, false, true
		}
		return true, false, false
	case isa.OpBarrier:
		return en.released, false, false
	case isa.OpHalt:
		// Halt serializes: it may only issue once every older instruction
		// has retired, otherwise the thread would be marked finished with
		// work still in flight.
		return int(en.seq) == t.baseSeq, false, false
	}
	if en.qRole != notQueue {
		// In-order among queue ops.
		if dep := int(en.depSeq); dep >= t.baseSeq && !t.win[dep&t.winMask].issued {
			return false, false, false
		}
		q := &e.queues[en.q]
		if en.qRole == enqueues {
			if q.len() >= q.cap {
				return false, true, false
			}
		} else if q.len() == 0 || q.headReady() > e.now {
			return false, true, false
		}
	}
	return true, false, false
}

// tryIssue attempts to issue the entry, applying side effects on success.
func (e *timingEngine) tryIssue(t *tThread, en *winEntry) (ok, blockQ, blockMem bool) {
	ready, qb, mb := e.checkIssue(t, en)
	if !ready {
		return false, qb, mb
	}
	te := &t.trace[en.seq]
	qi := int(en.q)
	var done uint64
	switch en.op {
	case isa.OpLoad:
		lat, missed := e.hier.Access(t.core, te.Addr, e.now)
		lat += e.extraMemLatency()
		done = e.now + lat
		if missed {
			e.mshrs[t.core] = append(e.mshrs[t.core], done)
		}
	case isa.OpStore:
		// Stores complete immediately from the pipeline's view (write
		// buffer); the cache access is charged for stats/energy.
		e.hier.Access(t.core, te.Addr, e.now)
		done = e.now + 1
	case isa.OpPrefetch:
		// Fire-and-forget: warms the cache without blocking the pipeline.
		if te.Addr != 0 {
			e.hier.Access(t.core, te.Addr, e.now)
		}
		done = e.now + 1
	case isa.OpEnq:
		e.queues[qi].push(e.now + 1)
		e.wakeConsumer(qi)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(qi, e.queues[qi].len(), e.now)
		}
	case isa.OpEnqCtrl, isa.OpEnqCtrlV:
		// Control values may be delivered late under fault injection; the
		// token sits in the queue but is not visible to the consumer until
		// its readyAt cycle, which delays everything FIFO-behind it too.
		e.queues[qi].push(e.now + 1 + e.ctrlDelay(qi))
		e.wakeConsumer(qi)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(qi, e.queues[qi].len(), e.now)
		}
	case isa.OpDeq:
		e.queues[qi].pop()
		e.wakeProducers(qi)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(qi, e.queues[qi].len(), e.now)
		}
	case isa.OpPeek:
		e.queueOps++
		done = e.now + 1
	case isa.OpHalt:
		t.finished = true
		e.live--
		done = e.now + 1
		if e.probe != nil {
			e.probe.ThreadDone(t.idx, e.now)
		}
	default:
		done = e.now + uint64(en.lat)
	}
	en.issued = true
	en.doneAt = done
	t.unissued.clear(int(en.seq) & t.winMask)
	t.wakeDependents(en, e.now)
	if en.nextQ != noLink {
		t.parked.clear(int(en.nextQ))
	}
	if e.probe != nil {
		e.probe.Issued(t.idx, int(te.PC))
		if e.curPC < 0 {
			e.curThread, e.curPC = t.idx, int(te.PC)
		}
	}
	if en.redirect {
		pen := e.m.Cfg.MispredictPenalty
		if te.Flags&FlagHandlerFire != 0 {
			pen = e.m.Cfg.HandlerRedirectPenalty
		}
		t.redirectAt = done + pen
	}
	return true, false, false
}

// tickRA advances one reference accelerator by one cycle, reporting window
// occupancy changes to the probe.
func (e *timingEngine) tickRA(ra *tRA) bool {
	if e.probe == nil {
		return e.tickRASteps(ra)
	}
	before := len(ra.inflight) - ra.ifHead
	moved := e.tickRASteps(ra)
	if after := len(ra.inflight) - ra.ifHead; after != before {
		e.probe.RAInflight(ra.id, after, e.now)
	}
	return moved
}

func (e *timingEngine) tickRASteps(ra *tRA) bool {
	moved := false
	// Deliver completed tokens in order.
	outq := &e.queues[ra.outQ]
	for ra.ifHead < len(ra.inflight) && ra.inflight[ra.ifHead] <= e.now && outq.len() < outq.cap {
		outq.push(e.now + 1)
		e.wakeConsumer(ra.outQ)
		if e.probe != nil {
			e.probe.QueueLen(ra.outQ, outq.len(), e.now)
		}
		ra.ifHead++
		if ra.loads > 0 {
			ra.loads--
		}
		moved = true
		// Occupancy is bounded by the outstanding window; compact like
		// tQueue.pop so the buffer stays near the window size.
		if ra.ifHead > ra.outstanding && ra.ifHead*2 > len(ra.inflight) {
			ra.inflight = append(ra.inflight[:0], ra.inflight[ra.ifHead:]...)
			ra.ifHead = 0
		}
	}
	// Intake: bounded FSM steps per cycle, at most one load start.
	steps, loadsStarted := 0, 0
	inq := &e.queues[ra.inQ]
	for ra.idx < len(ra.events) && steps < 4 {
		ev := ra.events[ra.idx]
		switch ev.Kind {
		case RAConsume:
			if inq.len() == 0 || inq.headReady() > e.now {
				return moved
			}
			inq.pop()
			e.wakeProducers(ra.inQ)
			if e.probe != nil {
				e.probe.QueueLen(ra.inQ, inq.len(), e.now)
			}
		case RALoad:
			if loadsStarted >= 1 || len(ra.inflight)-ra.ifHead >= ra.outstanding {
				return moved
			}
			lat, _ := e.hier.Access(ra.core, ev.Addr, e.now)
			lat += e.extraMemLatency()
			ra.inflight = append(ra.inflight, e.now+lat)
			ra.loads++
			loadsStarted++
			e.stats.RALoads++
			e.raEvents++
		case RAPass, RACtrlOut:
			if len(ra.inflight)-ra.ifHead >= ra.outstanding {
				return moved
			}
			ra.inflight = append(ra.inflight, e.now+1)
			e.raEvents++
		}
		ra.idx++
		steps++
		moved = true
	}
	return moved
}

// nextEvent returns the earliest future cycle at which something can happen.
func (e *timingEngine) nextEvent() uint64 {
	next := uint64(farFuture)
	consider := func(v uint64) {
		if v > e.now && v < next {
			next = v
		}
	}
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		if t.redirectSeq >= 0 && t.redirectAt < farFuture {
			consider(t.redirectAt)
		}
		// Everything before scanFrom has issued, so the scan range holds every
		// unissued entry among the offsets it ends at; the in-flight entries
		// among those offsets complete at doneAt.
		sc := t.scan(1)
		for off := 0; off < sc.from+sc.n; off++ {
			if slot := (t.head + off) & t.winMask; !t.unissued.has(slot) {
				consider(t.win[slot].doneAt)
			}
		}
		// A waiting entry's known operand is an in-flight entry seen above.
		for rest := sc.unissued.andNot(t.view(t.waiting, sc.from)); !rest.empty(); rest = rest.dropFirst() {
			en := t.at(sc.from + rest.first())
			consider(en.rdyA)
			consider(en.rdyB)
			if en.qRole == dequeues {
				if q := &e.queues[en.q]; q.len() > 0 {
					consider(q.headReady())
				}
			}
		}
	}
	for _, ra := range e.ras {
		if ra.ifHead < len(ra.inflight) {
			consider(ra.inflight[ra.ifHead])
		}
		if ra.idx < len(ra.events) {
			q := &e.queues[ra.inQ]
			if ra.events[ra.idx].Kind == RAConsume && q.len() > 0 {
				consider(q.headReady())
			}
		}
	}
	return next
}

// Run executes the machine end to end: functional phase then timing phase.
// The traces never leave Run, so it hands them back to the free lists once
// the replay is over, whatever its outcome.
func (m *Machine) Run() (*Stats, error) {
	ts, err := m.runFunctional(funcQuantum, true)
	if err != nil {
		return nil, err
	}
	defer ts.recycle()
	return m.RunTiming(ts)
}
