package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"phloem/internal/arch"
	"phloem/internal/mem"
)

// The execution engine. Every stage and every reference accelerator is a
// resumable task (saved pc, registers, wait state) over ring queues; there
// is one opcode evaluator (stage.go), one RA step (ra.go), one ring, barrier
// rule, producer census and deadlock snapshot (sched.go). It has two fixed
// configurations, chosen by the entry point called and by nothing else
// (DESIGN.md §5 has the table). RunFunctional: every task on the caller's
// goroutine, rings that double when full, stages in machine order for
// funcQuantum instructions a turn with the RAs drained after every turn and
// the barrier opened between rounds, a trace per stage and per RA.
// RunNative: one goroutine per simulated core, rings bounded at
// QueueSpec.Capacity, each task run until it blocks, no trace.
//
// The functional turn policy is part of what a trace means wherever tasks
// race (a queue with several producers; the data-parallel baselines' label
// updates); decoupled pipelines do not depend on it
// (TestTraceScheduleIndependent).

const (
	// funcQuantum is how many instructions a stage runs per functional turn.
	funcQuantum = 512
	// flushEvery is how many instructions a native stage executes between
	// flushes to the shared instruction counter (and stop-flag polls).
	flushEvery = 1024
)

// engine holds the shared state of one run.
type engine struct {
	m *Machine

	// The configuration: phase names it in snapshots and errors, and
	// quantum is the functional turn length in instructions. Nonzero, it
	// also means that traces are kept and that a full ring doubles instead
	// of refusing; zero is the native configuration.
	phase   string
	quantum uint64

	queues []queue
	// slots is the machine-wide array-slot table; OpSwapSlots exchanges
	// two entries atomically, loads are single atomic pointer reads.
	slots []atomic.Pointer[mem.Array]

	stages []*stageExec
	// ras is the RAs as the functional scheduler steps them (nil once
	// halted), and raTrace their micro-event traces.
	ras     []task
	raTrace [][]RAEvent
	// stageBufs and raBufs supply the trace buffers of a run that hands
	// them back to the free lists (Machine.Run). Both are nil for traces
	// that go to RunFunctional's caller: those never touch the lists, so
	// a process that only collects traces keeps no buffers after them.
	stageBufs *bufPool[TEntry]
	raBufs    *bufPool[RAEvent]

	// counted gates the RA quiesce counters. OpSwapSlots waits until no RA
	// holds a token; where every RA runs on the swapper's goroutine (the
	// functional configuration, a native machine on one core) rasQuiet
	// reads that off the rings, so only a multi-core native machine with
	// swaps pays for counters: raIdx maps a queue id to the RA consuming it
	// (-1 if none), whose sent counter producers bump on delivery. swapWait
	// counts stages blocked in OpSwapSlots, so an RA on another core knows
	// to announce its progress.
	counted  bool
	raIdx    []int
	raSent   []atomic.Uint64
	raDone   []atomic.Uint64
	swapWait atomic.Int32

	// instrs accumulates flushed stage instruction counts; over cap is the
	// livelock guard. stopped is the cheap abort flag for amortized polls.
	instrs  atomic.Uint64
	cap     uint64
	stopped atomic.Bool

	// mu guards everything cores share: cross-core queues, the barrier,
	// the producer census, the first failure, and the idle census. epoch
	// counts changes to that state; it is written under mu and read
	// without, so a core can tell that nothing changed during a round.
	mu      sync.Mutex
	cv      sync.Cond
	epoch   atomic.Uint64
	cores   int // schedulers still running
	idle    int // of those, parked in waitEvent at the current epoch
	live    int // stages not yet halted: the barrier group
	waiting int // of those, arrived at the current barrier
	barGen  uint64
	failure error
}

// RunFunctional executes the machine's programs to completion and returns the
// traces. Memory side effects remain in m.Space; slot bindings may have been
// swapped by the program. Errors are structured: *DeadlockError (with a
// wait-for snapshot), *TraceLimitError (livelock guard), and *TrapError
// (out-of-bounds accesses, division by zero, protocol violations) — classify
// with errors.Is against ErrDeadlock/ErrTraceLimit/ErrTrap.
func (m *Machine) RunFunctional() (*TraceSet, error) {
	return m.runFunctional(funcQuantum, false)
}

// runFunctional is RunFunctional with the turn length as a parameter, for
// the test that asks whether traces depend on it. With recycled set the
// traces come from the free lists, and the caller must hand a returned
// TraceSet back with recycle.
func (m *Machine) runFunctional(quantum uint64, recycled bool) (ts *TraceSet, err error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	defer recoverMemTrap(func(trap error) { ts, err = nil, trap })
	e, _ := newEngine(m, "functional", quantum)
	if recycled {
		e.stageBufs, e.raBufs = &stageTraces, &raTraces
	}
	defer e.storeSlots()
	defer func() { e.recycle(ts == nil) }()

	for left := len(e.stages); left > 0; {
		if err := m.checkInterrupt(e.phase, 0); err != nil {
			return nil, err
		}
		progress := false
		for _, x := range e.stages {
			if x.state == wHalted {
				continue
			}
			st, worked := x.step()
			switch st {
			case failed:
				return nil, e.failure
			case halted:
				left--
			}
			moved, ok := e.drainRAs()
			if !ok {
				return nil, e.failure
			}
			progress = progress || worked || moved
		}
		if !e.releaseBarrier() && !progress {
			return nil, &DeadlockError{Snapshot: e.snapshot()}
		}
		if total := e.executed(); total > e.cap {
			return nil, &TraceLimitError{Entries: total, Limit: e.cap}
		}
	}

	ts = &TraceSet{RA: e.raTrace, Instructions: e.executed(), Leftover: e.leftover()}
	for _, x := range e.stages {
		ts.Threads = append(ts.Threads, x.trace)
	}
	return ts, nil
}

// recycle hands the functional run's grown queue rings back to the free
// lists, and its traces too if traces is set and they came from the lists:
// those of a failed run, which never leave the engine.
func (e *engine) recycle(traces bool) {
	for q := range e.queues {
		queueBufs.put(e.queues[q].buf)
	}
	if !traces {
		return
	}
	for _, x := range e.stages {
		e.stageBufs.put(x.trace)
	}
	for _, r := range e.raTrace {
		e.raBufs.put(r)
	}
}

// drainRAs steps every RA until none can move a token — the functional
// configuration's RA turn, taken after every stage turn and before a slot
// swap. ok is false when an RA trapped.
func (e *engine) drainRAs() (moved, ok bool) {
	for {
		_, progress := round(e.ras)
		if !progress {
			return moved, e.failure == nil
		}
		moved = true
	}
}

// RunNative executes the machine's stage programs to completion on the
// host, in the engine's native configuration (package native wraps it as
// native.Run). It returns the executed-instruction count and the per-queue
// leftover tokens, equal to a functional run's TraceSet.Instructions and
// TraceSet.Leftover; memory and m.Slots are left as after RunFunctional, and
// m.Ctx and m.MaxTraceEntries are honored with the same sentinel errors. The
// first core runs on the caller's goroutine, and no goroutine started here
// outlives the call.
func (m *Machine) RunNative() (instructions uint64, leftover []int, err error) {
	if err := m.Validate(); err != nil {
		return 0, nil, err
	}
	e, cores := newEngine(m, "native", 0)
	disarm := e.arm()

	var wg sync.WaitGroup
	for i := 1; i < len(cores); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runCore(cores[i])
		}()
	}
	if len(cores) > 0 {
		e.runCore(cores[0])
	}
	wg.Wait()
	disarm()
	e.storeSlots()

	if e.failure != nil {
		return 0, nil, e.failure
	}
	// A cancellation that raced the final stage's exit still counts.
	if err := m.checkInterrupt(e.phase, 0); err != nil {
		return 0, nil, err
	}
	return e.executed(), e.leftover(), nil
}

// recoverMemTrap, deferred, turns a typed memory-system panic (kind
// mismatch, bad allocation) into a structured trap handed to report;
// anything else is a real bug and propagates.
func recoverMemTrap(report func(error)) {
	if r := recover(); r != nil {
		me, ok := r.(*mem.Error)
		if !ok {
			panic(r)
		}
		report(&TrapError{PC: -1, Msg: me.Error()})
	}
}

// newEngine lowers the machine: one task per stage and per RA and one ring
// per queue. The tasks come back grouped by simulated core, in order of
// first appearance, for the native schedulers (quantum 0); the functional
// one walks e.stages and e.ras.
func newEngine(m *Machine, phase string, quantum uint64) (*engine, [][]task) {
	e := &engine{m: m, phase: phase, quantum: quantum, cap: uint64(m.MaxTraceEntries), live: len(m.Stages)}
	e.cv.L = &e.mu
	if e.cap == 0 {
		e.cap = 64 << 20
	}
	e.queues = make([]queue, len(m.Queues))
	for q := range m.Queues {
		e.queues[q].buf = make([]Value, m.queueDepth(q))
	}
	e.slots = make([]atomic.Pointer[mem.Array], len(m.Slots))
	for i, a := range m.Slots {
		e.slots[i].Store(a)
	}
	if quantum != 0 && len(m.RAs) > 0 {
		e.raTrace = make([][]RAEvent, len(m.RAs))
	}

	var cores [][]task
	coreIdx := map[int]int{}
	place := func(core int, t task) {
		i, ok := coreIdx[core]
		if !ok {
			i = len(cores)
			coreIdx[core] = i
			cores = append(cores, nil)
		}
		cores[i] = append(cores[i], t)
	}
	// A queue every user of which sits on one core is touched by one
	// goroutine; any other is shared and goes through e.mu. The functional
	// configuration has one goroutine and shares nothing.
	owner := make([]int, len(m.Queues))
	for q := range owner {
		owner[q] = -1
	}
	touch := func(q, core int) {
		if owner[q] < 0 {
			owner[q] = core
		} else if owner[q] != core && quantum == 0 {
			e.queues[q].shared = true
		}
	}

	// Static producer census. Every way a token can enter a queue is
	// statically known: a stage enqueue or an RA output. Each producer
	// retires on clean exit; a queue with none left is closed, which is how
	// an RA learns its input can never be fed again.
	hasSwaps := false
	for _, st := range m.Stages {
		u := st.Prog.QueueUse()
		hasSwaps = hasSwaps || u.HasSwap
		x := newStageExec(e, st, u)
		for _, q := range u.Produces {
			e.queues[q].prod++
			touch(q, st.Thread.Core)
		}
		for _, q := range u.Consumes {
			touch(q, st.Thread.Core)
		}
		e.stages = append(e.stages, x)
		place(st.Thread.Core, x)
	}
	for i := range m.RAs {
		spec := &m.RAs[i]
		e.queues[spec.OutQ].prod++
		touch(spec.InQ, spec.Core)
		touch(spec.OutQ, spec.Core)
		r := &raExec{e: e, idx: i, spec: spec}
		e.ras = append(e.ras, r)
		place(spec.Core, r)
	}
	e.cores = len(cores)
	if e.counted = hasSwaps && quantum == 0 && e.cores > 1; e.counted {
		e.raIdx = make([]int, len(m.Queues))
		for q := range e.raIdx {
			e.raIdx[q] = -1
		}
		for i := range m.RAs {
			e.raIdx[m.RAs[i].InQ] = i
		}
		e.raSent = make([]atomic.Uint64, len(m.RAs))
		e.raDone = make([]atomic.Uint64, len(m.RAs))
	}
	for qi := range e.queues {
		q := &e.queues[qi]
		q.direct = !q.shared && (!e.counted || e.raIdx[qi] < 0)
	}
	// Bursts (ra.go) are untraced and fill a direct ring. An INDIRECT run
	// also reads an unshared input under one slot read, which is sound only
	// where no swap can land between its tokens: no counters.
	for _, t := range e.ras {
		r := t.(*raExec)
		r.burstScan = quantum == 0 && e.queues[r.spec.OutQ].direct
		r.burstIndirect = r.burstScan && r.spec.Mode == arch.RAIndirect && !e.counted && !e.queues[r.spec.InQ].shared
	}
	return e, cores
}

// executed counts stage instructions (Halt and Barrier included, RA
// micro-events excluded); exact once every scheduler has stopped.
func (e *engine) executed() uint64 {
	var n uint64
	for _, x := range e.stages {
		n += x.steps
	}
	return n
}

// leftover counts, per queue, the tokens never consumed (nil: no queues).
func (e *engine) leftover() []int {
	if len(e.queues) == 0 {
		return nil
	}
	left := make([]int, len(e.queues))
	for q := range e.queues {
		left[q] = e.queues[q].n
	}
	return left
}

// storeSlots writes the slot bindings back so callers observe swaps.
func (e *engine) storeSlots() {
	for i := range e.slots {
		e.m.Slots[i] = e.slots[i].Load()
	}
}

// arm lets cancellation fail a native run from the context's own goroutine
// (its cores may all be parked; the functional scheduler polls between
// rounds). The returned function disarms the hook and waits for it if it
// already started, so it never outlives the run or races its verdict.
func (e *engine) arm() (disarm func()) {
	ctx := e.m.Ctx
	if ctx == nil {
		return func() {}
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(fired)
		e.fail(&CancelledError{Phase: e.phase, Cause: ctx.Err()})
	})
	return func() {
		if !stop() {
			<-fired
		}
	}
}

// fail records the first failure and wakes every parked core. The first
// caller wins; later failures (often knock-on effects of the abort) are
// dropped.
func (e *engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failLocked(err)
}

func (e *engine) failLocked(err error) {
	if e.failure == nil {
		e.failure = err
		e.stopped.Store(true)
		e.cv.Broadcast()
	}
}

// bumpInstrs flushes part of a native stage's instruction count and
// enforces the livelock guard (the functional scheduler checks the same
// cap between rounds).
func (e *engine) bumpInstrs(n uint64) {
	if total := e.instrs.Add(n); total > e.cap {
		e.fail(&TraceLimitError{Entries: total, Limit: e.cap})
	}
}

// rasQuiet reports whether every RA has fully processed every token sent
// toward it. OpSwapSlots waits for it so in-flight accelerator work
// observes pre-swap bindings. An RA holds a token while one sits in its
// input ring or while a SCAN range streams (its end token stays unfinished
// until the range is out), so on the swapper's own goroutine the rings and
// scanning flags say it directly (an RA the functional scheduler dropped
// has halted: its input is closed and drained). Counted (an RA may run on
// another core while the swapper looks), sent counters are bumped on
// delivery, done counters after processing, and an RA feeding another RA
// bumps the downstream sent before its own done — so while any token is in
// flight at least one pair disagrees. Out of line: the swap is rare, and
// its loops inlined would crowd the evaluator loop's registers.
//
//go:noinline
func (e *engine) rasQuiet() bool {
	if e.counted {
		for i := range e.raSent {
			if e.raSent[i].Load() != e.raDone[i].Load() {
				return false
			}
		}
		return true
	}
	for _, t := range e.ras {
		if t == nil {
			continue
		}
		if r := t.(*raExec); e.queues[r.spec.InQ].n != 0 || r.scanning {
			return false
		}
	}
	return true
}
