package sim

// status is what a task reports when it hands its core back.
type status int

const (
	// blocked: the task cannot continue until a queue, the barrier, or the
	// RAs change state; stepping it again re-executes the blocked operation.
	blocked status = iota
	// halted: the task finished and must not be stepped again.
	halted
	// failed: the run is aborting (the failure is already recorded).
	failed
)

// task is a stage or an RA: it runs on its core until it blocks, and
// reports whether it got anything done.
type task interface {
	step() (st status, worked bool)
}

// queue is one architectural queue: a ring that starts at its capacity and,
// in the functional configuration, doubles instead of filling. A queue used
// from one core only is touched by that core's goroutine alone; a shared
// one only with engine.mu held.
type queue struct {
	buf     []Value
	head, n int
	// prod counts live producers (stages and RA outputs); a queue with
	// none left is closed.
	prod   int
	shared bool
	// direct: an enqueue is a plain put — the queue is not shared and
	// feeds no RA whose sent counter a swap watches.
	direct bool
}

// The ring fast path. Stage queue ops and the RA step try these first;
// they are small enough to inline into those loops, and engine.enq and
// engine.take (a shared, RA-counted or full ring) are called only when
// these decline. Both paths move tokens with put and get, so
// there is one ring and one push/pop rule.

// tryPush appends v if the queue is direct and has room.
func (q *queue) tryPush(v Value) bool {
	if !q.direct || q.n == len(q.buf) {
		return false
	}
	q.put(v)
	return true
}

// tryPop removes and returns the head token of a queue this goroutine
// alone touches; ok is false when the queue is empty or shared.
func (q *queue) tryPop() (v Value, ok bool) {
	if q.shared || q.n == 0 {
		return v, false
	}
	return q.get(), true
}

// tryPeek is tryPop without consuming the token.
func (q *queue) tryPeek() (v Value, ok bool) {
	if q.shared || q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// put appends v to the ring, which has room.
func (q *queue) put(v Value) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// get removes and returns the head token of the ring, which is not empty.
func (q *queue) get() Value {
	v := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// grown doubles the full ring q where the configuration lets rings grow,
// and reports whether it did.
func (e *engine) grown(q *queue) bool {
	if e.quantum == 0 {
		return false
	}
	n := max(512, 2*len(q.buf))
	next := queueBufs.alloc(n)[:n]
	k := copy(next, q.buf[q.head:])
	copy(next[k:], q.buf[:q.head])
	queueBufs.put(q.buf)
	q.buf, q.head = next, 0
	return true
}

// enq delivers v into queue qi and reports whether it did; it does not
// when the queue is full. When the queue feeds an RA and swaps are counted,
// the RA's sent counter is bumped so quiescence covers tokens still queued.
func (e *engine) enq(qi int, v Value) bool {
	q := &e.queues[qi]
	if q.shared {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	if q.n == len(q.buf) && !e.grown(q) {
		return false
	}
	if e.counted {
		if ra := e.raIdx[qi]; ra >= 0 {
			e.raSent[ra].Add(1)
		}
	}
	q.put(v)
	if q.shared {
		e.event()
	}
	return true
}

// take reads the next token of queue qi, consuming it if pop is set. ok is
// false when the queue is empty; closed then tells whether it can ever be
// fed again.
func (e *engine) take(qi int, pop bool) (v Value, ok, closed bool) {
	q := &e.queues[qi]
	if q.shared {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	if q.n == 0 {
		return v, false, q.prod == 0
	}
	if !pop {
		return q.buf[q.head], true, false
	}
	v = q.get()
	if q.shared {
		e.event()
	}
	return v, true, false
}

// retire removes a finished task from the producer census of its output
// queues; a halted stage also leaves the barrier group, which can release
// the remaining waiters.
func (e *engine) retire(queues []int, stage bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range queues {
		e.queues[q].prod--
	}
	if stage {
		e.live--
		if e.quantum == 0 {
			e.releaseBarrier()
		}
	}
	e.event()
}

// barrier registers x's arrival at a barrier once and reports whether that
// barrier has been released.
func (e *engine) barrier(x *stageExec) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if x.state != wBarrier {
		x.state, x.barGen = wBarrier, e.barGen
		e.waiting++
		if e.quantum == 0 {
			e.releaseBarrier()
		}
	}
	if x.barGen == e.barGen {
		return false
	}
	x.state = wRunning
	return true
}

// releaseBarrier is the barrier rule: the barrier opens when every live
// (non-halted) stage waits at it. Natively that is looked at whenever a
// stage arrives or halts; the functional scheduler looks between rounds,
// so that a turn ends at a barrier and every stage resumes in stage order.
// Callers sharing the engine hold mu.
func (e *engine) releaseBarrier() bool {
	if e.live == 0 || e.waiting != e.live {
		return false
	}
	e.waiting = 0
	e.barGen++
	e.event()
	return true
}

// event publishes a change to shared state. Every parked core waits for
// the epoch to move, so all of them stop counting as idle at once, before
// they get to run. Callers hold mu.
func (e *engine) event() {
	e.epoch.Add(1)
	if e.idle > 0 {
		e.idle = 0
		e.cv.Broadcast()
	}
}

// runCore is one simulated core's scheduler: it steps the core's tasks
// round-robin until all have halted or the run fails. A round in which no
// task got anything done can only be followed by a better one if another
// core changes shared state, so the core parks until then.
func (e *engine) runCore(tasks []task) {
	defer func() {
		e.mu.Lock()
		e.cores--
		e.event()
		e.mu.Unlock()
	}()
	defer recoverMemTrap(e.fail)
	for {
		seen := e.epoch.Load()
		live, progress := round(tasks)
		if live == 0 || e.stopped.Load() || (!progress && !e.waitEvent(seen)) {
			return
		}
	}
}

// round steps every live task once and drops those that halt. It reports
// how many are still live — none once the run is aborting — and whether
// any got something done.
func round(tasks []task) (live int, progress bool) {
	for i, t := range tasks {
		if t == nil {
			continue
		}
		st, worked := t.step()
		switch st {
		case failed:
			return 0, false
		case halted:
			tasks[i] = nil
			progress = true
		default:
			live++
		}
		progress = progress || worked
	}
	return live, progress
}

// waitEvent parks a core whose round got nothing done until shared state
// moves past epoch seen, and reports whether the run is still on. Every
// running core parked at once is a deadlock, exactly: each found all its
// tasks blocked, and nothing is left that could unblock one.
func (e *engine) waitEvent(seen uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epoch.Load() == seen && e.failure == nil {
		e.idle++
		if e.idle == e.cores {
			e.failLocked(&DeadlockError{Snapshot: e.snapshot()})
		}
		for e.epoch.Load() == seen && e.failure == nil {
			e.cv.Wait()
		}
	}
	return e.failure == nil
}

// snapshot captures the wait-for state at a deadlock. No task is running
// (natively the caller holds mu and every other core is parked), so each
// stage's saved pc and wait state are those of its blocked instruction.
func (e *engine) snapshot() *WaitForSnapshot {
	s := &WaitForSnapshot{Phase: e.phase}
	queueWait := func(q int) *QueueWait {
		w := &QueueWait{Q: q, Name: e.m.Queues[q].Name, Len: e.queues[q].n}
		if e.quantum == 0 {
			w.Cap = len(e.queues[q].buf)
		}
		return w
	}
	for _, x := range e.stages {
		if x.state == wHalted {
			continue
		}
		w := StageWait{
			Stage:   x.st.Prog.Name,
			Thread:  x.st.Thread,
			PC:      int32(x.pc),
			Fetched: x.pc,
			Total:   len(x.st.Prog.Instrs),
		}
		switch x.state {
		case wDeq:
			w.State = "deq-empty"
			w.Queue = queueWait(x.waitQ)
		case wEnq:
			w.State = "enq-full"
			w.Queue = queueWait(x.waitQ)
		case wBarrier:
			w.State = "barrier"
		default:
			w.State = "other"
		}
		s.Stages = append(s.Stages, w)
	}
	for qi := range e.queues {
		s.Queues = append(s.Queues, *queueWait(qi))
	}
	return s
}
