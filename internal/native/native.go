// Package native executes a compiled pipeline on the host instead of
// simulating it. A host goroutine stands for a simulated core: every stage
// (an SMT thread of that core) and every reference accelerator on it is a
// resumable task that the core's scheduler round-robins, and every
// architectural queue is a bounded ring. It consumes the same post-pass
// sim.Machine the simulator runs — same flattened stage programs, same
// queue specs, RA specs, fan-out edges, slot table, and memory space — so
// any pipeline the compiler produces runs on either backend unchanged. A
// single-core machine runs entirely on the caller's goroutine; only
// replicated pipelines (one replica per core) start goroutines.
//
// Semantics follow the functional simulator exactly where both are
// defined: identical opcode behavior (including Mov clearing the control
// tag and shift-amount masking), identical trap conditions and messages,
// control-value handler fires on dequeue, barrier release when every live
// stage waits, and RA quiescence before OpSwapSlots. Differential tests
// require bit-identical output memory state and equal executed-instruction
// counts against sim.RunFunctional on every workload.
//
// The one deliberate divergence is queue capacity: the functional phase
// uses unbounded queues, while this backend bounds every queue at
// arch.QueueSpec.Capacity — the same bound the timing model enforces. A
// pipeline that overfills a queue nobody drains therefore backpressures
// and deadlocks here (and in the timing phase) where the functional phase
// would merely report leftovers; the commopt Q4 capacity argument is what
// makes compiler-sized pipelines safe (see DESIGN.md §16).
//
// Failures map onto the simulator's sentinel error family, so callers
// classify native errors with errors.Is against sim.ErrDeadlock,
// sim.ErrTrap, sim.ErrTraceLimit, sim.ErrCancelled, and sim.ErrWallBudget
// exactly as they do for simulated runs.
package native

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phloem/internal/mem"
	"phloem/internal/sim"
)

// flushEvery is how many instructions a stage executes between flushes to
// the shared instruction counter (and stop-flag polls) — the native
// analogue of sim's amortized interrupt-check period.
const flushEvery = 1024

// Options tunes the native executor. There is nothing to tune: the zero
// value is the only value.
type Options struct{}

// Stats reports a native run. Instructions counts every executed stage
// instruction (including Halt and Barrier, excluding RA micro-events) and
// equals sim.TraceSet.Instructions for the same machine — the
// deterministic cross-backend work metric. Wall is host-dependent.
type Stats struct {
	Instructions uint64
	Wall         time.Duration
	// Leftover is the per-queue count of tokens never consumed, matching
	// sim.TraceSet.Leftover.
	Leftover []int
	Stages   int
	RAs      int
	Queues   int
}

func (s *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "native: %d instructions in %v (%d stages, %d RAs, %d queues)\n",
		s.Instructions, s.Wall, s.Stages, s.RAs, s.Queues)
	left := 0
	for _, n := range s.Leftover {
		left += n
	}
	if left > 0 {
		fmt.Fprintf(&sb, "native: %d leftover queue tokens\n", left)
	}
	return sb.String()
}

// engine holds the shared state of one native run.
type engine struct {
	m *sim.Machine

	queues []queue
	// slots is the machine-wide array-slot table; OpSwapSlots exchanges
	// two entries atomically, loads are single atomic pointer reads.
	slots []atomic.Pointer[mem.Array]
	// fan maps a queue id to the fan-out destinations every data enqueue
	// into it is duplicated to (nil for ordinary queues).
	fan [][]int
	// raIdx maps a queue id to the RA consuming it (-1 if none); producers
	// bump that RA's sent counter on delivery so OpSwapSlots can quiesce
	// in-flight accelerator work.
	raIdx []int

	stages []*stageExec

	// hasSwaps gates the RA quiesce counters: pipelines without
	// OpSwapSlots never pay for them. swapWait counts stages blocked in
	// OpSwapSlots, so an RA on another core knows to announce its progress.
	hasSwaps bool
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

// Run executes the machine's stage programs natively to completion.
// Memory side effects remain in m.Space (and m.Slots reflects any slot
// swaps), exactly as after sim.RunFunctional. m.Ctx, m.WallDeadline, and
// m.MaxTraceEntries are honored with the same sentinel errors as the
// simulator. No goroutine started here outlives the call.
func Run(m *sim.Machine, _ Options) (*Stats, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e, cores := newEngine(m)
	start := time.Now()

	disarm := e.arm()

	// The first core runs on the caller's goroutine, so a single-core
	// machine starts none.
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

	if e.failure != nil {
		return nil, e.failure
	}
	// A cancellation that raced the final stage exits still counts: the
	// simulator's amortized poll has the same property.
	if err := e.checkInterrupt(); err != nil {
		return nil, err
	}
	st := &Stats{
		Instructions: e.instrs.Load(),
		Wall:         time.Since(start),
		Leftover:     make([]int, len(e.queues)),
		Stages:       len(e.stages),
		RAs:          len(m.RAs),
		Queues:       len(e.queues),
	}
	for q := range e.queues {
		st.Leftover[q] = e.queues[q].n
	}
	// Write final slot bindings back so callers observe swaps exactly as
	// they would after a functional run.
	for i := range e.slots {
		m.Slots[i] = e.slots[i].Load()
	}
	return st, nil
}

// newEngine lowers the machine: one task per stage and per RA, grouped by
// simulated core (in order of first appearance), and one ring per queue.
func newEngine(m *sim.Machine) (*engine, [][]task) {
	e := &engine{m: m, cap: uint64(m.MaxTraceEntries), live: len(m.Stages)}
	e.cv.L = &e.mu
	if e.cap == 0 {
		e.cap = 64 << 20
	}
	e.queues = make([]queue, len(m.Queues))
	for q := range m.Queues {
		e.queues[q].buf = make([]sim.Value, m.Queues[q].Capacity(m.Cfg.QueueDepth))
	}
	e.slots = make([]atomic.Pointer[mem.Array], len(m.Slots))
	for i, a := range m.Slots {
		e.slots[i].Store(a)
	}
	if len(m.FanOuts) > 0 {
		e.fan = make([][]int, len(m.Queues))
		for _, f := range m.FanOuts {
			e.fan[f.Src] = f.Dst
		}
	}
	e.raIdx = make([]int, len(m.Queues))
	for q := range e.raIdx {
		e.raIdx[q] = -1
	}
	for i := range m.RAs {
		e.raIdx[m.RAs[i].InQ] = i
	}
	e.raSent = make([]atomic.Uint64, len(m.RAs))
	e.raDone = make([]atomic.Uint64, len(m.RAs))

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
	// goroutine; any other is shared and goes through e.mu.
	owner := make([]int, len(m.Queues))
	for q := range owner {
		owner[q] = -1
	}
	touch := func(q, core int) {
		if owner[q] < 0 {
			owner[q] = core
		} else if owner[q] != core {
			e.queues[q].shared = true
		}
	}

	// Static producer census. Every way a token can enter a queue is
	// statically known: a stage enqueue, its fan-out duplication, or an RA
	// output. Each producer retires on clean exit; a queue with none left
	// is closed, which is how an RA learns its input can never be fed again.
	for _, st := range m.Stages {
		u := st.Prog.QueueUse()
		if u.HasSwap {
			e.hasSwaps = true
		}
		x := newStageExec(e, st, u)
		for _, q := range u.Produces {
			x.prodQ = append(x.prodQ, q)
			if e.fan != nil {
				x.prodQ = append(x.prodQ, e.fan[q]...)
			}
		}
		for _, q := range x.prodQ {
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
		place(spec.Core, &raExec{e: e, idx: i, spec: spec})
	}
	// A fanned enqueue is all-or-nothing over its whole group, so the
	// group is shared as soon as one member is.
	for _, f := range m.FanOuts {
		shared := e.queues[f.Src].shared
		for _, d := range f.Dst {
			shared = shared || e.queues[d].shared
		}
		e.queues[f.Src].shared = shared
		for _, d := range f.Dst {
			e.queues[d].shared = shared
		}
	}
	e.cores = len(cores)
	return e, cores
}

// arm lets cancellation and the wall deadline fail the run from their own
// goroutines. The returned function disarms both and waits for one that
// already started, so neither outlives Run or races its reading the verdict.
func (e *engine) arm() (disarm func()) {
	var hooks sync.WaitGroup
	var stops []func() bool
	hook := func(err func() error) func() {
		hooks.Add(1)
		return func() {
			defer hooks.Done()
			e.fail(err())
		}
	}
	if ctx := e.m.Ctx; ctx != nil {
		stops = append(stops, context.AfterFunc(ctx, hook(func() error {
			return &sim.CancelledError{Phase: "native", Cause: ctx.Err()}
		})))
	}
	if d := e.m.WallDeadline; !d.IsZero() {
		stops = append(stops, time.AfterFunc(time.Until(d), hook(func() error {
			return &sim.WallBudgetError{Phase: "native"}
		})).Stop)
	}
	return func() {
		for _, stop := range stops {
			if stop() {
				hooks.Done()
			}
		}
		hooks.Wait()
	}
}

// fail records the first failure and wakes every parked core. The first
// caller wins; later failures (often knock-on effects of the abort) are
// dropped, matching the functional engine's first-error semantics.
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

// bumpInstrs flushes part of a stage's instruction count and enforces the
// livelock guard (the functional trace cap's analogue).
func (e *engine) bumpInstrs(n uint64) {
	if total := e.instrs.Add(n); total > e.cap {
		e.fail(&sim.TraceLimitError{Entries: total, Limit: e.cap})
	}
}

// checkInterrupt mirrors sim.Machine.checkInterrupt for the native phase.
func (e *engine) checkInterrupt() error {
	if e.m.Ctx != nil {
		if err := e.m.Ctx.Err(); err != nil {
			return &sim.CancelledError{Phase: "native", Cause: err}
		}
	}
	if !e.m.WallDeadline.IsZero() && time.Now().After(e.m.WallDeadline) {
		return &sim.WallBudgetError{Phase: "native"}
	}
	return nil
}

// rasQuiet reports whether every RA has fully processed every token sent
// toward it (sent counters are bumped on delivery, done counters after
// processing, and an RA feeding another RA bumps the downstream sent
// before its own done — so while any token is in flight at least one pair
// disagrees). OpSwapSlots waits for it so in-flight accelerator work
// observes pre-swap bindings, exactly like the functional engine's
// drain-then-swap.
func (e *engine) rasQuiet() bool {
	for i := range e.raSent {
		if e.raSent[i].Load() != e.raDone[i].Load() {
			return false
		}
	}
	return true
}
