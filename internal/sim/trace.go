package sim

import (
	"math/bits"
	"sync"
)

// Trace flags recorded by the functional phase for the timing phase.
const (
	// FlagTaken marks a conditional branch that was taken.
	FlagTaken uint8 = 1 << iota
	// FlagCtrlDeq marks a Deq/Peek that observed a control value.
	FlagCtrlDeq
	// FlagHandlerFire marks a Deq that fired a control-value handler: the
	// next trace entry is the handler's first instruction and the timing
	// model charges the handler redirect penalty.
	FlagHandlerFire
)

// TEntry is one dynamic instruction in a thread's trace. The static
// instruction (opcode, registers, queue, slot) is found via PC in the stage
// program; the entry carries only the dynamic facts timing needs.
type TEntry struct {
	// Addr is the byte address for loads/stores (0 otherwise).
	Addr uint64
	// PC indexes the stage program.
	PC int32
	// Flags holds Flag* bits.
	Flags uint8
}

// RA trace event kinds (see raKind in TraceSet.RA).
const (
	// RAConsume pops one token from the RA's input queue.
	RAConsume uint8 = iota
	// RALoad issues one memory access at Addr and, when it completes,
	// delivers one token to the output queue (in order).
	RALoad
	// RAPass delivers one token to the output queue without a memory access
	// (control values flow through RAs unchanged).
	RAPass
	// RACtrlOut delivers one control token generated by the RA itself
	// (SCAN end-of-range markers when EmitNext is set).
	RACtrlOut
)

// RAEvent is one micro-event in a reference accelerator's trace.
type RAEvent struct {
	Addr uint64
	Kind uint8
}

// TraceSet is the functional phase's output: everything the timing phase
// needs to replay the execution.
type TraceSet struct {
	// Threads[i] is the dynamic trace of Machine.Stages[i].
	Threads [][]TEntry
	// RA[j] is the micro-event trace of Machine.RAs[j].
	RA [][]RAEvent
	// Instructions is the total dynamic instruction count across threads.
	Instructions uint64
	// Leftover[q] counts tokens still in queue q at program end, at most its
	// capacity: a producer that over-sends past it blocks on the full ring
	// and the run deadlocks instead. A correct pipeline protocol drains
	// every queue; leftovers indicate an over-send.
	Leftover []int
}

// The functional phase's traces are recycled through capacity-class free
// lists: class k holds buffers of exactly 512<<k elements. Machine.Run
// hands its traces back after the replay. A trace starts in a buffer of
// 512 entries and, each time it fills its buffer, moves to the smallest
// listed buffer at least twice as large (best fit), so a short trace never
// takes the large buffer a concurrent long trace needs, and a steady stream
// of runs (the autotuner's candidates) writes into buffers earlier runs
// left without allocating 16 bytes per dynamic instruction again. A
// TraceSet that RunFunctional returns belongs to its caller, and its
// buffers neither come from the lists nor go back to them: a process that
// only collects traces (a functional oracle before native runs) would
// otherwise keep about twice its largest traces for good.
var (
	stageTraces bufPool[TEntry]
	raTraces    bufPool[RAEvent]
)

// poolClasses bounds the classes: 512<<39 elements is past any trace cap.
const poolClasses = 40

// freeCap caps every free list. A buffer of class k is only made when no
// buffer of class k or above is listed, so the buffers of class k and above
// never outnumber the most of them in use at once, and a list never holds
// more than freeCap.
const freeCap = 8

// freeList is a mutex-guarded stack of recycled items. Unlike a sync.Pool
// it survives garbage collection, so what a run allocates does not depend
// on when the collector last ran.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops an item; ok is false when the list is empty.
func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		// Clear the slot: a buffer the caller drops must not stay
		// reachable through the list.
		x, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

// put pushes x, or drops it for the collector when the list is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	if len(l.items) < freeCap {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// cleared returns buf zeroed at length n, allocating if it is too short:
// how a recycled buffer is made ready for its next run.
func cleared[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bufPool holds one free list per capacity class.
type bufPool[E any] [poolClasses]freeList[[]E]

// bufClass returns the class of capacity c, or -1 if c is not a class
// capacity.
func bufClass(c int) int {
	k := bits.Len(uint(c>>9)) - 1
	if k < 0 || k >= poolClasses || c != 512<<k {
		return -1
	}
	return k
}

// alloc returns an empty buffer of capacity at least n, a class capacity:
// the smallest buffer listed that holds n, or else a new one of capacity n.
// A nil pool always allocates.
func (p *bufPool[E]) alloc(n int) []E {
	if p != nil {
		for k := bufClass(n); k < poolClasses; k++ {
			if b, ok := p[k].get(); ok {
				return b[:0]
			}
		}
	}
	return make([]E, 0, n)
}

// put hands s back for reuse; the caller must not touch it afterwards. A
// nil pool drops s for the collector.
func (p *bufPool[E]) put(s []E) {
	if k := bufClass(cap(s)); p != nil && k >= 0 {
		p[k].put(s[:0])
	}
}

// addTrace appends one entry to a trace. A full trace moves to a buffer of
// at least twice its capacity (512 entries at first) and hands its old
// buffer back to its free list at once. Traces reach millions of entries,
// and doubling copies fewer bytes over a run than append's ~1.25x growth for
// large slices does.
func addTrace[E any](p *bufPool[E], s []E, e E) []E {
	if len(s) == cap(s) {
		s = p.grow(s)
	}
	return append(s, e)
}

// grow moves the full trace s into a buffer of at least twice its capacity.
func (p *bufPool[E]) grow(s []E) []E {
	next := p.alloc(max(512, 2*cap(s)))[:len(s)]
	copy(next, s)
	p.put(s)
	return next
}

// recycle hands every trace of ts back to the free lists. Only the owner of a
// TraceSet that nothing else references may call it.
func (ts *TraceSet) recycle() {
	for _, t := range ts.Threads {
		stageTraces.put(t)
	}
	for _, r := range ts.RA {
		raTraces.put(r)
	}
}
