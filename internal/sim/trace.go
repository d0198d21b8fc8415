package sim

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
	// Leftover[q] counts tokens still in queue q at program end. A correct
	// pipeline protocol drains every queue; leftovers indicate an over-send
	// (and would deadlock bounded timing queues).
	Leftover []int
}

// addTrace appends one entry to a trace, doubling a full one's capacity
// (512 entries at least). Traces reach millions of entries, and append's
// ~1.25x growth policy for large slices reallocates-and-copies several times
// more bytes over a run than doubling does; that regrowth was the
// autotuner's dominant allocation site.
func addTrace[E any](s []E, e E) []E {
	if len(s) == cap(s) {
		next := make([]E, len(s), max(512, 2*cap(s)))
		copy(next, s)
		s = next
	}
	return append(s, e)
}
