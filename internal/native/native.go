// Package native executes a compiled pipeline on the host instead of
// simulating it. It is the facade over the execution engine's native
// configuration (sim.Machine.RunNative; internal/sim/engine.go describes
// the engine and its two configurations): a host goroutine stands for a
// simulated core, every stage (an SMT thread of that core) and every
// reference accelerator on it is a resumable task that the core's scheduler
// round-robins, and every architectural queue is a ring bounded at
// arch.QueueSpec.Capacity. It consumes the same post-pass sim.Machine the
// simulator runs, so any pipeline the compiler produces runs on either
// backend unchanged. A single-core machine runs entirely on the caller's
// goroutine; only replicated pipelines (one replica per core) start
// goroutines.
//
// Opcode, RA, barrier, trap and queue semantics are the functional
// simulator's because they are the same code: both bound every ring at its
// capacity, so a pipeline that overfills a queue nobody drains deadlocks
// in either (and in the timing phase); the commopt Q4 capacity argument is
// what makes compiler-sized pipelines safe (DESIGN.md §16). Failures are the
// simulator's sentinel errors (sim.ErrDeadlock, sim.ErrTrap,
// sim.ErrTraceLimit, sim.ErrCancelled). Machine.Ctx is the one way to stop
// a run early: cancel it, or give it a deadline.
package native

import (
	"fmt"
	"strings"
	"time"

	"phloem/internal/sim"
)

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

// Run executes the machine's stage programs natively to completion.
// Memory side effects remain in m.Space (and m.Slots reflects any slot
// swaps), exactly as after sim.RunFunctional. m.Ctx (cancellation and any
// deadline) and m.MaxTraceEntries are honored with the same sentinel errors
// as the simulator. No goroutine started here outlives the call.
func Run(m *sim.Machine, _ Options) (*Stats, error) {
	start := time.Now()
	instrs, leftover, err := m.RunNative()
	if err != nil {
		return nil, err
	}
	return &Stats{
		Instructions: instrs,
		Wall:         time.Since(start),
		Leftover:     leftover,
		Stages:       len(m.Stages),
		RAs:          len(m.RAs),
		Queues:       len(m.Queues),
	}, nil
}
