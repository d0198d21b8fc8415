package sim

import (
	"errors"
	"fmt"
	"strings"

	"phloem/internal/arch"
)

// Structured simulation errors. Every way a simulation can fail maps to one
// of four sentinel classes so callers (the autotuner, the CLI tools, chaos
// tests) can classify failures with errors.Is without string matching:
//
//	ErrDeadlock    — no thread or RA can make progress (carries a wait-for
//	                 snapshot naming who blocks on what)
//	ErrCycleBudget — the timing phase exceeded Machine.Cfg.CycleBudget
//	                 (carries the partial stats accumulated so far)
//	ErrTraceLimit  — the functional phase exceeded its trace cap (the
//	                 livelock guard: the program makes progress but never
//	                 terminates within budget)
//	ErrTrap        — a functional trap: out-of-bounds access, division by
//	                 zero, or a queue-protocol violation
//	ErrCancelled   — the run was cancelled cooperatively through
//	                 Machine.Ctx (carries the context's cause)
//	ErrWallBudget  — the run exceeded the wall-clock deadline set via
//	                 Machine.WallDeadline
var (
	ErrDeadlock    = errors.New("sim: deadlock")
	ErrCycleBudget = errors.New("sim: cycle budget exceeded")
	ErrTraceLimit  = errors.New("sim: trace limit exceeded")
	ErrTrap        = errors.New("sim: functional trap")
	ErrCancelled   = errors.New("sim: cancelled")
	ErrWallBudget  = errors.New("sim: wall-clock budget exceeded")
)

// QueueWait is one queue's occupancy in a wait-for snapshot.
type QueueWait struct {
	Q    int
	Name string
	Len  int
	Cap  int // 0 in functional snapshots (queues grow there)
}

func (q QueueWait) String() string {
	if q.Cap > 0 {
		return fmt.Sprintf("q%d(%s) %d/%d", q.Q, q.Name, q.Len, q.Cap)
	}
	return fmt.Sprintf("q%d(%s) len=%d", q.Q, q.Name, q.Len)
}

// StageWait is one unfinished stage in a wait-for snapshot.
type StageWait struct {
	Stage  string
	Thread arch.ThreadID
	// State classifies the block: "deq-empty", "enq-full", "barrier",
	// "mem", "window-empty", "in-flight", or "other".
	State string
	// Queue is the queue the stage blocks on (nil unless State is a queue
	// state).
	Queue *QueueWait
	// PC is the blocked instruction's program counter (-1 if unknown).
	PC int32
	// Fetched/Total report trace progress (timing) or instruction progress
	// (functional: Fetched is the pc, Total the program length).
	Fetched int
	Total   int
	// Retired is the per-thread retire watermark: how many trace entries
	// this thread has retired (timing phase only).
	Retired uint64
}

func (w StageWait) String() string {
	s := fmt.Sprintf("%s on %s: %s", w.Stage, w.Thread, w.State)
	if w.Queue != nil {
		s += " at " + w.Queue.String()
	}
	if w.PC >= 0 {
		s += fmt.Sprintf(" pc=%d", w.PC)
	}
	s += fmt.Sprintf(" progress=%d/%d retired=%d", w.Fetched, w.Total, w.Retired)
	return s
}

// RAWait is one reference accelerator's occupancy in a wait-for snapshot.
type RAWait struct {
	Name string
	// Inflight/Window report outstanding-request window occupancy.
	Inflight int
	Window   int
	// Next describes the next pending micro-event ("consume", "load",
	// "pass", or "done" when the event trace is exhausted).
	Next string
	In   QueueWait
	Out  QueueWait
}

func (w RAWait) String() string {
	return fmt.Sprintf("ra:%s window=%d/%d next=%s in=%s out=%s",
		w.Name, w.Inflight, w.Window, w.Next, w.In.String(), w.Out.String())
}

// WaitForSnapshot captures, at the moment a deadlock is declared, which
// stage is blocked on which queue (full or empty), every RA's window
// occupancy, and per-thread retire watermarks.
type WaitForSnapshot struct {
	// Phase is "functional", "timing", or "native".
	Phase string
	// Cycle is the simulated cycle of the snapshot (timing phase only).
	Cycle  uint64
	Stages []StageWait
	RAs    []RAWait
	// Queues dumps every queue's occupancy.
	Queues []QueueWait
}

func (s *WaitForSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s wait-for snapshot", s.Phase)
	if s.Phase == "timing" {
		fmt.Fprintf(&sb, " at cycle %d", s.Cycle)
	}
	for _, w := range s.Stages {
		sb.WriteString("\n  ")
		sb.WriteString(w.String())
	}
	for _, w := range s.RAs {
		sb.WriteString("\n  ")
		sb.WriteString(w.String())
	}
	if len(s.Queues) > 0 {
		sb.WriteString("\n  queues:")
		for _, q := range s.Queues {
			sb.WriteString(" " + q.String())
		}
	}
	return sb.String()
}

// DeadlockError reports that the simulation can make no further progress.
type DeadlockError struct {
	Snapshot *WaitForSnapshot
	// IdleCycles is how many cycles the timing engine idled before
	// declaring the deadlock (0 for functional deadlocks, which are
	// detected immediately).
	IdleCycles uint64
}

func (e *DeadlockError) Error() string {
	msg := "sim: " + e.Snapshot.Phase + " deadlock"
	if e.IdleCycles > 0 {
		msg += fmt.Sprintf(" (no progress for %d cycles)", e.IdleCycles)
	}
	return msg + ": " + e.Snapshot.String()
}

func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// CycleBudgetError reports that the timing phase ran past the configured
// hard cycle budget. Stats holds the partial statistics accumulated up to
// the abort point (cycles, stall breakdowns, cache counters), so callers
// can still inspect how the aborted run spent its time.
type CycleBudgetError struct {
	Budget uint64
	Cycles uint64
	Stats  *Stats
}

func (e *CycleBudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget exceeded: %d cycles > budget %d", e.Cycles, e.Budget)
}

func (e *CycleBudgetError) Is(target error) bool { return target == ErrCycleBudget }

// TraceLimitError reports that the functional phase generated more trace
// entries than allowed — the livelock guard for programs that keep making
// progress without terminating.
type TraceLimitError struct {
	Entries uint64
	Limit   uint64
}

func (e *TraceLimitError) Error() string {
	return fmt.Sprintf("sim: trace limit exceeded (%d entries > limit %d); livelocked program or input too large",
		e.Entries, e.Limit)
}

func (e *TraceLimitError) Is(target error) bool { return target == ErrTraceLimit }

// CancelledError reports that the run was aborted because Machine.Ctx was
// cancelled. The context poll is amortized (see interruptCheckPeriod), so
// Cycles records where the abort was observed, not where cancellation was
// requested. Stats holds the partial timing statistics accumulated up to
// the abort point (nil for functional-phase aborts).
type CancelledError struct {
	// Phase is "functional", "timing", or "native".
	Phase string
	// Cycles is the simulated cycle at the abort (0 outside the timing phase).
	Cycles uint64
	// Cause is the context's Err(): context.Canceled or
	// context.DeadlineExceeded.
	Cause error
	Stats *Stats
}

func (e *CancelledError) Error() string {
	if e.Phase == "timing" {
		return fmt.Sprintf("sim: cancelled during timing phase at cycle %d: %v", e.Cycles, e.Cause)
	}
	return fmt.Sprintf("sim: cancelled during %s phase: %v", e.Phase, e.Cause)
}

func (e *CancelledError) Is(target error) bool { return target == ErrCancelled }

func (e *CancelledError) Unwrap() error { return e.Cause }

// WallBudgetError reports that the run exceeded Machine.WallDeadline — the
// wall-clock analogue of CycleBudgetError. Stats holds the partial timing
// statistics accumulated up to the abort (nil for functional-phase aborts).
type WallBudgetError struct {
	// Phase is "functional", "timing", or "native".
	Phase string
	// Cycles is the simulated cycle at the abort (0 outside the timing phase).
	Cycles uint64
	Stats  *Stats
}

func (e *WallBudgetError) Error() string {
	if e.Phase == "timing" {
		return fmt.Sprintf("sim: wall-clock budget exceeded during timing phase at cycle %d", e.Cycles)
	}
	return fmt.Sprintf("sim: wall-clock budget exceeded during %s phase", e.Phase)
}

func (e *WallBudgetError) Is(target error) bool { return target == ErrWallBudget }

// TrapError reports a functional trap with the faulting stage and pc.
type TrapError struct {
	Stage string
	PC    int
	Msg   string
}

func (e *TrapError) Error() string {
	switch {
	case e.Stage == "":
		return "sim: " + e.Msg
	case e.PC < 0:
		return fmt.Sprintf("sim: %s: %s", e.Stage, e.Msg)
	default:
		return fmt.Sprintf("sim: %s@%d: %s", e.Stage, e.PC, e.Msg)
	}
}

func (e *TrapError) Is(target error) bool { return target == ErrTrap }
