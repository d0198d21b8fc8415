package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"phloem/internal/pipeline"
	"phloem/internal/sim"
)

// TrainFunc measures a candidate pipeline on one training input under a
// budget, returning the cycle count (or an error to skip the candidate).
// Implementations apply the budget to the instantiated machine with
// Budget.Apply before running.
type TrainFunc func(*pipeline.Pipeline, Budget) (uint64, error)

// DefaultBudgetFactor is the per-candidate budget multiplier over the
// serial baseline: a candidate that has not finished after this many times
// the serial cycle count cannot be the best pipeline and is aborted.
const DefaultBudgetFactor = 8

// Budget bounds one candidate measurement so pathological candidates
// (timing deadlocks, livelocks, exponential blowups) abort quickly with a
// structured error instead of hanging the search.
type Budget struct {
	// Cycles aborts the timing phase past this count (0 = unlimited).
	Cycles uint64
	// Trace caps functional-trace entries — the livelock guard, since the
	// functional phase runs before any cycle is simulated (0 = simulator
	// default).
	Trace int
	// Ctx, when non-nil, cancels the measurement cooperatively: the
	// simulator polls it at amortized intervals and aborts with
	// sim.ErrCancelled. A background context changes nothing.
	Ctx context.Context
}

// Apply configures a machine with the budget.
func (b Budget) Apply(m *sim.Machine) {
	if b.Cycles > 0 {
		m.Cfg.CycleBudget = b.Cycles
	}
	if b.Trace > 0 {
		m.MaxTraceEntries = b.Trace
	}
	if b.Ctx != nil {
		m.Ctx = b.Ctx
	}
}

// candidateBudget derives the per-candidate budget from the serial
// baseline. The trace cap is proportionally larger than the cycle budget
// because trace entries track instructions, which outnumber cycles on a
// wide core. A negative factor disables budgeting; zero selects the
// default.
func candidateBudget(serialCycles uint64, factor int) Budget {
	if factor < 0 {
		return Budget{}
	}
	if factor == 0 {
		factor = DefaultBudgetFactor
	}
	// Both multiplications saturate: a huge serial baseline must yield an
	// effectively unlimited budget, never a silently wrapped tiny one.
	f := uint64(factor)
	cycles := serialCycles * f
	if serialCycles != 0 && cycles/f != serialCycles {
		cycles = math.MaxUint64
	}
	tr := cycles * 8
	if cycles > math.MaxUint64/8 {
		tr = math.MaxUint64
	}
	if tr > math.MaxInt32 {
		tr = math.MaxInt32
	}
	return Budget{Cycles: cycles, Trace: int(tr)}
}

// SkipReason classifies why the autotuner dropped a candidate.
type SkipReason int

const (
	// SkipBuild: the pipelining passes rejected the point subset.
	SkipBuild SkipReason = iota
	// SkipVerifier: the static pipeline verifier found the build broken.
	SkipVerifier
	// SkipDeadlock: the candidate deadlocked in simulation.
	SkipDeadlock
	// SkipBudget: the candidate exceeded its cycle budget or trace limit.
	SkipBudget
	// SkipTrap: the candidate hit a functional trap (out-of-bounds access,
	// division by zero, protocol violation).
	SkipTrap
	// SkipPanic: building or measuring the candidate panicked.
	SkipPanic
	// SkipError: any other measurement failure (e.g. a verify mismatch).
	SkipError
	// SkipPruned: the Options.TopK rank phase statically predicted the
	// candidate cannot win and excluded it from simulation.
	SkipPruned
	// SkipCancelled: the search was cancelled (Options.Ctx, or its
	// deadline expired) before this candidate could be measured.
	SkipCancelled
)

func (r SkipReason) String() string {
	switch r {
	case SkipBuild:
		return "build"
	case SkipVerifier:
		return "verifier"
	case SkipDeadlock:
		return "deadlock"
	case SkipBudget:
		return "budget"
	case SkipTrap:
		return "trap"
	case SkipPanic:
		return "panic"
	case SkipPruned:
		return "pruned"
	case SkipCancelled:
		return "cancelled"
	default:
		return "error"
	}
}

// ParseSkipReason maps a SkipReason.String() rendering back to the reason —
// the inverse used when replaying checkpoint-journal entries. The second
// result is false for unknown strings.
func ParseSkipReason(s string) (SkipReason, bool) {
	switch s {
	case "build":
		return SkipBuild, true
	case "verifier":
		return SkipVerifier, true
	case "deadlock":
		return SkipDeadlock, true
	case "budget":
		return SkipBudget, true
	case "trap":
		return SkipTrap, true
	case "panic":
		return SkipPanic, true
	case "pruned":
		return SkipPruned, true
	case "cancelled":
		return SkipCancelled, true
	case "error":
		return SkipError, true
	}
	return SkipError, false
}

// CandidateSkip records one candidate the search dropped, with the phase
// and point subset that identify it and the structured cause.
type CandidateSkip struct {
	Phase  int
	Subset []int
	Reason SkipReason
	Err    error
}

func (s CandidateSkip) String() string {
	return fmt.Sprintf("phase %d subset %v: %s: %v", s.Phase, s.Subset, s.Reason, s.Err)
}

// panicError wraps a recovered panic value from candidate build/measure.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// ErrVerify tags static-verifier rejections (see finishPipeline) so they
// classify as SkipVerifier wherever they surface.
var ErrVerify = errors.New("fails static verification")

// classify maps a candidate failure to a skip reason using the simulator's
// sentinel error classes.
func classify(err error) SkipReason {
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		return SkipPanic
	case errors.Is(err, ErrVerify):
		return SkipVerifier
	case errors.Is(err, sim.ErrDeadlock):
		return SkipDeadlock
	case errors.Is(err, sim.ErrCycleBudget), errors.Is(err, sim.ErrTraceLimit):
		return SkipBudget
	case errors.Is(err, sim.ErrTrap):
		return SkipTrap
	case errors.Is(err, sim.ErrCancelled):
		return SkipCancelled
	}
	return SkipError
}

// timingIndependent reports whether a measurement failure cannot depend on
// the cycle budget: traps and functional-trace limits fire during functional
// simulation, before a single cycle is timed, so the same failure occurs
// under any Budget.Cycles value. Deadlocks and cycle-budget aborts are
// timing-phase outcomes and are NOT timing-independent.
func timingIndependent(err error) bool {
	return errors.Is(err, sim.ErrTraceLimit) || errors.Is(err, sim.ErrTrap)
}

// errBudget is the canonical cycle-budget skip error. Budget skips are
// recorded without cycle counts: the exact abort cycle depends on the
// branch-and-bound bound in force when the candidate ran, which a parallel
// worker may observe at a stale (looser) value than the serial order
// prescribes. The abort *verdict* is monotone in the bound — aborting under
// a looser bound implies aborting under the exact one — but the counts are
// not, so a canonical record is what lets the merger keep budget aborts
// verbatim instead of re-measuring every one under the exact bound.
var errBudget = fmt.Errorf("core: training cycle budget exhausted: %w", sim.ErrCycleBudget)

// errCancelled is the canonical cancellation skip error. Like budget skips,
// cancellation skips are recorded without cycle or phase detail: a parallel
// worker may observe the cancel at any point in its measurement, so only a
// canonical record keeps skip lists identical across Parallelism levels once
// the set of cancelled candidates is fixed.
var errCancelled = fmt.Errorf("core: search cancelled before candidate finished training: %w", sim.ErrCancelled)

// measureAll runs every training input, charging all of them against one
// cumulative cycle bound (0 = unlimited): input i runs with the cycles the
// earlier inputs left over, and once the total reaches the bound the
// remaining inputs are not simulated at all. The bound is what
// branch-and-bound tightens — a candidate whose running total passes the
// best-known total cannot win, so it aborts with a budget error. bound is
// re-evaluated before each input so long measurements pick up tightening
// published while they run; it must be non-increasing across calls.
//
// base supplies the per-input trace cap and context; base.Cycles is
// superseded by bound. On error the returned cycle count is the total
// accumulated before the failing (or skipped) input.
func measureAll(pipe *pipeline.Pipeline, opt Options, base Budget, bound func() uint64) (uint64, error) {
	var total uint64
	for _, train := range opt.Training {
		if base.Ctx != nil && base.Ctx.Err() != nil {
			return total, errCancelled
		}
		bn := bound()
		if bn > 0 && total >= bn {
			return total, errBudget
		}
		b := base
		if bn > 0 {
			b.Cycles = bn - total
		}
		c, err := train(pipe, b)
		if err != nil {
			return total, err
		}
		total += c
	}
	return total, nil
}

// tryMeasure is measureAll under panic recovery, so a crashing candidate
// cannot take down the whole search.
func tryMeasure(pipe *pipeline.Pipeline, opt Options, base Budget, bound func() uint64) (cycles uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			cycles, err = 0, &panicError{val: r}
		}
	}()
	return measureAll(pipe, opt, base, bound)
}
