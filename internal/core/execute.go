package core

import (
	"fmt"
	"time"

	"phloem/internal/native"
	"phloem/internal/pipeline"
)

// Backend selects the engine an instantiated pipeline executes on when a
// caller (phloemsim, the bench harness) runs it through core.
type Backend int

const (
	// BackendSim is the cycle-accurate simulator: functional phase for
	// semantics, timing phase for the performance model. The default.
	BackendSim Backend = iota
	// BackendNative runs the same stage programs on the host — one
	// goroutine per simulated core, its stages and RAs as resumable tasks,
	// one bounded ring per queue. No cycle model: it reports wall time and instruction
	// counts, and exists for functional results at scales the timing
	// simulator cannot reach in budget (see internal/native).
	BackendNative
)

func (b Backend) String() string {
	switch b {
	case BackendSim:
		return "sim"
	case BackendNative:
		return "native"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps the -backend flag spelling onto a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sim":
		return BackendSim, nil
	case "native":
		return BackendNative, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (sim|native)", s)
	}
}

// ExecStats normalizes the two backends' run results. Cycles is zero under
// BackendNative (there is no cycle model to consult); Instructions is the
// dynamic micro-op count on both, and the two backends must agree on it
// for the same machine — that equality is part of the differential
// contract internal/native's tests enforce.
type ExecStats struct {
	Backend      Backend
	Cycles       uint64
	Instructions uint64
	Wall         time.Duration
	// Report is the backend's human-readable run summary.
	Report string
}

// Execute runs an instantiated pipeline on the selected backend. Both
// paths honor Machine.Ctx, Machine.WallDeadline, and MaxTraceEntries, and
// fail with the same sentinel error classes (sim.ErrDeadlock, ErrTrap,
// ErrCancelled, ...), so exit-code mapping and retry logic are
// backend-agnostic.
func Execute(inst *pipeline.Instance, b Backend) (*ExecStats, error) {
	start := time.Now()
	switch b {
	case BackendSim:
		st, err := inst.Run()
		if err != nil {
			return nil, err
		}
		return &ExecStats{
			Backend:      b,
			Cycles:       st.Cycles,
			Instructions: st.Instructions,
			Wall:         time.Since(start),
			Report:       st.String(),
		}, nil
	case BackendNative:
		st, err := native.Run(inst.Machine, native.Options{})
		if err != nil {
			return nil, err
		}
		return &ExecStats{
			Backend:      b,
			Instructions: st.Instructions,
			Wall:         st.Wall,
			Report:       st.String(),
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown backend %v", b)
	}
}
