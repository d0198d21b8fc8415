// Package arch describes the Pipette-style machine that Phloem targets: SMT
// out-of-order cores extended with architecturally visible queues, reference
// accelerators (RAs), and control values with hardware handlers (Sec. III of
// the paper). The package holds configuration and the structural description
// of a machine instance; the cycle-level behaviour lives in internal/sim.
package arch

import (
	"fmt"

	"phloem/internal/cache"
)

// Config holds the machine parameters. Defaults follow Table III.
type Config struct {
	// Cores is the number of OOO cores (1 or 4 in the paper).
	Cores int
	// ThreadsPerCore is the SMT width (4 in the paper).
	ThreadsPerCore int
	// IssueWidth is micro-ops issued per cycle per core (6-wide, Skylake-like).
	IssueWidth int
	// FetchWidth is instructions fetched into the window per cycle per thread.
	FetchWidth int
	// WindowSize is the per-thread reorder window (instructions in flight).
	WindowSize int
	// MaxQueues is the number of architecturally visible queues (16).
	MaxQueues int
	// QueueDepth is the capacity of each queue in elements (up to 24).
	QueueDepth int
	// MaxRAs is the number of reference accelerators per core (4).
	MaxRAs int
	// RAOutstanding is the number of in-flight memory requests per RA.
	RAOutstanding int
	// MSHRs bounds a core's outstanding L1 misses (fill buffers); the SMT
	// threads share them, while reference accelerators have their own
	// request slots — a key reason RA offloading wins.
	MSHRs int
	// MispredictPenalty is the fetch-redirect cost of a branch mispredict.
	MispredictPenalty uint64
	// HandlerRedirectPenalty is the fetch-redirect cost when a control-value
	// handler fires (cheap: the core jumps without any squash of good work).
	HandlerRedirectPenalty uint64
	// CycleBudget aborts the timing phase once the simulated clock passes
	// this many cycles (0 = unlimited). The run fails with a structured
	// error carrying partial statistics, so searches can bound pathological
	// candidates instead of hanging on them.
	CycleBudget uint64
	// IdleLimit is how many cycles the timing engine tolerates without any
	// progress before declaring a deadlock (0 = the default of ~1M).
	// Deadlock tests lower it to fail fast.
	IdleLimit uint64
	// TelemetryInterval is the sampling period, in cycles, for interval
	// time-series when a telemetry probe is installed (0 = no periodic
	// samples). It has no effect on timing results, only on observation.
	TelemetryInterval uint64
	// Mem is the memory hierarchy configuration.
	Mem cache.HierarchyConfig
}

// DefaultConfig returns the Table III configuration for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:                  cores,
		ThreadsPerCore:         4,
		IssueWidth:             6,
		FetchWidth:             6,
		WindowSize:             128,
		MaxQueues:              16,
		QueueDepth:             24,
		MaxRAs:                 4,
		RAOutstanding:          16,
		MSHRs:                  10,
		MispredictPenalty:      14,
		HandlerRedirectPenalty: 2,
		Mem:                    cache.DefaultConfig(cores),
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("arch: cores must be >= 1, got %d", c.Cores)
	case c.ThreadsPerCore < 1:
		return fmt.Errorf("arch: threads/core must be >= 1, got %d", c.ThreadsPerCore)
	case c.IssueWidth < 1 || c.FetchWidth < 1:
		return fmt.Errorf("arch: issue/fetch width must be >= 1")
	case c.WindowSize < 1:
		return fmt.Errorf("arch: window size must be >= 1")
	case c.QueueDepth < 1:
		return fmt.Errorf("arch: queue depth must be >= 1")
	}
	return nil
}

// Control-value codes used by generated and hand-written pipelines. Codes are
// in-band 64-bit payloads of control-tagged queue entries; these well-known
// values cover the protocols the compiler emits. Codes at or above CtrlUser
// are available to hand-written pipelines.
const (
	// CtrlNext ends one group of values (e.g., one vertex's edge list, one
	// inner-loop instance). CtrlNext+k ends the group at nesting depth k
	// (CtrlNext itself is the innermost spanning level).
	CtrlNext int64 = 0
	// CtrlNextOuter ends a group one level further out.
	CtrlNextOuter int64 = 1
	// CtrlEnd terminates the whole stream: the consumer stage should finish.
	CtrlEnd int64 = 16
	// CtrlPhase separates program phases flowing through a queue.
	CtrlPhase int64 = 17
	// CtrlUser is the first code free for application-specific protocols.
	CtrlUser int64 = 32
)

// RAMode selects how a reference accelerator interprets its input queue
// (Table I: setup_reference_accelerator).
type RAMode int

const (
	// RAIndirect treats each input value as an index into the base array.
	RAIndirect RAMode = iota
	// RAScan treats pairs of input values as [start, end) index ranges and
	// streams the elements of the base array in that range.
	RAScan
)

func (m RAMode) String() string {
	if m == RAIndirect {
		return "INDIRECT"
	}
	return "SCAN"
}

// RASpec configures one reference accelerator. RAs interpose on the queue
// interface: they consume from InQ and produce to OutQ. Chaining RAs is
// expressed by making one RA's OutQ another RA's InQ.
type RASpec struct {
	// Name is a human-readable identifier.
	Name string
	// Mode is INDIRECT or SCAN.
	Mode RAMode
	// Slot is the array slot of the base array.
	Slot int
	// InQ and OutQ are the input and output queue ids.
	InQ, OutQ int
	// EmitNext, for SCAN mode, appends a control value with code NextCode
	// after each scanned range. Inter-stage DCE (pass 6) turns this off
	// when no downstream consumer needs group boundaries.
	EmitNext bool
	// NextCode is the control code emitted when EmitNext is set.
	NextCode int64
	// Core is the core whose cache port the RA uses.
	Core int
}

func (r RASpec) String() string {
	s := fmt.Sprintf("RA %s: %s slot=%d q%d->q%d", r.Name, r.Mode, r.Slot, r.InQ, r.OutQ)
	if r.EmitNext {
		s += " +next"
	}
	return s
}

// QueueSpec describes one architectural queue and its endpoints, used for
// pipeline validation (each queue must have exactly one consumer; producers
// may be several threads or an RA).
type QueueSpec struct {
	Name  string
	Depth int // 0 means the machine default
}

// Capacity resolves the queue's bounded capacity for an executor: the
// author Depth when positive, otherwise the machine default. Both the
// timing simulator and the native backend size their buffers through this,
// so a Depth override is honored identically by every backend.
func (q QueueSpec) Capacity(defaultDepth int) int {
	if q.Depth > 0 {
		return q.Depth
	}
	return defaultDepth
}

// FanOut names a queue multicast: Src's data values also delivered to each
// queue in Dst. The machine implements none, so Pipeline.FanOuts is always
// empty and Instantiate rejects a pipeline that lists one.
type FanOut struct {
	Src int
	Dst []int
}

// ThreadID identifies one hardware thread.
type ThreadID struct {
	Core   int
	Thread int
}

func (t ThreadID) String() string { return fmt.Sprintf("c%d.t%d", t.Core, t.Thread) }
