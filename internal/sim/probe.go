package sim

// StallClass classifies one observed core cycle for telemetry attribution.
// The classes mirror the Breakdown fields, with the same priority order the
// timing engine uses (Queue > Backend > Other for stalled cycles).
type StallClass uint8

const (
	ClassIssue StallClass = iota
	ClassBackend
	ClassQueue
	ClassOther
)

func (c StallClass) String() string {
	switch c {
	case ClassIssue:
		return "issue"
	case ClassBackend:
		return "backend"
	case ClassQueue:
		return "queue"
	}
	return "other"
}

// Probe observes timing-engine events for telemetry. Install one via
// Machine.Probe before RunTiming; every hook site is guarded by a single
// nil test, so a machine without a probe pays no observation cost and its
// Stats are bit-identical to an uninstrumented run. Probes are observers
// only: they must not mutate the machine, and the engine never consults
// them for timing decisions.
//
// Thread and RA identities are indices into Machine.Stages and Machine.RAs
// respectively; BeginTiming hands the probe the machine so it can resolve
// names, cores, and stage programs up front.
type Probe interface {
	// BeginTiming announces the machine being replayed, before cycle 0.
	BeginTiming(m *Machine)
	// Sample delivers a cumulative Stats snapshot when the simulated clock
	// first reaches a Config.TelemetryInterval boundary; snap.Cycles is the
	// sampling cycle. Idle fast-forward can skip several boundaries at once;
	// then a single sample is emitted at the post-skip cycle.
	Sample(snap *Stats)
	// QueueLen reports queue q's occupancy right after a push or pop.
	QueueLen(q, ln int, now uint64)
	// ThreadState reports the thread's activity class for cycle now: ClassIssue
	// when it issued at least one micro-op this cycle, otherwise its stall
	// class. Cycles skipped by idle fast-forward emit no calls; the last
	// reported state spans them.
	ThreadState(thread int, state StallClass, now uint64)
	// ThreadDone marks the thread's stage program as finished.
	ThreadDone(thread int, now uint64)
	// Issued reports one issued micro-op and the stage-program PC it came from.
	Issued(thread, pc int)
	// CoreCycles attributes weight observed core-cycles of the given class to
	// a representative stage-program site. For issue cycles the site is the
	// first micro-op issued that cycle; for stall cycles it is the oldest
	// blocked entry of the matching class. thread/pc are -1 when no site is
	// identifiable (the cycles still count, as unattributed).
	CoreCycles(core int, class StallClass, thread, pc int, weight uint64)
	// HandlerFire reports a control-value handler activation observed at
	// fetch on the given thread, with the PC of the firing dequeue.
	HandlerFire(thread, pc int, now uint64)
	// RAInflight reports accelerator ra's in-flight window occupancy after
	// it changed.
	RAInflight(ra, inflight int, now uint64)
	// EndTiming delivers the final Stats before RunTiming returns (also on
	// cycle-budget aborts, with the partial stats).
	EndTiming(stats *Stats)
}
