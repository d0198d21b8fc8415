package sim

// RunFunctionalQuantum is RunFunctional with another turn length, for
// TestTraceScheduleIndependent.
func (m *Machine) RunFunctionalQuantum(quantum uint64) (*TraceSet, error) {
	return m.runFunctional(quantum, false)
}

// DirectQueues reports, per queue, whether an enqueue in the native
// configuration takes the ring fast path (queue.direct), for
// TestSingleCoreQueuesDirect.
func (m *Machine) DirectQueues() []bool {
	e, _ := newEngine(m, "native", 0)
	direct := make([]bool, len(e.queues))
	for i := range e.queues {
		direct[i] = e.queues[i].direct
	}
	return direct
}
