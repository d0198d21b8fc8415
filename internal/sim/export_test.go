package sim

// RunFunctionalQuantum is RunFunctional with another turn length, for
// TestTraceScheduleIndependent.
func (m *Machine) RunFunctionalQuantum(quantum uint64) (*TraceSet, error) {
	return m.runFunctional(quantum, false)
}
