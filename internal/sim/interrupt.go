package sim

// interruptCheckPeriod amortizes the cooperative cancellation poll in the
// timing engine's cycle loop: Machine.Ctx is checked at most once every
// this many simulated cycles (the functional phase checks once per
// scheduler round instead, which bounds the poll to one per
// len(threads)*funcQuantum instructions). The period trades abort latency
// against poll overhead; at 4096 cycles both are negligible.
const interruptCheckPeriod = 4096

// checkInterrupt polls Machine.Ctx, the run's one cooperative abort source
// (a deadline is a context deadline). phase and cycles annotate the
// returned error.
func (m *Machine) checkInterrupt(phase string, cycles uint64) error {
	if m.Ctx != nil {
		if err := m.Ctx.Err(); err != nil {
			return &CancelledError{Phase: phase, Cycles: cycles, Cause: err}
		}
	}
	return nil
}
