package isa

import "sort"

// QueueUse summarizes how a stage program interacts with the machine's
// queues and synchronization facilities. Executors other than the trace
// simulator use it to wire lifecycle decisions statically: the native
// backend closes a channel when every producing stage has halted, sizes
// per-consumer lookahead only for queues a stage actually dequeues, and
// skips barrier/slot-swap machinery for pipelines that never exercise it.
type QueueUse struct {
	// Consumes lists the queue ids this program dequeues or peeks from,
	// sorted and deduplicated.
	Consumes []int
	// Produces lists the queue ids this program enqueues to (data or
	// control), sorted and deduplicated.
	Produces []int
	// HasBarrier reports whether the program contains OpBarrier.
	HasBarrier bool
	// HasSwap reports whether the program contains OpSwapSlots.
	HasSwap bool
	// HasHandler reports whether the program registers any control-value
	// handler (OpSetHandler).
	HasHandler bool
}

// QueueUse scans the program once and returns its queue-usage summary.
func (p *Program) QueueUse() QueueUse {
	var u QueueUse
	cons := map[int]bool{}
	prod := map[int]bool{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case OpDeq, OpPeek:
			cons[in.Q] = true
		case OpEnq, OpEnqCtrl, OpEnqCtrlV:
			prod[in.Q] = true
		case OpSetHandler:
			u.HasHandler = true
		case OpBarrier:
			u.HasBarrier = true
		case OpSwapSlots:
			u.HasSwap = true
		}
	}
	u.Consumes = sortedKeys(cons)
	u.Produces = sortedKeys(prod)
	return u
}

func sortedKeys(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}
