package sim

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/mem"
)

// raExec is one reference accelerator as a resumable task: each step moves
// tokens from its input queue to its output queue until the input is empty
// or the output full. This is the only place RA token semantics are
// defined: INDIRECT per-index loads, SCAN [start,end) range streaming with
// optional EmitNext group markers, control pass-through, and the trap
// conditions. An input token is consumed only once its first output has
// been delivered, so a blocked step loses nothing.
type raExec struct {
	e    *engine
	idx  int
	spec *arch.RASpec
	// pendStart carries a SCAN range's start token to its end token.
	pendStart Value
	hasStart  bool
	// scanning is set while a SCAN range streams; cur..end is what is left
	// of it, kept across steps.
	scanning bool
	cur, end int64
	// moved counts tokens consumed and delivered.
	moved uint64
}

func (r *raExec) step() (status, bool) {
	before := r.moved
	st := r.move()
	return st, r.moved != before
}

func (r *raExec) move() status {
	e, spec := r.e, r.spec
	in := &e.queues[spec.InQ]
	for {
		if r.scanning {
			// No swap can intervene while a range streams (its end token is
			// sent but not done), so this is the array the range was checked
			// against.
			arr := e.slots[spec.Slot].Load()
			for ; r.cur < r.end; r.cur++ {
				if !r.send(loadValue(arr, r.cur)) {
					return blocked
				}
				r.note(RALoad, arr, r.cur)
			}
			if spec.EmitNext {
				if !r.send(CtrlVal(spec.NextCode)) {
					return blocked
				}
				r.note(RACtrlOut, nil, 0)
			}
			r.scanning = false
			r.done()
		}
		v, ok := in.tryPeek()
		var closed bool
		if !ok {
			v, ok, closed = e.take(spec.InQ, false)
		}
		if !ok {
			if !closed {
				return blocked
			}
			// Input closed and drained: this RA can never produce again.
			e.retire([]int{spec.OutQ}, false)
			return halted
		}
		// The binding is read per token, after the token is seen: a stage on
		// another core may have swapped slots since the previous one was done.
		arr := e.slots[spec.Slot].Load()
		// out is the delivery this token causes at once (RAConsume: none).
		out := RAConsume
		switch {
		case v.Ctrl:
			if r.hasStart {
				return r.trap("control value between SCAN start/end pair")
			}
			if !r.send(v) {
				return blocked
			}
			out = RAPass
		case spec.Mode == arch.RAIndirect:
			if !arr.InBounds(v.Bits) {
				return r.trap(fmt.Sprintf("index %d out of bounds for %s (len %d)", v.Bits, arr.Name, arr.Len()))
			}
			if !r.send(loadValue(arr, v.Bits)) {
				return blocked
			}
			out = RALoad
		case !r.hasStart:
			r.pendStart, r.hasStart = v, true
		default:
			start, end := r.pendStart.Bits, v.Bits
			if start < 0 || end < start || (end > start && !arr.InBounds(end-1)) {
				return r.trap(fmt.Sprintf("scan range [%d,%d) out of bounds for %s (len %d)", start, end, arr.Name, arr.Len()))
			}
			r.hasStart, r.scanning, r.cur, r.end = false, true, start, end
		}
		if _, ok := in.tryPop(); !ok {
			e.take(spec.InQ, true)
		}
		r.moved++
		r.note(RAConsume, nil, 0)
		if out != RAConsume {
			r.note(out, arr, v.Bits)
		}
		if !r.scanning {
			r.done()
		}
	}
}

// note records one micro-event where a trace is kept; an RALoad's address
// is that of arr[idx].
func (r *raExec) note(kind uint8, arr *mem.Array, idx int64) {
	if r.e.quantum == 0 {
		return
	}
	ev := RAEvent{Kind: kind}
	if kind == RALoad {
		ev.Addr = arr.Addr(idx)
	}
	r.e.raTrace[r.idx] = addTrace(r.e.raTrace[r.idx], ev)
}

func (r *raExec) trap(msg string) status {
	r.e.fail(&TrapError{Stage: "ra:" + r.spec.Name, PC: -1, Msg: msg})
	return failed
}

// send delivers v into the output queue if it has room. RA output queues
// never fan out (validated); a chained downstream RA's sent counter is
// bumped on delivery, before this RA's done counter, preserving the
// quiesce invariant across RA chains.
func (r *raExec) send(v Value) bool {
	if !r.e.queues[r.spec.OutQ].tryPush(v) && r.e.enq(r.spec.OutQ, v, false) >= 0 {
		return false
	}
	r.moved++
	return true
}

// done marks one input token fully processed, and tells a stage on another
// core that waits in OpSwapSlots to look again.
func (r *raExec) done() {
	e := r.e
	if !e.hasSwaps {
		return
	}
	e.raDone[r.idx].Add(1)
	if e.swapWait.Load() > 0 {
		e.mu.Lock()
		e.event()
		e.mu.Unlock()
	}
}
