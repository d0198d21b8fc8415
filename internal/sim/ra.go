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
//
// Where the configuration allows it (burstScan, burstIndirect: set by
// newEngine), the common case moves in bursts first: the rest of an open
// SCAN range, or a run of data indices, straight into the output ring as
// far as it has room. A burst makes no decision the per-token path would
// make differently; whatever it declines — a control value, an
// out-of-bounds index, a full ring — is left to that path, which stays the
// one definition of trap text, control pass-through and EmitNext.
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

	burstScan, burstIndirect bool
}

func (r *raExec) step() (status, bool) {
	before := r.moved
	st := r.move()
	return st, r.moved != before
}

func (r *raExec) move() status {
	e, spec := r.e, r.spec
	in, out := &e.queues[spec.InQ], &e.queues[spec.OutQ]
	for {
		if r.scanning {
			// No swap of this RA's slot can intervene while a range streams
			// (the RA is not quiet until its end token is finished), so
			// this is the array the range was checked against.
			arr := e.slots[spec.Slot].Load()
			if r.burstScan {
				r.scanBurst(arr, out)
			}
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
		if r.burstIndirect {
			r.indirectBurst(in, out)
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
		// kind is the delivery this token causes at once (RAConsume: none).
		kind := RAConsume
		switch {
		case v.Ctrl:
			if r.hasStart {
				return r.trap("control value between SCAN start/end pair")
			}
			if !r.send(v) {
				return blocked
			}
			kind = RAPass
		case spec.Mode == arch.RAIndirect:
			if !arr.InBounds(v.Bits) {
				return r.trap(fmt.Sprintf("index %d out of bounds for %s (len %d)", v.Bits, arr.Name, arr.Len()))
			}
			if !r.send(loadValue(arr, v.Bits)) {
				return blocked
			}
			kind = RALoad
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
		if kind != RAConsume {
			r.note(kind, arr, v.Bits)
		}
		if !r.scanning {
			r.done()
		}
	}
}

// scanBurst streams as much of the open SCAN range as out has room for.
// The range was bounds-checked against arr when it opened.
func (r *raExec) scanBurst(arr *mem.Array, out *queue) {
	k := min(r.end-r.cur, int64(len(out.buf)-out.n))
	for stop := r.cur + k; r.cur < stop; r.cur++ {
		out.put(loadValue(arr, r.cur))
	}
	r.moved += uint64(k)
}

// indirectBurst moves the run of in-bounds data indices at the head of in
// into out, as far as out has room, under one slot read: swaps are not
// counted, so any swapper runs on this goroutine and none can land between
// the run's tokens.
func (r *raExec) indirectBurst(in, out *queue) {
	arr := r.e.slots[r.spec.Slot].Load()
	for k := min(in.n, len(out.buf)-out.n); k > 0; k-- {
		v := in.buf[in.head]
		if v.Ctrl || !arr.InBounds(v.Bits) {
			return
		}
		in.get()
		out.put(loadValue(arr, v.Bits))
		r.moved += 2
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
	r.e.raTrace[r.idx] = addTrace(r.e.raBufs, r.e.raTrace[r.idx], ev)
}

func (r *raExec) trap(msg string) status {
	r.e.fail(&TrapError{Stage: "ra:" + r.spec.Name, PC: -1, Msg: msg})
	return failed
}

// send delivers v into the output queue if it has room. A chained
// downstream RA's sent counter is bumped on delivery, before this RA's
// done counter, preserving the quiesce invariant across RA chains.
func (r *raExec) send(v Value) bool {
	if !r.e.queues[r.spec.OutQ].tryPush(v) && !r.e.enq(r.spec.OutQ, v) {
		return false
	}
	r.moved++
	return true
}

// done marks one input token fully processed, and tells a stage on another
// core that waits in OpSwapSlots to look again (counted swaps only).
func (r *raExec) done() {
	e := r.e
	if !e.counted {
		return
	}
	e.raDone[r.idx].Add(1)
	if e.swapWait.Load() > 0 {
		e.mu.Lock()
		e.event()
		e.mu.Unlock()
	}
}
