package isa

import (
	"reflect"
	"testing"
)

func TestQueueUse(t *testing.T) {
	p := &Program{
		Name: "meta",
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, Imm: 7},
			{Op: OpDeq, Dst: 1, Q: 3},
			{Op: OpPeek, Dst: 1, Q: 1},
			{Op: OpDeq, Dst: 1, Q: 3}, // duplicate: must dedup
			{Op: OpEnq, A: 0, Q: 2},
			{Op: OpEnqCtrl, Q: 5, Imm: 16},
			{Op: OpEnqCtrlV, A: 0, Q: 2}, // duplicate
			{Op: OpSetHandler, Q: 1, Target: 0},
			{Op: OpBarrier},
			{Op: OpSwapSlots, Slot: 0, Slot2: 1},
			{Op: OpHalt},
		},
		NumRegs: 2,
	}
	u := p.QueueUse()
	if want := []int{1, 3}; !reflect.DeepEqual(u.Consumes, want) {
		t.Errorf("Consumes = %v, want %v", u.Consumes, want)
	}
	if want := []int{2, 5}; !reflect.DeepEqual(u.Produces, want) {
		t.Errorf("Produces = %v, want %v", u.Produces, want)
	}
	if !u.HasBarrier || !u.HasSwap || !u.HasHandler {
		t.Errorf("flags = barrier=%v swap=%v handler=%v, want all true",
			u.HasBarrier, u.HasSwap, u.HasHandler)
	}
}

func TestQueueUseEmpty(t *testing.T) {
	p := &Program{Name: "empty", Instrs: []Instr{{Op: OpHalt}}}
	u := p.QueueUse()
	if u.Consumes != nil || u.Produces != nil || u.HasBarrier || u.HasSwap || u.HasHandler {
		t.Errorf("empty program summary not empty: %+v", u)
	}
}
