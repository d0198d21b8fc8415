package isa

import (
	"reflect"
	"testing"
)

func TestCFGSuccessors(t *testing.T) {
	b := NewBuilder("cfg")
	r := b.Const(1) // 0
	b.Br(r, "skip") // 1 -> 2, 3
	b.Enq(0, r)     // 2
	b.Label("skip") //
	b.Jmp("end")    // 3 -> 4
	b.Label("end")  //
	b.Halt()        // 4
	p := b.MustBuild()
	want := [][]int{{1}, {2, 3}, {3}, {4}, nil}
	got := p.CFG()
	for pc := range want {
		if !reflect.DeepEqual(got[pc], want[pc]) && !(len(got[pc]) == 0 && len(want[pc]) == 0) {
			t.Fatalf("pc %d: successors %v, want %v", pc, got[pc], want[pc])
		}
	}
}

func TestCFGHandlerEdges(t *testing.T) {
	b := NewBuilder("handler")
	b.SetHandler(0, "h") // 0
	b.Deq(0)             // 1 -> 2 and handler 3
	b.Halt()             // 2
	b.Label("h")
	b.Halt() // 3
	p := b.MustBuild()
	succs := p.CFG()
	want := []int{2, 3}
	if !reflect.DeepEqual(succs[1], want) {
		t.Fatalf("deq successors %v, want %v (fallthrough + handler)", succs[1], want)
	}
	// A deq on an unhandled queue gets no handler edge.
	b2 := NewBuilder("nohandler")
	b2.Deq(1)
	b2.Halt()
	p2 := b2.MustBuild()
	if got := p2.CFG()[0]; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("unhandled deq successors %v, want [1]", got)
	}
}

func TestReachable(t *testing.T) {
	b := NewBuilder("reach")
	b.Jmp("end")   // 0
	b.Const(7)     // 1 (dead)
	b.Label("end") //
	b.Halt()       // 2
	p := b.MustBuild()
	got := Reachable(p.CFG())
	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reachable %v, want %v", got, want)
	}
}
