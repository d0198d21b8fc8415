package verify

// White-box coverage for rules only reachable from hand-written ISA (the IR
// lowering never emits peek, so D6 cannot fire through Check's flatten path).

import (
	"testing"

	"phloem/internal/ir"
	"phloem/internal/isa"
	"phloem/internal/pipeline"
)

func modelFor(prog *isa.Program, numQueues int) *model {
	pl := &pipeline.Pipeline{Prog: &ir.Prog{Name: "white"}}
	for i := 0; i < numQueues; i++ {
		pl.AddQueue("q")
	}
	pl.Stages = []*pipeline.Stage{{Name: prog.Name}}
	m := newModel(pl)
	m.addStage(0, prog)
	return m
}

func TestD6PeekWithoutDeq(t *testing.T) {
	b := isa.NewBuilder("peeker")
	r := b.Peek(0)
	b.Br(r, "spin")
	b.Label("spin")
	b.Halt()
	m := modelFor(b.MustBuild(), 1)
	m.checkDataflow()
	want := "warning [D6] peeker@0 q0(q): queue is peeked but never dequeued in this stage"
	for _, d := range m.rep.Diags {
		if d.Rule == "D6" {
			if got := d.String(); got != want {
				t.Fatalf("D6 renders as %q, want %q", got, want)
			}
			return
		}
	}
	t.Fatalf("expected D6 warning, got:\n%s", m.rep.String())
}

func TestD6PeekWithDeqIsClean(t *testing.T) {
	b := isa.NewBuilder("peeker")
	r := b.Peek(0)
	b.Br(r, "take")
	b.Label("take")
	b.Deq(0)
	b.Halt()
	m := modelFor(b.MustBuild(), 1)
	m.checkDataflow()
	for _, d := range m.rep.Diags {
		if d.Rule == "D6" {
			t.Fatalf("unexpected D6:\n%s", m.rep.String())
		}
	}
}
