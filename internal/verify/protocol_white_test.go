package verify

import (
	"reflect"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/isa"
	"phloem/internal/pipeline"
)

// errorsOf checks pl in m, stage i running progs[i], and returns the
// errors, the way Scratch.CheckErrors checks a lowered pipeline.
func (m *model) errorsOf(pl *pipeline.Pipeline, progs []*isa.Program) []Diag {
	m.reset(pl)
	for i, prog := range progs {
		m.addStage(i, prog)
	}
	m.analyze(false)
	errs := m.rep.Errors()
	m.drop()
	return errs
}

// ctrlvProducer sends one control value whose code is register r1: the
// constant code when constant is set, otherwise a value loaded from slot 0.
func ctrlvProducer(constant bool, code int64) *isa.Program {
	b := isa.NewBuilder("produce")
	idx := b.Const(0)
	var r isa.Reg
	if constant {
		r = b.Const(code)
	} else {
		r = b.Load(0, idx)
	}
	b.EnqCtrlV(0, r)
	b.EnqCtrl(0, arch.CtrlEnd)
	b.Halt()
	return b.MustBuild()
}

// dispatcher drains queue 0, dispatching control code `code` back to the
// loop and leaving on any other.
func dispatcher(code int64) *isa.Program {
	b := isa.NewBuilder("consume")
	b.Label("probe")
	x := b.Deq(0)
	b.BrZ(b.IsCtrl(x), "probe")
	hit := b.Op2(isa.OpICmpEQ, b.CtrlCode(x), b.Const(code))
	b.Br(hit, "probe")
	b.Halt()
	return b.MustBuild()
}

// TestScratchForgetsControlCodes: a producer that sends a constant code the
// consumer never dispatches draws C2, and one whose code register is not
// constant draws nothing (its codes are unknown). The two producers use the
// same register for the code, so a Scratch that kept the first one's
// constant registers would flag the second, and one that kept the second
// one's unknown flag would pass the first.
func TestScratchForgetsControlCodes(t *testing.T) {
	const code = arch.CtrlUser + 5
	pl := &pipeline.Pipeline{Prog: &ir.Prog{Name: "ctrlv", Slots: []ir.SlotInfo{{Name: "codes", Kind: ir.KInt}}}}
	pl.AddQueue("data")
	pl.Stages = []*pipeline.Stage{{Name: "produce"}, {Name: "consume", Thread: arch.ThreadID{Thread: 1}}}
	cases := []struct {
		name  string
		progs []*isa.Program
		c2    bool
	}{
		{"constant", []*isa.Program{ctrlvProducer(true, code+1), dispatcher(code)}, true},
		{"loaded", []*isa.Program{ctrlvProducer(false, 0), dispatcher(code)}, false},
	}
	for _, c := range cases {
		errs := new(model).errorsOf(pl, c.progs)
		c2 := false
		for _, d := range errs {
			c2 = c2 || d.Rule == "C2"
		}
		if c2 != c.c2 {
			t.Fatalf("%s: C2 = %v, want %v: %v", c.name, c2, c.c2, errs)
		}
	}
	var m model
	for _, before := range cases {
		for _, c := range cases {
			m.errorsOf(pl, before.progs)
			if got, want := m.errorsOf(pl, c.progs), new(model).errorsOf(pl, c.progs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after %s in one model: errors %v, want %v", c.name, before.name, got, want)
			}
		}
	}
}
