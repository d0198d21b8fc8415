package verify_test

// Golden-file test of the rendered diagnostic output: one deliberately
// broken pipeline per rule, with the exact "sev [RULE] location: message"
// lines pinned in testdata/diags.golden. Regenerate with
//
//	go test ./internal/verify -run TestGoldenDiagnostics -update
//
// after an intentional message change, and review the diff.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/verify"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenFixtures() []*fx {
	var out []*fx

	q1 := cleanPipe()
	q1.p.Name = "q1"
	q1.stage("q1.consume2", q1.drainLoop(0, q1.slot("out2", ir.KInt))...)
	out = append(out, q1)

	q2 := newFx("q2")
	q2base := q2.slot("base", ir.KInt)
	q2q := q2.pipe.AddQueue("loopback")
	q2.pipe.RAs = append(q2.pipe.RAs, arch.RASpec{
		Name: "ind.self", Mode: arch.RAIndirect, Slot: q2base, InQ: q2q, OutQ: q2q,
	})
	x := q2.v("x", ir.KInt)
	q2.stage("q2.buffer", &ir.Enq{Q: q2q, Val: ir.C(1)}, deq(x, q2q))
	out = append(out, q2)

	q3 := newFx("q3")
	q3out := q3.slot("out", ir.KInt)
	qa := q3.pipe.AddQueue("a2b")
	qb := q3.pipe.AddQueue("b2a")
	a := q3.v("a", ir.KInt)
	at := q3.v("at", ir.KInt)
	q3.stage("q3.a",
		&ir.Label{Name: "probe"},
		deq(a, qb),
		isctrl(at, ir.V(a)),
		&ir.If{Cond: ir.V(at), Then: []ir.Stmt{&ir.Goto{Name: "done"}}},
		&ir.Enq{Q: qa, Val: ir.V(a)},
		&ir.Goto{Name: "probe"},
		&ir.Label{Name: "done"},
	)
	bv := q3.v("b", ir.KInt)
	bt := q3.v("bt", ir.KInt)
	q3.stage("q3.b",
		&ir.Label{Name: "probe"},
		deq(bv, qa),
		isctrl(bt, ir.V(bv)),
		&ir.If{Cond: ir.V(bt), Then: []ir.Stmt{&ir.Goto{Name: "done"}}},
		&ir.Store{Slot: q3out, Idx: ir.V(bv), Val: ir.V(bv)},
		&ir.Enq{Q: qb, Val: ir.V(bv)},
		&ir.Goto{Name: "probe"},
		&ir.Label{Name: "done"},
	)
	out = append(out, q3)

	c1 := newFx("c1")
	c1out := c1.slot("out", ir.KInt)
	c1q := c1.pipe.AddQueue("data")
	c1.stage("c1.produce", c1.countedEnqs(c1q)...)
	c1x := c1.v("x", ir.KInt)
	c1i := c1.v("i", ir.KInt)
	c1c := c1.v("cond", ir.KInt)
	c1.stage("c1.consume",
		mov(c1i, ir.C(0)),
		&ir.Loop{ID: 91,
			Pre:  []ir.Stmt{bin(c1c, ir.OpLT, ir.V(c1i), ir.C(5))},
			Cond: ir.V(c1c),
			Body: []ir.Stmt{
				deq(c1x, c1q),
				&ir.Store{Slot: c1out, Idx: ir.V(c1x), Val: ir.V(c1x)},
				bin(c1i, ir.OpAdd, ir.V(c1i), ir.C(1)),
			},
		},
	)
	out = append(out, c1)

	c2 := newFx("c2")
	c2out := c2.slot("out", ir.KInt)
	c2q := c2.pipe.AddQueue("data")
	c2body := append([]ir.Stmt{&ir.EnqCtrl{Q: c2q, Code: fixtureCode}}, c2.countedEnqs(c2q)...)
	c2.stage("c2.produce", c2body...)
	c2.stage("c2.consume", c2.dispatchConsumer(c2q, c2out, fixtureCode+1)...)
	out = append(out, c2)

	d0 := newFx("d0")
	d0.stage("d0.broken", &ir.Goto{Name: "nowhere"})
	out = append(out, d0)

	d1 := newFx("d1")
	d1out := d1.slot("out", ir.KInt)
	u := d1.v("u", ir.KInt)
	y := d1.v("y", ir.KInt)
	d1.stage("d1.undef",
		bin(y, ir.OpAdd, ir.V(u), ir.C(1)),
		&ir.Store{Slot: d1out, Idx: ir.C(0), Val: ir.V(y)},
	)
	out = append(out, d1)

	d2 := newFx("d2")
	d2out := d2.slot("out", ir.KFloat)
	fv := d2.v("fv", ir.KFloat)
	d2y := d2.v("y", ir.KInt)
	d2.stage("d2.kinds",
		mov(fv, ir.C(0)),
		bin(d2y, ir.OpAdd, ir.V(fv), ir.C(1)),
		&ir.Store{Slot: d2out, Idx: ir.V(d2y), Val: ir.V(fv)},
	)
	out = append(out, d2)

	d4 := newFx("d4")
	d4out := d4.slot("out", ir.KInt)
	d4.stage("d4.dead",
		&ir.Goto{Name: "end"},
		&ir.Store{Slot: d4out, Idx: ir.C(0), Val: ir.C(1)},
		&ir.Label{Name: "end"},
	)
	out = append(out, d4)

	d5 := newFx("d5")
	d5.stage("d5.spin", &ir.Label{Name: "top"}, &ir.Goto{Name: "top"})
	out = append(out, d5)

	l1 := cleanPipe()
	l1.p.Name = "l1"
	l1.pipe.AddQueue("orphan")
	out = append(out, l1)

	l2 := newFx("l2")
	l2q := l2.pipe.AddQueue("data")
	l2.stage("l2.produce", l2.countedEnqs(l2q)...)
	out = append(out, l2)

	l3 := newFx("l3")
	l3out := l3.slot("out", ir.KInt)
	l3q := l3.pipe.AddQueue("data")
	l3.stage("l3.consume", l3.drainLoop(l3q, l3out)...)
	out = append(out, l3)

	l4 := newFx("l4")
	l4out := l4.slot("out", ir.KInt)
	l4q := l4.pipe.AddQueue("data")
	l4f := l4.v("fv", ir.KFloat)
	l4.stage("l4.produce",
		&ir.Assign{Dst: l4f, Src: &ir.RvalUn{Op: ir.OpMov, Float: true, A: ir.C(0)}},
		&ir.Enq{Q: l4q, Val: ir.V(l4f)},
		&ir.EnqCtrl{Q: l4q, Code: arch.CtrlEnd},
	)
	l4.stage("l4.consume", l4.drainLoop(l4q, l4out)...)
	out = append(out, l4)

	e1 := newFx("e1")
	e1out := e1.slot("out", ir.KInt)
	e1.stage("e1.w1", store(e1out, 0, 1))
	e1.stage("e1.w2", store(e1out, 1, 2))
	out = append(out, e1)

	e2 := newFx("e2")
	e2out := e2.slot("out", ir.KInt)
	e2sink := e2.slot("sink", ir.KInt)
	e2x := e2.v("x", ir.KInt)
	e2.stage("e2.writer", store(e2out, 0, 1))
	e2.stage("e2.reader", load(e2x, e2out, 0),
		&ir.Store{Slot: e2sink, Idx: ir.C(0), Val: ir.V(e2x)})
	out = append(out, e2)

	e3 := newFx("e3")
	e3base := e3.slot("base", ir.KInt)
	e3out := e3.slot("out2", ir.KInt)
	e3qin := e3.pipe.AddQueue("idx")
	e3qout := e3.pipe.AddQueue("vals")
	e3.pipe.RAs = append(e3.pipe.RAs, arch.RASpec{
		Name: "ind.base", Mode: arch.RAIndirect, Slot: e3base, InQ: e3qin, OutQ: e3qout,
	})
	e3.stage("e3.feed",
		store(e3base, 0, 7),
		&ir.Enq{Q: e3qin, Val: ir.C(0)},
		&ir.EnqCtrl{Q: e3qin, Code: arch.CtrlEnd},
	)
	e3.stage("e3.drain", e3.drainLoop(e3qout, e3out)...)
	out = append(out, e3)

	e4 := newFx("e4")
	e4a := e4.slot("a", ir.KInt)
	e4b := e4.slot("b", ir.KInt)
	e4.p.Alias = &ir.AliasInfo{Pairs: map[[2]string]ir.AliasVerdict{
		ir.PairKey("a", "b"): ir.AliasMayConflict,
	}}
	e4.stage("e4.w1", store(e4a, 0, 1))
	e4.stage("e4.w2", store(e4b, 0, 2))
	out = append(out, e4)

	return out
}

func TestGoldenDiagnostics(t *testing.T) {
	var sb strings.Builder
	for _, f := range goldenFixtures() {
		rep := verify.Check(f.pipe)
		fmt.Fprintf(&sb, "== %s\n%s", f.p.Name, rep.String())
	}
	got := sb.String()

	path := filepath.Join("testdata", "diags.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s (run with -update after intentional changes)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestCheckErrorsMatchesCheck pins CheckErrors, which skips the cost model's
// warning-only rules, to the errors of the full report: one fixture per
// rule, plus an undersized queue that draws W1, also through one reused
// Scratch. The swap fixture swaps the slot that e1 writes twice, beside an
// E1 write of its own: a Scratch that kept its swap flags would exempt e1's
// slot when e1 comes after it. (Stale constant registers and control-code
// sets need an enq_ctrl of a register, which the IR cannot express; see
// TestScratchForgetsControlCodes.)
func TestCheckErrorsMatchesCheck(t *testing.T) {
	w1 := cleanPipe()
	w1.pipe.Queues[0].Depth = 1
	swap := newFx("swap")
	sa := swap.slot("a", ir.KInt)
	sb := swap.slot("b", ir.KInt)
	sout := swap.slot("out", ir.KInt)
	swap.stage("swap.w1", store(sa, 0, 1), store(sout, 0, 1), &ir.Swap{A: sa, B: sb})
	swap.stage("swap.w2", store(sa, 1, 2), store(sout, 1, 2))
	requireRule(t, verify.Check(swap.pipe), "E1", verify.SevError)
	fixtures := append(goldenFixtures(), w1, swap)
	for _, f := range fixtures {
		rep := verify.Check(f.pipe)
		got := verify.CheckErrors(f.pipe)
		if want := rep.Errors(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CheckErrors = %v, want %v", f.p.Name, got, want)
		}
	}
	// A Scratch checks every pipeline right after every other one, the
	// fixtures and each family's pass-ablation pipelines: what an earlier
	// pipeline left in it must not reach a later one's errors.
	dispatch := newFx("dispatch")
	dq := dispatch.pipe.AddQueue("data")
	dout := dispatch.slot("out", ir.KInt)
	dispatch.stage("dispatch.produce", append([]ir.Stmt{&ir.EnqCtrl{Q: dq, Code: fixtureCode}}, dispatch.countedEnqs(dq)...)...)
	dispatch.stage("dispatch.consume", dispatch.dispatchConsumer(dq, dout, fixtureCode)...)
	var pipes []*pipeline.Pipeline
	for _, f := range append(fixtures, dispatch) {
		pipes = append(pipes, f.pipe)
	}
	for _, bm := range workloads.Benchmarks(workloads.ScaleTest) {
		for _, pc := range passConfigs {
			pipes = append(pipes, compileVariant(t, bm.SerialSource, pc.po, pc.ablate))
		}
	}
	want := make([][]verify.Diag, len(pipes))
	for i, pl := range pipes {
		want[i] = verify.Check(pl).Errors()
	}
	var s verify.Scratch
	for _, before := range pipes {
		for i, pl := range pipes {
			s.CheckErrors(before)
			if got := s.CheckErrors(pl); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s after %s in one Scratch: CheckErrors = %v, want %v", pl.Prog.Name, before.Prog.Name, got, want[i])
			}
		}
	}
	requireRule(t, verify.Check(w1.pipe), "W1", verify.SevWarning)
}
