package workloads

import (
	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
)

// Hand-optimized ("manually pipelined") variants, written directly in the
// Phloem IR the way the Pipette paper's programmers wrote assembly-level
// pipelines. They encode application insights the compiler does not derive:
//
//   - Manual BFS merges the fringe driver and the vertex doubler into one
//     thread and exploits that the driver knows each level's exact size, so
//     no per-level control traffic flows on the scan chain (only a level-end
//     marker for the update stage).
//   - Manual SpMM streams both coordinate lists through SCAN accelerators
//     and, upon seeing one list's end-of-range control value, *skips* the
//     rest of the other list — the bespoke merge-intersect trick of Sec. VII
//     that Phloem cannot infer from serial code.

// control codes for the manual pipelines
const (
	manualLevelEnd = arch.CtrlUser + 20
	manualRangeEnd = arch.CtrlUser + 21
)

type mb struct {
	p *ir.Prog
}

func (b *mb) v(name string, k ir.Kind) ir.Var { return b.p.NewVar(name, k) }

func assign(dst ir.Var, r ir.Rval) ir.Stmt { return &ir.Assign{Dst: dst, Src: r} }
func mov(dst ir.Var, o ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalUn{Op: ir.OpMov, A: o}}
}
func fmov(dst ir.Var, o ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalUn{Op: ir.OpMov, Float: true, A: o}}
}
func bin(dst ir.Var, op ir.BinOp, a, b ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalBin{Op: op, A: a, B: b}}
}
func fbin(dst ir.Var, op ir.BinOp, a, b ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalBin{Op: op, Float: true, A: a, B: b}}
}
func deq(dst ir.Var, q int) ir.Stmt { return &ir.Assign{Dst: dst, Src: &ir.RvalDeq{Q: q}} }
func load(dst ir.Var, slot int, idx ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalLoad{Slot: slot, Idx: idx}}
}
func isctrl(dst ir.Var, o ir.Operand) ir.Stmt {
	return &ir.Assign{Dst: dst, Src: &ir.RvalUn{Op: ir.OpIsCtrl, A: o}}
}

// ManualBFS builds the hand-optimized BFS pipeline: 2 threads + 3 chained
// RAs (fringe scan -> nodes indirect -> edges scan).
func ManualBFS() (*pipeline.Pipeline, error) {
	p := &ir.Prog{Name: "bfs-manual"}
	b := &mb{p: p}
	// Slots match BFSBindings.
	nodes := 0
	edges := 1
	distances := 2
	curFringe := 3
	nextFringe := 4
	p.Slots = []ir.SlotInfo{
		{Name: "nodes", Kind: ir.KInt}, {Name: "edges", Kind: ir.KInt},
		{Name: "distances", Kind: ir.KInt}, {Name: "cur_fringe", Kind: ir.KInt},
		{Name: "next_fringe", Kind: ir.KInt},
	}
	root := b.v("root", ir.KInt)
	p.Vars[root].Param = true
	nParam := b.v("n", ir.KInt)
	p.Vars[nParam].Param = true
	p.ScalarParams = []ir.Var{root, nParam}

	pipe := &pipeline.Pipeline{Prog: p, Description: "manually pipelined (Pipette-style)"}
	qScanIn := pipe.AddQueue("scan.in")
	qScanOut := pipe.AddQueue("scan.out")
	qNodesIn := pipe.AddQueue("nodes.in")
	qNodesOut := pipe.AddQueue("nodes.out") // chained into the edges scan
	qEdgesOut := pipe.AddQueue("edges.out")
	qFb := pipe.AddQueue("fb.size")
	pipe.RAs = []arch.RASpec{
		{Name: "scan.cur_fringe", Mode: arch.RAScan, Slot: curFringe, InQ: qScanIn, OutQ: qScanOut},
		{Name: "ind.nodes", Mode: arch.RAIndirect, Slot: nodes, InQ: qNodesIn, OutQ: qNodesOut},
		{Name: "scan.edges", Mode: arch.RAScan, Slot: edges, InQ: qNodesOut, OutQ: qEdgesOut},
	}

	// Stage 0: fringe driver + vertex doubler (merged by hand).
	{
		curSize := b.v("cur_size", ir.KInt)
		i := b.v("i", ir.KInt)
		v := b.v("v", ir.KInt)
		vp1 := b.v("vp1", ir.KInt)
		cond := b.v("cond", ir.KInt)
		icond := b.v("icond", ir.KInt)
		body := []ir.Stmt{
			mov(curSize, ir.C(1)),
			&ir.Loop{ID: 0,
				Pre:  []ir.Stmt{bin(cond, ir.OpGT, ir.V(curSize), ir.C(0))},
				Cond: ir.V(cond),
				Body: []ir.Stmt{
					&ir.Enq{Q: qScanIn, Val: ir.C(0)},
					&ir.Enq{Q: qScanIn, Val: ir.V(curSize)},
					mov(i, ir.C(0)),
					&ir.Loop{ID: 1,
						Pre:  []ir.Stmt{bin(icond, ir.OpLT, ir.V(i), ir.V(curSize))},
						Cond: ir.V(icond),
						Body: []ir.Stmt{
							deq(v, qScanOut),
							&ir.Enq{Q: qNodesIn, Val: ir.V(v)},
							bin(vp1, ir.OpAdd, ir.V(v), ir.C(1)),
							&ir.Enq{Q: qNodesIn, Val: ir.V(vp1)},
							bin(i, ir.OpAdd, ir.V(i), ir.C(1)),
						},
					},
					&ir.EnqCtrl{Q: qNodesIn, Code: manualLevelEnd},
					deq(curSize, qFb),
					&ir.Swap{A: curFringe, B: nextFringe},
				},
			},
			&ir.EnqCtrl{Q: qNodesIn, Code: arch.CtrlEnd},
		}
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: "bfs-manual.driver", Body: body,
			Thread: arch.ThreadID{Core: 0, Thread: 0},
		})
	}
	// Stage 1: update, with a control-value handler for level ends.
	{
		curDist := b.v("cur_dist", ir.KInt)
		nextSize := b.v("next_size", ir.KInt)
		ngh := b.v("ngh", ir.KInt)
		old := b.v("old", ir.KInt)
		lt := b.v("lt", ir.KInt)
		code := b.v("code", ir.KInt)
		isEnd := b.v("is_end", ir.KInt)
		body := []ir.Stmt{
			mov(curDist, ir.C(1)),
			mov(nextSize, ir.C(0)),
			&ir.SetHandler{Q: qEdgesOut, Label: "handler"},
			&ir.Label{Name: "probe"},
			deq(ngh, qEdgesOut),
			load(old, distances, ir.V(ngh)),
			bin(lt, ir.OpLT, ir.V(curDist), ir.V(old)),
			&ir.If{Cond: ir.V(lt), Then: []ir.Stmt{
				&ir.Store{Slot: distances, Idx: ir.V(ngh), Val: ir.V(curDist)},
				&ir.Store{Slot: nextFringe, Idx: ir.V(nextSize), Val: ir.V(ngh)},
				bin(nextSize, ir.OpAdd, ir.V(nextSize), ir.C(1)),
			}},
			&ir.Goto{Name: "probe"},
			&ir.Label{Name: "handler"},
			assign(code, &ir.RvalHandlerVal{}),
			bin(isEnd, ir.OpEQ, ir.V(code), ir.C(manualLevelEnd)),
			&ir.If{Cond: ir.V(isEnd), Then: []ir.Stmt{
				&ir.Enq{Q: qFb, Val: ir.V(nextSize)},
				mov(nextSize, ir.C(0)),
				bin(curDist, ir.OpAdd, ir.V(curDist), ir.C(1)),
				&ir.Goto{Name: "probe"},
			}},
			&ir.Label{Name: "done"},
		}
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: "bfs-manual.update", Body: body,
			Thread: arch.ThreadID{Core: 0, Thread: 1},
		})
	}
	pipeline.Lower(pipe)
	return pipe, nil
}

// ManualSpMM builds the hand-optimized SpMM pipeline with the bespoke
// merge-intersect skip: 2 threads + 4 SCAN RAs.
func ManualSpMM() (*pipeline.Pipeline, error) {
	p := &ir.Prog{Name: "spmm-manual"}
	b := &mb{p: p}
	arows, acols, avals := 0, 1, 2
	btrows, btcols, btvals := 3, 4, 5
	out := 6
	p.Slots = []ir.SlotInfo{
		{Name: "arows", Kind: ir.KInt}, {Name: "acols", Kind: ir.KInt},
		{Name: "avals", Kind: ir.KFloat}, {Name: "btrows", Kind: ir.KInt},
		{Name: "btcols", Kind: ir.KInt}, {Name: "btvals", Kind: ir.KFloat},
		{Name: "out", Kind: ir.KFloat},
	}
	nParam := b.v("n", ir.KInt)
	p.Vars[nParam].Param = true
	p.ScalarParams = []ir.Var{nParam}

	pipe := &pipeline.Pipeline{Prog: p, Description: "manually pipelined (merge-skip)"}
	qacIn := pipe.AddQueue("acols.in")
	qacOut := pipe.AddQueue("acols.out")
	qavIn := pipe.AddQueue("avals.in")
	qavOut := pipe.AddQueue("avals.out")
	qbcIn := pipe.AddQueue("btcols.in")
	qbcOut := pipe.AddQueue("btcols.out")
	qbvIn := pipe.AddQueue("btvals.in")
	qbvOut := pipe.AddQueue("btvals.out")
	pipe.RAs = []arch.RASpec{
		{Name: "scan.acols", Mode: arch.RAScan, Slot: acols, InQ: qacIn, OutQ: qacOut,
			EmitNext: true, NextCode: manualRangeEnd},
		{Name: "scan.avals", Mode: arch.RAScan, Slot: avals, InQ: qavIn, OutQ: qavOut},
		{Name: "scan.btcols", Mode: arch.RAScan, Slot: btcols, InQ: qbcIn, OutQ: qbcOut,
			EmitNext: true, NextCode: manualRangeEnd},
		{Name: "scan.btvals", Mode: arch.RAScan, Slot: btvals, InQ: qbvIn, OutQ: qbvOut},
	}

	// Stage 0: range driver.
	{
		i := b.v("i", ir.KInt)
		j := b.v("j", ir.KInt)
		ip1 := b.v("ip1", ir.KInt)
		jp1 := b.v("jp1", ir.KInt)
		ka0 := b.v("ka0", ir.KInt)
		kaEnd := b.v("kaEnd", ir.KInt)
		kb0 := b.v("kb0", ir.KInt)
		kbEnd := b.v("kbEnd", ir.KInt)
		ci := b.v("ci", ir.KInt)
		cj := b.v("cj", ir.KInt)
		body := []ir.Stmt{
			mov(i, ir.C(0)),
			&ir.Loop{ID: 0,
				Pre:  []ir.Stmt{bin(ci, ir.OpLT, ir.V(i), ir.V(nParam))},
				Cond: ir.V(ci),
				Body: []ir.Stmt{
					bin(ip1, ir.OpAdd, ir.V(i), ir.C(1)),
					load(ka0, arows, ir.V(i)),
					load(kaEnd, arows, ir.V(ip1)),
					mov(j, ir.C(0)),
					&ir.Loop{ID: 1,
						Pre:  []ir.Stmt{bin(cj, ir.OpLT, ir.V(j), ir.V(nParam))},
						Cond: ir.V(cj),
						Body: []ir.Stmt{
							bin(jp1, ir.OpAdd, ir.V(j), ir.C(1)),
							load(kb0, btrows, ir.V(j)),
							load(kbEnd, btrows, ir.V(jp1)),
							&ir.Enq{Q: qacIn, Val: ir.V(ka0)},
							&ir.Enq{Q: qacIn, Val: ir.V(kaEnd)},
							&ir.Enq{Q: qavIn, Val: ir.V(ka0)},
							&ir.Enq{Q: qavIn, Val: ir.V(kaEnd)},
							&ir.Enq{Q: qbcIn, Val: ir.V(kb0)},
							&ir.Enq{Q: qbcIn, Val: ir.V(kbEnd)},
							&ir.Enq{Q: qbvIn, Val: ir.V(kb0)},
							&ir.Enq{Q: qbvIn, Val: ir.V(kbEnd)},
							bin(j, ir.OpAdd, ir.V(j), ir.C(1)),
						},
					},
					bin(i, ir.OpAdd, ir.V(i), ir.C(1)),
				},
			},
		}
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: "spmm-manual.driver", Body: body,
			Thread: arch.ThreadID{Core: 0, Thread: 0},
		})
	}
	// Stage 1: merge-intersect with the end-of-run skip.
	{
		i := b.v("mi", ir.KInt)
		j := b.v("mj", ir.KInt)
		acc := b.v("acc", ir.KFloat)
		ca := b.v("ca", ir.KInt)
		cb := b.v("cb", ir.KInt)
		av := b.v("av", ir.KFloat)
		bv := b.v("bv", ir.KFloat)
		junk := b.v("junk", ir.KFloat)
		t1 := b.v("t1", ir.KInt)
		t2 := b.v("t2", ir.KInt)
		t3 := b.v("t3", ir.KInt)
		prod := b.v("prod", ir.KFloat)
		idx := b.v("idx", ir.KInt)
		nz := b.v("nz", ir.KInt)
		fzero := ir.Operand{IsConst: true, Imm: 0} // 0.0 bits == 0
		body := []ir.Stmt{
			mov(i, ir.C(0)),
			mov(j, ir.C(0)),
			&ir.Label{Name: "cell"},
			fmov(acc, fzero),
			deq(ca, qacOut),
			deq(cb, qbcOut),
			&ir.Label{Name: "loop"},
			isctrl(t1, ir.V(ca)),
			&ir.If{Cond: ir.V(t1), Then: []ir.Stmt{ // A exhausted: skip rest of B
				&ir.Label{Name: "skipb"},
				isctrl(t2, ir.V(cb)),
				&ir.If{Cond: ir.V(t2), Then: []ir.Stmt{&ir.Goto{Name: "celldone"}}},
				deq(junk, qbvOut),
				deq(cb, qbcOut),
				&ir.Goto{Name: "skipb"},
			}},
			isctrl(t2, ir.V(cb)),
			&ir.If{Cond: ir.V(t2), Then: []ir.Stmt{ // B exhausted: skip rest of A
				&ir.Label{Name: "skipa"},
				isctrl(t3, ir.V(ca)),
				&ir.If{Cond: ir.V(t3), Then: []ir.Stmt{&ir.Goto{Name: "celldone"}}},
				deq(junk, qavOut),
				deq(ca, qacOut),
				&ir.Goto{Name: "skipa"},
			}},
			bin(t3, ir.OpEQ, ir.V(ca), ir.V(cb)),
			&ir.If{Cond: ir.V(t3), Then: []ir.Stmt{
				deq(av, qavOut),
				deq(bv, qbvOut),
				fbin(prod, ir.OpMul, ir.V(av), ir.V(bv)),
				fbin(acc, ir.OpAdd, ir.V(acc), ir.V(prod)),
				deq(ca, qacOut),
				deq(cb, qbcOut),
				&ir.Goto{Name: "loop"},
			}},
			bin(t3, ir.OpLT, ir.V(ca), ir.V(cb)),
			&ir.If{Cond: ir.V(t3), Then: []ir.Stmt{
				deq(junk, qavOut),
				deq(ca, qacOut),
				&ir.Goto{Name: "loop"},
			}},
			deq(junk, qbvOut),
			deq(cb, qbcOut),
			&ir.Goto{Name: "loop"},
			&ir.Label{Name: "celldone"},
			&ir.Assign{Dst: nz, Src: &ir.RvalBin{Op: ir.OpNE, Float: true, A: ir.V(acc), B: fzero}},
			&ir.If{Cond: ir.V(nz), Then: []ir.Stmt{
				bin(idx, ir.OpMul, ir.V(i), ir.V(nParam)),
				bin(idx, ir.OpAdd, ir.V(idx), ir.V(j)),
				&ir.Store{Slot: out, Idx: ir.V(idx), Val: ir.V(acc)},
			}},
			bin(j, ir.OpAdd, ir.V(j), ir.C(1)),
			bin(t1, ir.OpEQ, ir.V(j), ir.V(nParam)),
			&ir.If{Cond: ir.V(t1), Then: []ir.Stmt{
				mov(j, ir.C(0)),
				bin(i, ir.OpAdd, ir.V(i), ir.C(1)),
			}},
			bin(t2, ir.OpLT, ir.V(i), ir.V(nParam)),
			&ir.If{Cond: ir.V(t2), Then: []ir.Stmt{&ir.Goto{Name: "cell"}}},
		}
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: "spmm-manual.merge", Body: body,
			Thread: arch.ThreadID{Core: 0, Thread: 1},
		})
	}
	pipeline.Lower(pipe)
	return pipe, nil
}
