// Package passes implements Phloem's pipelining passes (Sec. IV-B): decouple
// + add queues, recompute, accelerate accesses (reference accelerators with
// chaining), control values, control-value handlers, and inter-stage dead
// code elimination, plus pipeline replication (Sec. IV-C).
//
// The passes operate on a per-phase plan: the decoupling points split the
// loop nest into stage regions; liveness determines the value bundles that
// cross each boundary and the loop level (rate) at which each value is sent;
// the later passes rewrite the plan (trimming bundles, offloading loads to
// RAs, switching the framing protocol); finally codegen emits each stage's
// IR from the plan.
//
// Inter-stage framing protocols (in increasing order of sophistication):
//
//   - flag mode ("add queues" only): the producer precedes every group and
//     item with a 1 flag on the boundary queue and terminates each loop
//     level with a 0 flag; the consumer mirrors the loop structure with
//     while(deq) loops. This is the functionally correct but slow pipeline
//     of pass 1.
//   - control-value mode: flags disappear; group ends are in-band control
//     values (CtrlNext+depth), the stream ends with CtrlEnd, and the
//     consumer tests is_control() after each item (pass 4). With handlers
//     (pass 5) the explicit test disappears: the hardware redirects to the
//     stage's dispatch block when a control value is about to be dequeued.
//   - inter-stage DCE (pass 6) removes group-end control values for loop
//     levels no consumer acts on.
package passes

import (
	"fmt"

	"phloem/internal/analysis"
	"phloem/internal/ir"
)

// Options selects which passes run (Fig. 6's ablation knobs). The zero value
// is pass-1-only ("add queues"); Default() enables everything.
type Options struct {
	Recompute     bool // pass 2
	RAs           bool // pass 3 (includes chaining/glue elision)
	CtrlValues    bool // pass 4
	Handlers      bool // pass 5 (requires CtrlValues)
	InterstageDCE bool // pass 6 (requires CtrlValues)
}

// Default returns all passes enabled.
func Default() Options {
	return Options{Recompute: true, RAs: true, CtrlValues: true, Handlers: true, InterstageDCE: true}
}

func (o Options) String() string {
	s := "Q"
	if o.Recompute {
		s += ",R"
	}
	if o.RAs {
		s += ",RA"
	}
	if o.CtrlValues {
		s += ",CV"
	}
	if o.Handlers {
		s += ",CH"
	}
	if o.InterstageDCE {
		s += ",DCE"
	}
	return s
}

// stageOf maps statements and loops of one phase's nest to stage indices.
type plan struct {
	p      *ir.Prog
	nest   *ir.Loop
	points []*analysis.Candidate
	n      int // number of stages

	stmtStage map[ir.Stmt]int
	loopOwner map[*ir.Loop]int
	loopDepth map[*ir.Loop]int
	// pointChain[k] is the loop chain containing point k (outermost first);
	// boundary k (between stage k-1 and k) spans exactly these loops.
	pointChain [][]*ir.Loop

	// bundles[k][d] lists the values crossing boundary k (1..n-1) at loop
	// depth d (1-based).
	bundles [][][]ir.Var
	// feedback lists values defined in a later stage and used in an earlier
	// one, carried on dedicated queues.
	feedback []feedbackVal

	// live holds the liveness tables, among them defStage and defDepth:
	// per variable of the nest, the last stage that defines it (-1: none)
	// and the loop depth of its last definition.
	live *liveScratch

	affine map[ir.Var]analysis.AffineDef

	// preamble handling
	preamblePure []ir.Stmt       // pure scalar init statements (replicated)
	preambleS0   []ir.Stmt       // statements pinned to stage 0
	preambleVars map[ir.Var]bool // vars defined in the pure preamble
	onceVals     [][]ir.Var      // per boundary: level-0 values sent once
	pinnedStmts  map[ir.Stmt]int // loop-control statements pinned to a stage
	storedSlots  map[int]bool
	swappedSlots map[int]bool
	// hoisted maps naively-communicated index temporaries (pass 1 without
	// recompute) to their defining statements, emitted at the crossing.
	hoisted  map[ir.Var]*ir.Assign
	opt      Options
	phaseIdx int
}

type feedbackVal struct {
	v        ir.Var
	from, to int
	depth    int // loop depth of the carrying loop
	loop     *ir.Loop
}

func (pl *plan) stageOfStmt(s ir.Stmt) int {
	if st, ok := pl.pinnedStmts[s]; ok {
		return st
	}
	return pl.stmtStage[s]
}

// assignStages walks the nest in traversal order, bumping the stage counter
// at each decoupling point. Loop-control statements (counted-loop
// increments) are pinned to the loop's owner.
func (pl *plan) assignStages(s *Scratch) error {
	stmts, loops := countNest([]ir.Stmt{pl.nest})
	s.stmtStage = emptyMap(s.stmtStage, stmts)
	s.loopOwner = emptyMap(s.loopOwner, loops)
	s.loopDepth = emptyMap(s.loopDepth, loops)
	s.pinnedStmts = emptyMap(s.pinnedStmts, 0)
	pl.stmtStage, pl.loopOwner, pl.loopDepth, pl.pinnedStmts = s.stmtStage, s.loopOwner, s.loopDepth, s.pinnedStmts
	pl.pointChain = make([][]*ir.Loop, pl.n)

	pointIdx := map[ir.Stmt]int{}
	for k, c := range pl.points {
		pointIdx[c.Stmt] = k + 1 // boundary k+1 starts stage k+1
	}

	cur := 0
	var chain []*ir.Loop
	var walk func(list []ir.Stmt) error
	walk = func(list []ir.Stmt) error {
		for _, s := range list {
			if b, ok := pointIdx[s]; ok {
				if b != cur+1 {
					return fmt.Errorf("passes: decoupling points out of traversal order (boundary %d reached at stage %d)", b, cur)
				}
				cur = b
				pl.pointChain[b] = append([]*ir.Loop(nil), chain...)
			}
			switch s := s.(type) {
			case *ir.If:
				// Decoupling points never sit inside conditionals; the whole
				// subtree belongs to the current stage.
				pl.stmtStage[s] = cur
				pl.assignSubtree(s.Then, cur, len(chain))
				pl.assignSubtree(s.Else, cur, len(chain))
			case *ir.Loop:
				pl.loopOwner[s] = cur
				pl.loopDepth[s] = len(chain) + 1
				pl.stmtStage[s] = cur
				pl.assignSubtree(s.Pre, cur, len(chain))
				chain = append(chain, s)
				// Pin the counted increment to the owner: the for-lowering
				// puts `i = i + 1` at the body's end, which would otherwise
				// land in the last stage.
				owner := cur
				if s.Counted != nil {
					if inc := findIncrement(s); inc != nil {
						pl.pinnedStmts[inc] = owner
					}
				}
				if err := walk(s.Body); err != nil {
					return err
				}
				chain = chain[:len(chain)-1]
				// Pre statements evaluate at every iteration under the
				// owner's control.
				pl.pinSubtree(s.Pre, owner)
			default:
				pl.stmtStage[s] = cur
			}
		}
		return nil
	}
	if err := walk([]ir.Stmt{pl.nest}); err != nil {
		return err
	}
	if cur != pl.n-1 {
		return fmt.Errorf("passes: %d points produced %d stages, expected %d", len(pl.points), cur+1, pl.n)
	}
	return nil
}

// emptyMap returns m emptied, or a new map with room for hint entries when
// m is nil.
func emptyMap[K comparable, V any](m map[K]V, hint int) map[K]V {
	if m == nil {
		return make(map[K]V, hint)
	}
	clear(m)
	return m
}

// countNest counts the statements of list and its nested lists, and the
// loops among them, so that the maps assignStages fills are made once.
func countNest(list []ir.Stmt) (stmts, loops int) {
	for _, s := range list {
		stmts++
		switch s := s.(type) {
		case *ir.If:
			ts, tl := countNest(s.Then)
			es, el := countNest(s.Else)
			stmts, loops = stmts+ts+es, loops+tl+el
		case *ir.Loop:
			ps, pl := countNest(s.Pre)
			bs, bl := countNest(s.Body)
			stmts, loops = stmts+ps+bs, loops+1+pl+bl
		}
	}
	return stmts, loops
}

// assignSubtree assigns every statement in a fully-owned subtree to stage.
func (pl *plan) assignSubtree(list []ir.Stmt, stage, depth int) {
	for _, s := range list {
		pl.stmtStage[s] = stage
		switch s := s.(type) {
		case *ir.If:
			pl.assignSubtree(s.Then, stage, depth)
			pl.assignSubtree(s.Else, stage, depth)
		case *ir.Loop:
			pl.loopOwner[s] = stage
			pl.loopDepth[s] = depth + 1
			for _, ps := range s.Pre {
				pl.stmtStage[ps] = stage
			}
			pl.assignSubtree(s.Body, stage, depth+1)
		}
	}
}

// pinSubtree pins a statement subtree to a stage.
func (pl *plan) pinSubtree(list []ir.Stmt, stage int) {
	for _, s := range list {
		pl.pinnedStmts[s] = stage
		switch s := s.(type) {
		case *ir.If:
			pl.pinSubtree(s.Then, stage)
			pl.pinSubtree(s.Else, stage)
		case *ir.Loop:
			pl.pinSubtree(s.Pre, stage)
			pl.pinSubtree(s.Body, stage)
		}
	}
}

// findIncrement locates the final `ind = ind + 1` statement of a counted
// loop's body.
func findIncrement(lp *ir.Loop) ir.Stmt {
	for i := len(lp.Body) - 1; i >= 0; i-- {
		if a, ok := lp.Body[i].(*ir.Assign); ok && a.Dst == lp.Counted.Ind {
			if bin, ok := a.Src.(*ir.RvalBin); ok && bin.Op == ir.OpAdd &&
				!bin.A.IsConst && bin.A.Var == lp.Counted.Ind &&
				bin.B.IsConst && bin.B.Imm == 1 {
				return a
			}
		}
	}
	return nil
}
