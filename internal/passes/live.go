package passes

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"phloem/internal/analysis"
	"phloem/internal/ir"
)

// defInfo records one definition site of a variable.
type defInfo struct {
	stage int
	depth int
	loop  *ir.Loop // enclosing loop (nil at depth 0)
}

// varDef is a definition site of v, as the walk meets it.
type varDef struct {
	v ir.Var
	defInfo
}

// liveScratch is what computeLiveness keeps per variable, in slices indexed
// by ir.Var (variables are dense). It lives in the build's Scratch, so every
// liveness run of a build, and of the builds after it, reuses it.
type liveScratch struct {
	// defStage and defDepth are the plan's: see plan.live.
	defStage, defDepth []int

	// defs holds the definitions the walk met, then sorted by variable,
	// each variable's in traversal order.
	defs []varDef
	// used[v*n+s] is set when stage s of n uses v.
	used []bool
	// useDepthMin is v's shallowest use depth, -1 while v has no use.
	useDepthMin []int
}

// cleared returns s zeroed at length n, reusing its array when it is large
// enough.
func cleared[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// computeLiveness fills defStage/defDepth, bundles, feedback, and
// once-values.
func (pl *plan) computeLiveness(preDefs map[ir.Var]bool) error {
	pl.feedback = nil // recomputed from scratch (liveness may run twice)
	nv, n := len(pl.p.Vars), pl.n
	l := pl.live
	// Every definition is a statement assignStages placed.
	l.defs = slices.Grow(l.defs[:0], len(pl.stmtStage))
	l.used = cleared(l.used, nv*n)
	l.useDepthMin = cleared(l.useDepthMin, nv)
	for v := range l.useDepthMin {
		l.useDepthMin[v] = -1
	}

	var chain []*ir.Loop

	use := func(o ir.Operand, stage int) {
		if o.IsConst {
			return
		}
		l.used[int(o.Var)*n+stage] = true
		if d := l.useDepthMin[o.Var]; d < 0 || len(chain) < d {
			l.useDepthMin[o.Var] = len(chain)
		}
	}
	def := func(v ir.Var, stage int) {
		var lp *ir.Loop
		if len(chain) > 0 {
			lp = chain[len(chain)-1]
		}
		l.defs = append(l.defs, varDef{v, defInfo{stage: stage, depth: len(chain), loop: lp}})
	}
	useRval := func(r ir.Rval, stage int) {
		switch r := r.(type) {
		case *ir.RvalBin:
			use(r.A, stage)
			use(r.B, stage)
		case *ir.RvalUn:
			use(r.A, stage)
		case *ir.RvalLoad:
			use(r.Idx, stage)
		}
	}

	var walk func(list []ir.Stmt) error
	walk = func(list []ir.Stmt) error {
		for _, s := range list {
			st := pl.stageOfStmt(s)
			switch s := s.(type) {
			case *ir.Assign:
				useRval(s.Src, st)
				def(s.Dst, st)
			case *ir.Store:
				use(s.Idx, st)
				use(s.Val, st)
			case *ir.If:
				use(s.Cond, st)
				if err := walk(s.Then); err != nil {
					return err
				}
				if err := walk(s.Else); err != nil {
					return err
				}
			case *ir.Loop:
				owner := pl.loopOwner[s]
				var preWalk func(list []ir.Stmt) error
				preWalk = func(list []ir.Stmt) error {
					for _, ps := range list {
						switch ps := ps.(type) {
						case *ir.Assign:
							useRval(ps.Src, owner)
							def(ps.Dst, owner)
						case *ir.If:
							use(ps.Cond, owner)
							if err := preWalk(ps.Then); err != nil {
								return err
							}
							if err := preWalk(ps.Else); err != nil {
								return err
							}
						default:
							return fmt.Errorf("passes: unsupported statement in loop condition block")
						}
					}
					return nil
				}
				// Condition blocks evaluate once per iteration: account their
				// variables at body depth.
				chain = append(chain, s)
				if err := preWalk(s.Pre); err != nil {
					return err
				}
				use(s.Cond, owner)
				if err := walk(s.Body); err != nil {
					return err
				}
				chain = chain[:len(chain)-1]
			case *ir.Swap, *ir.Barrier, *ir.DecoupleMark:
				// no vars
			case *ir.Enq:
				use(s.Val, st)
			default:
				return fmt.Errorf("passes: unexpected statement %T before decoupling", s)
			}
		}
		return nil
	}
	if err := walk([]ir.Stmt{pl.nest}); err != nil {
		return err
	}
	slices.SortStableFunc(l.defs, func(a, b varDef) int { return cmp.Compare(a.v, b.v) })

	l.defStage = cleared(l.defStage, nv)
	l.defDepth = cleared(l.defDepth, nv)
	pl.bundles = make([][][]ir.Var, pl.n)
	pl.onceVals = make([][]ir.Var, pl.n)
	for k := 1; k < pl.n; k++ {
		pl.bundles[k] = make([][]ir.Var, len(pl.pointChain[k])+1)
	}

	// Classify each variable, in id order; ds are its definitions.
	next := 0
	for v := ir.Var(0); int(v) < nv; v++ {
		l.defStage[v] = -1
		uses := l.used[int(v)*n : int(v+1)*n]
		minUse := slices.Index(uses, true)
		first := next
		for next < len(l.defs) && l.defs[next].v == v {
			next++
		}
		ds := l.defs[first:next]
		if len(ds) == 0 {
			// Defined only in the preamble or a parameter: preamble-pure
			// vars and params are available everywhere; stage-0 preamble
			// vars become once-values.
			if preDefs[v] {
				for k := 1; k < pl.n; k++ {
					if usedAtOrAfter(uses, k) {
						pl.onceVals[k] = append(pl.onceVals[k], v)
					}
				}
			}
			continue
		}
		maxDefStage := -1
		for _, d := range ds {
			maxDefStage = max(maxDefStage, d.stage)
		}
		l.defStage[v] = maxDefStage
		l.defDepth[v] = ds[len(ds)-1].depth

		// Feedback: used in an earlier stage than some def.
		if minUse >= 0 && minUse < maxDefStage {
			// Find the deepest def (by stage) and carry at its loop.
			last := ds[len(ds)-1]
			for _, d := range ds {
				if d.stage == maxDefStage {
					last = d
				}
			}
			if last.loop == nil {
				return fmt.Errorf("passes: feedback variable %s defined outside any loop", pl.p.Vars[v].Name)
			}
			// The carrying rate is the consumer's: the source sends the
			// final value once per frame of the shallowest use depth (e.g.,
			// once per sweep for CC's changed counter, even though the
			// counter increments per vertex).
			depth := l.useDepthMin[v]
			if depth < 1 {
				depth = 1
			}
			if depth > last.depth {
				depth = last.depth
			}
			for s := minUse; s < maxDefStage; s++ {
				if uses[s] {
					pl.feedback = append(pl.feedback, feedbackVal{
						v: v, from: maxDefStage, to: s,
						depth: depth, loop: last.loop,
					})
				}
			}
			// A feedback value may also cross forward when an earlier
			// stage re-initializes it each frame (e.g., CC's per-sweep
			// `changed = 0` reset feeding the accumulating stage); the
			// forward path below handles that with the defs that precede
			// the consuming stage.
		}

		// Forward crossing: for each boundary k with a def below k and a
		// use at or after k.
		for k := 1; k < pl.n; k++ {
			var lastBelow *varDef
			for i := range ds {
				if ds[i].stage < k {
					lastBelow = &ds[i]
				}
			}
			if lastBelow == nil {
				continue
			}
			if !usedAtOrAfter(uses, k) {
				continue
			}
			// Exclude pure consumer-local rebinds: if the first action at
			// stage >= k is a def that fully precedes the uses we would be
			// feeding, the value still crosses conservatively; recompute
			// and DCE trim the waste.
			m := len(pl.pointChain[k])
			lvl := lastBelow.depth
			if lvl > m {
				// The producing definition sits deeper than the boundary's
				// spanning chain: its value would have to cross mid-frame,
				// which the protocol cannot express.
				return fmt.Errorf("passes: value %q is defined at depth %d but crosses boundary %d spanning %d loops (unsupported shape)",
					pl.p.Vars[v].Name, lastBelow.depth, k, m)
			}
			if lvl < 1 {
				lvl = 1 // nest-level defs cross with the outermost frames
			}
			pl.bundles[k][lvl] = append(pl.bundles[k][lvl], v)
		}
	}
	sort.Slice(pl.feedback, func(i, j int) bool {
		if pl.feedback[i].v != pl.feedback[j].v {
			return pl.feedback[i].v < pl.feedback[j].v
		}
		return pl.feedback[i].to < pl.feedback[j].to
	})
	pl.affine = analysis.FindAffineDefs([]ir.Stmt{pl.nest})
	return nil
}

// usedAtOrAfter reports whether any stage k or later uses the variable
// whose per-stage use flags are uses.
func usedAtOrAfter(uses []bool, k int) bool {
	return slices.Contains(uses[k:], true)
}
