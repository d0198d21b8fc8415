// Package effects implements the frontend's memory-effects and alias
// analysis: a flow-insensitive points-to model over the checked AST's array
// parameters, per-statement MOD/REF summaries of every array access, and a
// loop-carried dependence test for affine accesses. Together they let the
// compiler prove decoupling legality without `restrict` annotations
// (Sec. IV-A requires "precise aliasing"; this package supplies it
// statically) and let the Fig. 4 race rule reason about *proven* effects
// instead of identifier equality.
//
// The model is deliberately small because the kernel language is: pointers
// enter only as parameters, cannot be copied, offset, or stored, and the
// single pointer operation is the swap(a, b) double-buffer flip. Each
// pointer parameter p therefore roots one abstract location L_p; a
// non-restrict parameter additionally points to a per-element-kind world
// location (int* and float* cannot legally alias under strict aliasing), and
// swap() unions the points-to sets of its operands. Two parameters may alias
// iff their points-to sets intersect.
//
// On top of points-to, every array access is summarized as MOD (store) or
// REF (load) with its index classified as constant, affine in an enclosing
// induction variable (root + constant offset, resolved through single-def
// scalar temporaries), or indirect. Pairs of parameters get one of five
// verdicts (ir.AliasVerdict): disjoint, no-conflict (no write in any
// conflicting access pair), benign (every conflicting pair is affine at
// distance 0, i.e. the overlap only ever touches the same element within one
// iteration), swap-sync (epoch-synchronized double buffers), or may-alias.
// May-alias pairs in a `#pragma phloem` kernel are rejected with a
// positioned E0 error; everything else compiles, with the verdicts attached
// to the lowered program (ir.Prog.Alias) so the race rule, the pipelining
// passes, and the static verifier's E-checks can consume them.
package effects

import (
	"fmt"
	"sort"

	"phloem/internal/ir"
	"phloem/internal/source"
)

// IndexClass classifies an access's index expression.
type IndexClass uint8

const (
	// IdxConst is a compile-time constant index.
	IdxConst IndexClass = iota
	// IdxAffine is induction-root + constant offset (distance tests apply).
	IdxAffine
	// IdxIndirect is anything else: loaded values, data-dependent math.
	IdxIndirect
)

// Access is one MOD/REF summary entry: a single textual array access.
type Access struct {
	// Param is the accessed array parameter's name.
	Param string
	// Line is the source line of the access.
	Line int
	// Mod marks a store; Ref marks a load. Compound assignments
	// (a[i] += x) set both on one entry.
	Mod, Ref bool
	// Class classifies Idx; Root/Off describe it when affine (Off alone
	// when constant).
	Class IndexClass
	Root  string
	Off   int64
}

// String renders "mod a[i+1] (line 12)" style summaries.
func (ac Access) String() string {
	return fmt.Sprintf("%s %s[%s] (line %d)", ac.kind(), ac.Param, ac.idx(), ac.Line)
}

func (ac Access) kind() string {
	switch {
	case ac.Mod && ac.Ref:
		return "modref"
	case ac.Mod:
		return "mod"
	}
	return "ref"
}

func (ac Access) idx() string {
	switch ac.Class {
	case IdxConst:
		return fmt.Sprintf("%d", ac.Off)
	case IdxAffine:
		if ac.Off == 0 {
			return ac.Root
		}
		return fmt.Sprintf("%s%+d", ac.Root, ac.Off)
	}
	return "#indirect"
}

// ParamSummary describes one pointer parameter and its points-to set.
type ParamSummary struct {
	Name     string
	Type     source.Type
	Restrict bool
	Line     int
	// PointsTo is the sorted abstract-location set ("name" for parameter
	// roots, "W:int"/"W:float" for the world locations).
	PointsTo []string
}

// Pair is the verdict for one unordered parameter pair.
type Pair struct {
	A, B    string // sorted: A < B
	Verdict ir.AliasVerdict
	// WitA/WitB index Accesses with the pair that forced a may-alias
	// verdict (-1 otherwise). WitA belongs to A, WitB to B.
	WitA, WitB int
}

// Stats counts pairs per verdict — the compiler's alias-precision counters.
type Stats struct {
	Pairs      int
	Disjoint   int
	NoConflict int
	Benign     int
	SwapSync   int
	MayAlias   int
}

func (s Stats) String() string {
	return fmt.Sprintf("pairs=%d disjoint=%d no-conflict=%d benign=%d swap-sync=%d may-alias=%d",
		s.Pairs, s.Disjoint, s.NoConflict, s.Benign, s.SwapSync, s.MayAlias)
}

// Warning is a positioned, non-fatal effects diagnostic (e.g. a parameter
// compiled without restrict because the analysis proved it safe).
type Warning struct {
	Line int
	Code string
	Msg  string
}

func (w Warning) String() string {
	return fmt.Sprintf("warning [%s] line %d: %s", w.Code, w.Line, w.Msg)
}

// Analysis is the result of analyzing one function.
type Analysis struct {
	Fn       *source.Function
	Params   []ParamSummary
	Accesses []Access
	Pairs    []Pair
	Stats    Stats

	pts       map[string]map[string]bool
	swapClass map[string]string
}

// Analyze runs the full analysis over a checked function. It never fails:
// unprovable shapes degrade to may-alias verdicts, which Err reports.
func Analyze(fn *source.Function) *Analysis {
	a := &Analysis{
		Fn:        fn,
		pts:       map[string]map[string]bool{},
		swapClass: map[string]string{},
	}
	a.buildPointsTo()
	a.collectAccesses()
	a.judgePairs()
	return a
}

// worldLoc names the shared abstract location of all non-restrict pointers
// of one element kind.
func worldLoc(t source.Type) string {
	if t.Elem() == source.TypeFloat {
		return "W:float"
	}
	return "W:int"
}

func (a *Analysis) buildPointsTo() {
	for _, p := range a.Fn.Params {
		if !p.Type.IsPtr() {
			continue
		}
		set := map[string]bool{p.Name: true}
		if !p.Restrict {
			set[worldLoc(p.Type)] = true
		}
		a.pts[p.Name] = set
		a.swapClass[p.Name] = p.Name
	}
	// swap(a, b) exchanges bindings: flow-insensitively, each operand may
	// hold the other's location afterwards, so the sets merge. Union-find
	// over swap statements is the fixpoint of that propagation.
	var walk func(list []source.Stmt)
	walk = func(list []source.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *source.Block:
				walk(s.Stmts)
			case *source.IfStmt:
				walk(s.Then.Stmts)
				if s.Else != nil {
					walk(s.Else.Stmts)
				}
			case *source.WhileStmt:
				walk(s.Body.Stmts)
			case *source.ForStmt:
				walk(s.Body.Stmts)
			case *source.SwapStmt:
				if _, ok := a.pts[s.A]; ok {
					if _, ok := a.pts[s.B]; ok {
						a.union(s.A, s.B)
					}
				}
			}
		}
	}
	walk(a.Fn.Body.Stmts)
	// Merge points-to across each swap class.
	byClass := map[string]map[string]bool{}
	for p := range a.pts {
		r := a.rep(p)
		if byClass[r] == nil {
			byClass[r] = map[string]bool{}
		}
		for loc := range a.pts[p] {
			byClass[r][loc] = true
		}
	}
	for p := range a.pts {
		a.pts[p] = byClass[a.rep(p)]
	}
	for _, p := range a.Fn.Params {
		if !p.Type.IsPtr() {
			continue
		}
		a.Params = append(a.Params, ParamSummary{
			Name: p.Name, Type: p.Type, Restrict: p.Restrict, Line: p.Line,
			PointsTo: sortedKeys(a.pts[p.Name]),
		})
	}
}

func (a *Analysis) rep(p string) string {
	for a.swapClass[p] != p {
		p = a.swapClass[p]
	}
	return p
}

func (a *Analysis) union(p, q string) {
	rp, rq := a.rep(p), a.rep(q)
	if rp != rq {
		a.swapClass[rp] = rq
	}
}

// sameSwapClass reports whether two parameters are exchanged by swap().
func (a *Analysis) sameSwapClass(p, q string) bool { return a.rep(p) == a.rep(q) }

// mayAlias reports whether the points-to sets intersect.
func (a *Analysis) mayAlias(p, q string) bool {
	sp, sq := a.pts[p], a.pts[q]
	if len(sq) < len(sp) {
		sp, sq = sq, sp
	}
	for loc := range sp {
		if sq[loc] {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
