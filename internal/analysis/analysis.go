// Package analysis implements the static analyses behind Phloem's automatic
// decoupling (Sec. V): loop-nest (spine) discovery, memory-access
// classification (sequential vs indirect, nearby-access affinity), the cost
// model that ranks candidate decoupling points, and the race rule of Fig. 4
// that keeps reads and writes of the same data structure in one stage.
package analysis

import (
	"fmt"
	"sort"

	"phloem/internal/ir"
)

// Phase is one top-level decoupling unit: an optional preamble, one loop
// nest, and the statements trailing it. Programs with several phases get
// barrier synchronization between them (Sec. IV-A, "Program phases").
type Phase struct {
	// Pre holds top-level statements before the nest's loop.
	Pre []ir.Stmt
	// Nest is the phase's loop (nil for a straight-line phase).
	Nest *ir.Loop
	// Index is the phase's position.
	Index int
}

// SplitPhases partitions a statement list into phases at top-level loops.
// Trailing statements after the last loop are attached to the last phase's
// Pre of a final nest-less phase.
func SplitPhases(body []ir.Stmt) []*Phase {
	var phases []*Phase
	var pre []ir.Stmt
	for _, s := range body {
		if lp, ok := s.(*ir.Loop); ok {
			phases = append(phases, &Phase{Pre: pre, Nest: lp, Index: len(phases)})
			pre = nil
			continue
		}
		pre = append(pre, s)
	}
	if len(pre) > 0 {
		phases = append(phases, &Phase{Pre: pre, Index: len(phases)})
	}
	return phases
}

// Candidate is one possible decoupling point: a load statement on the spine
// of a loop nest.
type Candidate struct {
	// Stmt is the load assignment (identity matters: passes locate the
	// point by pointer).
	Stmt *ir.Assign
	// Load is Stmt's right-hand side.
	Load *ir.RvalLoad
	// Depth is the loop depth (1 = outermost loop body).
	Depth int
	// Chain is the enclosing loop chain, outermost first.
	Chain []*ir.Loop
	// Cost is the predicted per-access cost.
	Cost float64
	// Rank is Cost weighted by estimated frequency.
	Rank float64
	// Grouped marks loads absorbed into a nearby access (e.g., nodes[v+1]
	// right after nodes[v]); they are predicted cache hits and are not
	// proposed as separate points (Sec. V's cost model).
	Grouped bool
	// PrefetchOnly marks loads of read-write arrays: the race rule (Fig. 4)
	// pins them to the stage that stores, so a boundary here leaves the
	// load in place and the producer merely prefetches. The static flow
	// skips these; the autotuner explores them.
	PrefetchOnly bool
	// Order is the traversal position (for restoring program order).
	Order int
}

func (c *Candidate) String() string {
	return fmt.Sprintf("load#%d slot=%d depth=%d cost=%.1f rank=%.1f grouped=%v",
		c.Load.LoadID, c.Load.Slot, c.Depth, c.Cost, c.Rank, c.Grouped)
}

// Cost model constants (Sec. V: "the cost of the memory access depends on
// whether it is indirect or sequential and the presence of nearby accesses";
// frequency weighting prefers inner loops).
const (
	costIndirect   = 30.0
	costScan       = 15.0 // streaming within a data-dependent range
	costSequential = 2.0
	costNearby     = 1.0
	freqPerLevel   = 8.0
)

// Analyzer holds per-program analysis state.
type Analyzer struct {
	P *ir.Prog
	// storedSlots[slot] is true when the phase stores to the slot.
	storedSlots map[int]bool
	// swapClass maps each slot to a canonical representative of its
	// swap-equivalence class (slots exchanged by ir.Swap).
	swapClass map[int]int
}

// New builds an analyzer for the program.
func New(p *ir.Prog) *Analyzer {
	a := &Analyzer{P: p, swapClass: map[int]int{}}
	for i := range p.Slots {
		a.swapClass[i] = i
	}
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Swap:
				ra, rb := a.rep(s.A), a.rep(s.B)
				if ra != rb {
					a.swapClass[ra] = rb
				}
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			case *ir.Loop:
				walk(s.Pre)
				walk(s.Body)
			}
		}
	}
	walk(p.Body)
	return a
}

func (a *Analyzer) rep(slot int) int {
	for a.swapClass[slot] != slot {
		slot = a.swapClass[slot]
	}
	return slot
}

// SameClass reports whether two slots can alias through swaps.
func (a *Analyzer) SameClass(s1, s2 int) bool { return a.rep(s1) == a.rep(s2) }

// Swapped reports whether the slot participates in any swap.
func (a *Analyzer) Swapped(slot int) bool {
	for other := range a.P.Slots {
		if other != slot && a.SameClass(other, slot) {
			return true
		}
	}
	return false
}

// Candidates finds and ranks decoupling-point candidates in a phase's nest.
// Results are ordered by decreasing rank. Loads excluded by the race rule
// (their slot is also stored in the phase and is not epoch-synchronized by a
// swap) and grouped nearby accesses are marked, not returned.
func (a *Analyzer) Candidates(ph *Phase) []*Candidate {
	if ph.Nest == nil {
		return nil
	}
	a.storedSlots = map[int]bool{}
	a.collectStores(ph.Nest.Body)
	a.collectStores(ph.Nest.Pre)
	affine := FindAffineDefs(append(append([]ir.Stmt{}, ph.Nest.Pre...), ph.Nest.Body...))

	var out []*Candidate
	var chain []*ir.Loop
	var walkSpine func(lp *ir.Loop)
	order := 0

	scanBody := func(body []ir.Stmt, recurse func(lp *ir.Loop)) {
		var prevLoads []*Candidate
		for _, s := range body {
			order++
			switch s := s.(type) {
			case *ir.Assign:
				if ld, ok := s.Src.(*ir.RvalLoad); ok {
					c := &Candidate{
						Stmt:  s,
						Load:  ld,
						Depth: len(chain),
						Chain: append([]*ir.Loop(nil), chain...),
						Order: order,
					}
					a.classify(c, prevLoads, chain[len(chain)-1], affine)
					c.PrefetchOnly = !a.allowedByRaceRule(ld.Slot)
					prevLoads = append(prevLoads, c)
					if !c.Grouped {
						out = append(out, c)
					}
				}
			case *ir.Loop:
				recurse(s)
			}
		}
	}
	walkSpine = func(lp *ir.Loop) {
		chain = append(chain, lp)
		scanBody(lp.Body, walkSpine)
		chain = chain[:len(chain)-1]
	}
	walkSpine(ph.Nest)

	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank > out[j].Rank })
	return out
}

func (a *Analyzer) collectStores(list []ir.Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *ir.Store:
			a.storedSlots[s.Slot] = true
		case *ir.If:
			a.collectStores(s.Then)
			a.collectStores(s.Else)
		case *ir.Loop:
			a.collectStores(s.Pre)
			a.collectStores(s.Body)
		}
	}
}

// allowedByRaceRule applies Fig. 4's rule over proven memory effects rather
// than slot identity alone: a load cannot move to another stage when the
// phase stores any slot whose write set may reach the loaded slot — itself,
// or a distinct slot the frontend's effects analysis could not prove
// disjoint (Prog.Alias). Swap classes are exempt either way: the
// double-buffer flip epoch-synchronizes their accesses. For fully
// restrict-qualified kernels every cross-slot verdict is disjoint, so this
// reduces to the original identity rule bit-for-bit.
func (a *Analyzer) allowedByRaceRule(slot int) bool {
	if a.storedSlots[slot] && !a.Swapped(slot) {
		return false
	}
	for s := range a.storedSlots {
		if s == slot || a.SameClass(s, slot) {
			continue
		}
		if a.P.Alias.Conflicts(a.P.Slots[s].Name, a.P.Slots[slot].Name) {
			return false
		}
	}
	return true
}

// classify fills in Cost and Rank. A load is sequential when its index is
// the enclosing counted loop's induction variable (possibly offset by a
// constant); it is grouped when a previous load in the same body reads the
// same slot at a nearby index.
func (a *Analyzer) classify(c *Candidate, prev []*Candidate, encl *ir.Loop, affine map[ir.Var]AffineDef) {
	for _, p := range prev {
		if p.Load.Slot == c.Load.Slot && nearby(p.Load.Idx, c.Load.Idx, affine) {
			c.Grouped = true
			c.Cost = costNearby
			c.Rank = 0
			return
		}
		// Parallel streams (CSR's cols[p]/vals[p]): a load at exactly the
		// same index as an earlier one travels with it; splitting them into
		// separate stages only adds relay traffic.
		if p.Load.Slot != c.Load.Slot {
			if d, ok := indexDelta(p.Load.Idx, c.Load.Idx, affine); ok && d == 0 {
				c.Grouped = true
				c.Cost = costNearby
				c.Rank = 0
				return
			}
		}
	}
	cost := costIndirect
	if encl.Counted != nil && indexIsInduction(c.Load.Idx, encl.Counted.Ind, affine) {
		// Streaming access. Truly sequential only when the range base is
		// statically known (e.g., 0..n); a data-dependent base (an edge
		// list slice) still misses at every range start.
		if encl.Counted.Init.IsConst {
			cost = costSequential
		} else {
			cost = costScan
		}
	}
	c.Cost = cost
	c.Rank = cost
	for i := 0; i < c.Depth; i++ {
		c.Rank *= freqPerLevel
	}
}

// indexIsInduction reports whether idx resolves to the induction variable
// (possibly via a small constant offset through affine temporaries).
func indexIsInduction(idx ir.Operand, ind ir.Var, affine map[ir.Var]AffineDef) bool {
	if idx.IsConst {
		return false
	}
	base, _, ok := Resolve(idx.Var, affine)
	return ok && base == ind
}

// Resolve follows affine single-def chains: returns the root variable and
// accumulated constant offset of v.
func Resolve(v ir.Var, affine map[ir.Var]AffineDef) (ir.Var, int64, bool) {
	var off int64
	for depth := 0; depth < 16; depth++ {
		d, ok := affine[v]
		if !ok {
			return v, off, true
		}
		off += d.Offset
		v = d.Base
	}
	return v, off, false // cycle guard
}

// indexDelta resolves two index operands through affine temporaries and
// returns their constant difference (ok=false when incomparable).
func indexDelta(i1, i2 ir.Operand, affine map[ir.Var]AffineDef) (int64, bool) {
	if i1.IsConst && i2.IsConst {
		return i1.Imm - i2.Imm, true
	}
	if i1.IsConst || i2.IsConst {
		return 0, false
	}
	b1, o1, ok1 := Resolve(i1.Var, affine)
	b2, o2, ok2 := Resolve(i2.Var, affine)
	if !ok1 || !ok2 || b1 != b2 {
		return 0, false
	}
	return o1 - o2, true
}

// nearby reports whether two index operands are provably within one element
// of each other: identical variables/constants, or one computed as the
// other +/- 1 through affine temporaries (the nodes[v] / nodes[v+1]
// pattern after lowering).
func nearby(i1, i2 ir.Operand, affine map[ir.Var]AffineDef) bool {
	d, ok := indexDelta(i1, i2, affine)
	return ok && d >= -1 && d <= 1
}

// AffineDef describes v = base + offset when a variable has a single
// reaching definition of that shape within a body.
type AffineDef struct {
	Base   ir.Var
	Offset int64
}

// FindAffineDefs scans a statement list (non-recursively through loops) and
// returns, for each variable assigned exactly once with the shape
// v = base + const, its affine description. Used by the recompute pass and
// the nearby-access grouping.
func FindAffineDefs(list []ir.Stmt) map[ir.Var]AffineDef {
	// counts[v] is v's number of definitions, up to 2; variables are dense.
	var counts []uint8
	defs := map[ir.Var]AffineDef{}
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch s := s.(type) {
			case *ir.Assign:
				if n := int(s.Dst) + 1; n > len(counts) {
					counts = append(counts, make([]uint8, n-len(counts))...)
				}
				counts[s.Dst] = min(counts[s.Dst]+1, 2)
				if bin, ok := s.Src.(*ir.RvalBin); ok && bin.Op == ir.OpAdd && !bin.Float {
					if !bin.A.IsConst && bin.B.IsConst && bin.A.Var != s.Dst {
						defs[s.Dst] = AffineDef{Base: bin.A.Var, Offset: bin.B.Imm}
					}
				}
				if un, ok := s.Src.(*ir.RvalUn); ok && un.Op == ir.OpMov && !un.Float &&
					!un.A.IsConst && un.A.Var != s.Dst {
					defs[s.Dst] = AffineDef{Base: un.A.Var}
				}
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			case *ir.Loop:
				walk(s.Pre)
				walk(s.Body)
			}
		}
	}
	walk(list)
	for v := range defs {
		if counts[v] != 1 {
			delete(defs, v)
		}
	}
	return defs
}

// OrderPoints returns a copy of the candidates sorted back into program
// traversal order, as required by the pipeline builder.
func OrderPoints(cands []*Candidate) []*Candidate {
	out := append([]*Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// ReplicableOuter detects the program shape of PageRank-Delta and similar
// phased kernels: [pure scalar preamble..., counted Loop] whose body holds
// two or more top-level loop nests. Such an outer loop is replicated into
// every stage (its control is cheap and parameter-driven), with the inner
// nests decoupled as separate phases (Sec. IV-A, "Program phases").
func ReplicableOuter(body []ir.Stmt) (*ir.Loop, []ir.Stmt, bool) {
	var pre []ir.Stmt
	var lp *ir.Loop
	for _, s := range body {
		switch s := s.(type) {
		case *ir.Assign:
			if lp != nil {
				return nil, nil, false
			}
			switch s.Src.(type) {
			case *ir.RvalBin, *ir.RvalUn:
				pre = append(pre, s)
			default:
				return nil, nil, false
			}
		case *ir.Loop:
			if lp != nil {
				return nil, nil, false
			}
			lp = s
		default:
			return nil, nil, false
		}
	}
	if lp == nil || lp.Counted == nil {
		return nil, nil, false
	}
	nests := 0
	for _, s := range lp.Body {
		if _, ok := s.(*ir.Loop); ok {
			nests++
		}
	}
	if nests < 2 {
		return nil, nil, false
	}
	return lp, pre, true
}

// ProgramPhases splits a program into its decoupling phases, looking through
// a replicable outer loop when present.
func ProgramPhases(body []ir.Stmt) []*Phase {
	if lp, _, ok := ReplicableOuter(body); ok {
		return SplitPhases(lp.Body)
	}
	return SplitPhases(body)
}

// ForcedPoints returns the candidates selected by `#pragma decouple` marks:
// each mark forces a boundary at the next load statement on the spine
// (Table II: "separate the following instructions into a new stage").
// Returns nil when the phase has no marks.
func (a *Analyzer) ForcedPoints(ph *Phase) []*Candidate {
	cands := a.Candidates(ph)
	byStmt := map[ir.Stmt]*Candidate{}
	for _, c := range cands {
		byStmt[c.Stmt] = c
	}
	if ph.Nest == nil {
		return nil
	}
	var out []*Candidate
	pending := false
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.DecoupleMark:
				pending = true
			case *ir.Assign:
				if pending {
					if c, ok := byStmt[s]; ok {
						out = append(out, c)
						pending = false
					}
				}
			case *ir.Loop:
				walk(s.Body)
			}
		}
	}
	walk(ph.Nest.Body)
	return OrderPoints(out)
}
