package passes

import (
	"fmt"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/ir"
)

// Control code scheme shared by all boundaries so that control values pass
// through RA chains and relay stages unchanged:
//
//	codeEnd          — the phase's stream is over.
//	codeLoopEnd(d)   — the loop instance at depth d (>= 2) finished.
//	codeFrameStart(d)— a new iteration (frame) of the depth-d loop began;
//	                   side-bundle values for that level follow on the side
//	                   queue.
func codeEnd() int64             { return arch.CtrlEnd }
func codeLoopEnd(d int) int64    { return arch.CtrlNext + int64(d-2) }
func codeFrameStart(d int) int64 { return arch.CtrlUser + int64(d) }

// recipe describes how a consumer rebuilds a value locally (pass 2).
type recipe struct {
	kind    recipeKind
	base    ir.Var // affine: v = base + off
	off     int64
	imm     int64      // constant: v = imm
	depth   int        // frame level the rebuild is tied to
	init    ir.Operand // induction: counter start
	isFloat bool
}

type recipeKind int

const (
	recAffine recipeKind = iota
	recConst
	recInduction
)

// raSend is one producer-side enqueue into an RA input per item crossing.
type raSend struct {
	raIdx int
	val   ir.Var
	off   int64
}

// scanFeed describes feeding one SCAN RA with a (start, end) pair per frame
// of the enclosing level.
type scanFeed struct {
	raIdx       int
	init, bound ir.Operand
}

type prefetchOp struct {
	slot int
	val  ir.Var
}

type raPlan struct {
	name     string
	mode     arch.RAMode
	slot     int
	inQ      int // assigned at wiring
	outQ     int
	emitNext bool
	nextCode int64
	primary  bool
}

// boundary holds the communication plan between stage k-1 and stage k.
type boundary struct {
	k     int
	chain []*ir.Loop
	m     int

	once []ir.Var
	side [][]ir.Var // index by level 1..m-1

	itemVars []ir.Var // in-band item bundle (probe first)
	// prefetch lists (slot, item var) pairs the producer prefetches for
	// the consumer: loads the race rule pins to the consuming stage
	// (Sec. IV-A: "update data must read and update the distances itself",
	// but earlier stages may still warm the cache).
	prefetch []prefetchOp

	ras       []*raPlan
	raSends   []raSend
	scanLoops map[*ir.Loop][]scanFeed
	loadRepl  map[*ir.Assign]int // consumer load stmt -> raIdx delivering it
	probeStmt *ir.Assign         // offloaded point load acting as the probe

	frameQ int // plain in-band queue (-1 when an RA chain carries frames)
	sideQ  int
	ctrlQ  int // where the producer injects control markers and items
	probeQ int // where the consumer probes items + markers

	recomputed map[ir.Var]*recipe

	endNeeded   map[int]bool // by loop depth (2..m)
	startNeeded map[int]bool // by level (1..m-1)
}

func (b *boundary) primaryRA() *raPlan {
	for _, ra := range b.ras {
		if ra.primary {
			return ra
		}
	}
	return nil
}

// buildBoundaries converts raw liveness bundles into boundary plans.
func (pl *plan) buildBoundaries() []*boundary {
	bs := make([]*boundary, pl.n)
	for k := 1; k < pl.n; k++ {
		b := &boundary{
			k:           k,
			chain:       pl.pointChain[k],
			m:           len(pl.pointChain[k]),
			once:        pl.onceVals[k],
			recomputed:  map[ir.Var]*recipe{},
			loadRepl:    map[*ir.Assign]int{},
			scanLoops:   map[*ir.Loop][]scanFeed{},
			endNeeded:   map[int]bool{},
			startNeeded: map[int]bool{},
			frameQ:      -1, sideQ: -1, ctrlQ: -1, probeQ: -1,
		}
		b.side = make([][]ir.Var, b.m)
		for lvl := 1; lvl < b.m; lvl++ {
			b.side[lvl] = pl.bundles[k][lvl]
		}
		if b.m >= 1 {
			b.itemVars = append([]ir.Var(nil), pl.bundles[k][b.m]...)
		}
		bs[k] = b
	}
	return bs
}

// planRAs (pass 3) offloads loads to reference accelerators and plans
// producer-side prefetches for the loads the race rule pins in place.
func (pl *plan) planRAs(bs []*boundary, raBudget *int) {
	if !pl.opt.RAs || !pl.opt.CtrlValues {
		return
	}
	pl.collectSlotAccess()
	for k := 1; k < pl.n; k++ {
		pl.planScan(bs[k], raBudget)
		pl.planIndirect(bs[k], raBudget)
		pl.planPrefetch(bs[k])
	}
}

// planPrefetch marks item values whose consumer loads a read-write array at
// that index: the producer issues a prefetch so the pinned load hits.
func (pl *plan) planPrefetch(b *boundary) {
	if b.m == 0 {
		return
	}
	for _, v := range b.itemVars {
		for _, s := range b.chain[b.m-1].Body {
			a, ok := s.(*ir.Assign)
			if !ok || pl.stageOfStmt(s) < b.k {
				continue
			}
			ld, ok := a.Src.(*ir.RvalLoad)
			if !ok || ld.Idx.IsConst || ld.Idx.Var != v {
				continue
			}
			if pl.loadPinned(ld.Slot) {
				b.prefetch = append(b.prefetch, prefetchOp{slot: ld.Slot, val: v})
			}
		}
	}
}

// planScan (P2): a producer-owned counted innermost spanning loop whose body
// belongs entirely to the consumer and starts with loads at the induction
// index becomes one SCAN RA per loaded array; the first (the decoupling
// point's array) is primary and carries the frame stream.
func (pl *plan) planScan(b *boundary, raBudget *int) {
	if b.m == 0 {
		return
	}
	lp := b.chain[b.m-1]
	if lp.Counted == nil || pl.loopOwner[lp] >= b.k {
		return
	}
	_ = lp
	inc := findIncrement(lp)
	if inc == nil {
		return
	}
	var loads []*ir.Assign
	for _, s := range lp.Body {
		if s == inc {
			continue
		}
		if pl.stageOfStmt(s) < b.k {
			return // producer still owns work inside: cannot dissolve the loop
		}
		// Only the boundary's own consumer stage can receive RA streams;
		// loads belonging to later stages keep the induction variable live
		// downstream (indUsedBeyondLoads rejects the scan below).
		if a, ok := s.(*ir.Assign); ok && pl.stageOfStmt(s) == b.k {
			if ld, ok2 := a.Src.(*ir.RvalLoad); ok2 &&
				!ld.Idx.IsConst && ld.Idx.Var == lp.Counted.Ind {
				loads = append(loads, a)
			}
		}
	}
	if len(loads) == 0 || loads[0] != pl.points[b.k-1].Stmt {
		return
	}
	for _, ld := range loads {
		if !pl.raSafeSlot(ld.Src.(*ir.RvalLoad).Slot) {
			return
		}
	}
	if pl.indUsedBeyondLoads(lp.Counted.Ind, loads, lp, inc) {
		return
	}
	if *raBudget < len(loads) {
		return
	}
	*raBudget -= len(loads)
	var feeds []scanFeed
	for i, ld := range loads {
		rv := ld.Src.(*ir.RvalLoad)
		ra := &raPlan{
			name:    fmt.Sprintf("b%d.scan.%s", b.k, pl.p.Slots[rv.Slot].Name),
			mode:    arch.RAScan,
			slot:    rv.Slot,
			primary: i == 0,
		}
		if i == 0 {
			// The scanned loop sits at depth m+1 relative to the chain? No:
			// the scanned loop IS chain[m-1] at depth m; its instance end
			// marker is codeLoopEnd(m+1)? The items are its iterations; the
			// "group end" the RA emits is the end of one scanned range,
			// which is the end of one instance of this loop - but one
			// instance corresponds to one frame of level m-1... The RA
			// emits the marker that ends the item stream of one enclosing
			// frame: the depth of lp.
			ra.emitNext = true
			ra.nextCode = codeLoopEnd(pl.loopDepth[lp])
		}
		b.ras = append(b.ras, ra)
		b.loadRepl[ld] = len(b.ras) - 1
		feeds = append(feeds, scanFeed{raIdx: len(b.ras) - 1, init: lp.Counted.Init, bound: lp.Counted.Bound})
	}
	b.probeStmt = loads[0]
	b.scanLoops[lp] = feeds
	b.itemVars = removeVar(b.itemVars, lp.Counted.Ind)
}

// planIndirect (P1): an item value used only as load indices (possibly with
// small constant offsets) moves into an INDIRECT RA; the producer feeds the
// index stream.
func (pl *plan) planIndirect(b *boundary, raBudget *int) {
	if b.m == 0 {
		return
	}
	var kept []ir.Var
	for _, v := range b.itemVars {
		loads, ok := pl.indirectLoadsOf(v, b)
		if !ok || len(loads) == 0 || *raBudget < 1 {
			kept = append(kept, v)
			continue
		}
		slot := loads[0].load.Slot
		same := pl.raSafeSlot(slot)
		for _, l := range loads {
			if l.load.Slot != slot {
				same = false
			}
		}
		if !same {
			kept = append(kept, v)
			continue
		}
		*raBudget--
		ra := &raPlan{
			name: fmt.Sprintf("b%d.ind.%s", b.k, pl.p.Slots[slot].Name),
			mode: arch.RAIndirect,
			slot: slot,
		}
		b.ras = append(b.ras, ra)
		raIdx := len(b.ras) - 1
		for _, l := range loads {
			b.loadRepl[l.stmt] = raIdx
			b.raSends = append(b.raSends, raSend{raIdx: raIdx, val: v, off: l.off})
		}
		// If nothing else remains in-band, this RA carries the frames and
		// the point load becomes the probe.
		if b.probeStmt == nil && len(kept) == 0 && loads[0].stmt == pl.points[b.k-1].Stmt {
			b.probeStmt = loads[0].stmt
			ra.primary = true
		}
	}
	b.itemVars = kept
	// If a probe-carrying RA was chosen but other values remained in-band
	// afterwards, demote it: the plain frame queue must carry the probe.
	if len(b.itemVars) > 0 {
		if ra := b.primaryRA(); ra != nil && ra.mode == arch.RAIndirect {
			ra.primary = false
			b.probeStmt = nil
		}
	}
}

type indLoad struct {
	stmt *ir.Assign
	load *ir.RvalLoad
	off  int64
}

// indirectLoadsOf returns the consumer loads indexed by v (+const offsets
// through single-use temps), provided these are v's only consumer-side uses
// and the loads are unconditional top-level statements of the item region.
func (pl *plan) indirectLoadsOf(v ir.Var, b *boundary) ([]indLoad, bool) {
	body := b.chain[b.m-1].Body
	var loads []indLoad
	absorbed := map[ir.Var]int64{}
	absorbedStmts := map[ir.Stmt]bool{}
	loadStmts := map[ir.Stmt]bool{}
	for _, s := range body {
		a, ok := s.(*ir.Assign)
		if !ok || pl.stageOfStmt(s) != b.k {
			continue
		}
		if ld, ok2 := a.Src.(*ir.RvalLoad); ok2 && !ld.Idx.IsConst {
			if ld.Idx.Var == v {
				loads = append(loads, indLoad{stmt: a, load: ld, off: 0})
				loadStmts[s] = true
				continue
			}
			if off, abs := absorbed[ld.Idx.Var]; abs {
				loads = append(loads, indLoad{stmt: a, load: ld, off: off})
				loadStmts[s] = true
				delete(absorbed, ld.Idx.Var)
				continue
			}
		}
		if bin, ok2 := a.Src.(*ir.RvalBin); ok2 && bin.Op == ir.OpAdd && !bin.Float &&
			!bin.A.IsConst && bin.A.Var == v && bin.B.IsConst {
			absorbed[a.Dst] = bin.B.Imm
			absorbedStmts[s] = true
		}
	}
	if len(loads) == 0 {
		return nil, false
	}
	if len(absorbed) > 0 {
		return nil, false // leftover temp: v has non-load uses
	}
	// Count every consumer-side use of v and of the absorbed temps; they
	// must all be accounted for by the loads and temp definitions.
	extra := pl.countConsumerUsesExcept(v, b.k, loadStmts, absorbedStmts)
	if extra > 0 {
		return nil, false
	}
	for t := range absorbedTempSet(absorbedStmts) {
		if pl.countConsumerUsesExcept(t, b.k, loadStmts, nil) > 0 {
			return nil, false
		}
	}
	return loads, true
}

func absorbedTempSet(stmts map[ir.Stmt]bool) map[ir.Var]bool {
	out := map[ir.Var]bool{}
	for s := range stmts {
		if a, ok := s.(*ir.Assign); ok {
			out[a.Dst] = true
		}
	}
	return out
}

// countConsumerUsesExcept counts reads of v in stages >= k outside the given
// statement sets.
func (pl *plan) countConsumerUsesExcept(v ir.Var, k int, skip1, skip2 map[ir.Stmt]bool) int {
	n := 0
	countOp := func(o ir.Operand, s ir.Stmt) {
		if o.IsConst || o.Var != v {
			return
		}
		if skip1 != nil && skip1[s] {
			return
		}
		if skip2 != nil && skip2[s] {
			return
		}
		n++
	}
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			st := pl.stageOfStmt(s)
			switch s := s.(type) {
			case *ir.Assign:
				if st < k {
					continue
				}
				switch r := s.Src.(type) {
				case *ir.RvalBin:
					countOp(r.A, s)
					countOp(r.B, s)
				case *ir.RvalUn:
					countOp(r.A, s)
				case *ir.RvalLoad:
					countOp(r.Idx, s)
				}
			case *ir.Store:
				if st < k {
					continue
				}
				countOp(s.Idx, s)
				countOp(s.Val, s)
			case *ir.If:
				if st >= k {
					countOp(s.Cond, s)
				}
				walk(s.Then)
				walk(s.Else)
			case *ir.Loop:
				if pl.loopOwner[s] >= k {
					for _, ps := range s.Pre {
						if a, ok := ps.(*ir.Assign); ok {
							switch r := a.Src.(type) {
							case *ir.RvalBin:
								countOp(r.A, ps)
								countOp(r.B, ps)
							case *ir.RvalUn:
								countOp(r.A, ps)
							}
						}
					}
					countOp(s.Cond, s)
				}
				walk(s.Body)
			}
		}
	}
	walk([]ir.Stmt{pl.nest})
	return n
}

// indUsedBeyondLoads reports whether the induction variable is read outside
// the given loads, its increment, and the loop's condition block.
func (pl *plan) indUsedBeyondLoads(ind ir.Var, loads []*ir.Assign, lp *ir.Loop, inc ir.Stmt) bool {
	skip := map[ir.Stmt]bool{inc: true}
	for _, ld := range loads {
		skip[ld] = true
	}
	for _, ps := range lp.Pre {
		skip[ps] = true
	}
	return pl.countConsumerUsesExcept(ind, 0, skip, nil) > 0
}

// planRecompute (pass 2) drops bundle values consumers can rebuild.
func (pl *plan) planRecompute(bs []*boundary) {
	if !pl.opt.Recompute {
		return
	}
	constDefs := pl.constDefs()
	for k := 1; k < pl.n; k++ {
		b := bs[k]
		avail := map[ir.Var]bool{}
		for _, v := range pl.p.ScalarParams {
			avail[v] = true
		}
		for v := range pl.preambleVars {
			avail[v] = true
		}
		for _, v := range b.once {
			avail[v] = true
		}
		for lvl := 1; lvl < b.m; lvl++ {
			for _, v := range b.side[lvl] {
				avail[v] = true
			}
		}
		for _, v := range b.itemVars {
			avail[v] = true
		}
		for changed := true; changed; {
			changed = false
			drop := func(list []ir.Var, isItem bool) []ir.Var {
				keep := list[:0]
				for i, v := range list {
					r := pl.recipeFor(v, b, avail, constDefs)
					if r != nil && isItem && b.probeStmt == nil {
						// Keep at least one in-band token for the probe.
						rem := len(list) - i - 1 + len(keep)
						if rem == 0 {
							r = nil
						}
					}
					if r == nil {
						keep = append(keep, v)
						continue
					}
					r.isFloat = pl.p.VarKind(v) == ir.KFloat
					b.recomputed[v] = r
					changed = true
				}
				return keep
			}
			for lvl := 1; lvl < b.m; lvl++ {
				b.side[lvl] = drop(b.side[lvl], false)
			}
			b.itemVars = drop(b.itemVars, true)
		}
	}
}

// recipeFor decides how (if at all) the consumer can rebuild v.
func (pl *plan) recipeFor(v ir.Var, b *boundary, avail map[ir.Var]bool, consts map[ir.Var]int64) *recipe {
	if r, done := b.recomputed[v]; done {
		return r
	}
	if imm, ok := consts[v]; ok {
		return &recipe{kind: recConst, imm: imm, depth: pl.levelOf(v, b)}
	}
	if d, ok := pl.affine[v]; ok {
		base, off, res := analysis.Resolve(d.Base, pl.affine)
		off += d.Offset
		if res && base != v && off != 0 && (avail[base] || pl.isParamOrPre(ir.V(base))) {
			return &recipe{kind: recAffine, base: base, off: off, depth: pl.levelOf(v, b)}
		}
	}
	for d, lp := range b.chain {
		depth := d + 1
		if lp.Counted != nil && lp.Counted.Ind == v {
			init := lp.Counted.Init
			if init.IsConst || pl.isParamOrPre(init) {
				return &recipe{kind: recInduction, depth: depth, init: init}
			}
		}
	}
	return nil
}

func (pl *plan) isParamOrPre(o ir.Operand) bool {
	if o.IsConst {
		return true
	}
	info := pl.p.Vars[o.Var]
	return info.Param || pl.preambleVars[o.Var]
}

// levelOf returns the bundle level v crosses at for boundary b.
func (pl *plan) levelOf(v ir.Var, b *boundary) int {
	lvl := 0
	if int(v) < len(pl.live.defDepth) {
		lvl = pl.live.defDepth[v]
	}
	if lvl > b.m {
		lvl = b.m
	}
	if lvl < 1 {
		lvl = 1
	}
	return lvl
}

// constDefs finds variables whose single definition is a constant move.
func (pl *plan) constDefs() map[ir.Var]int64 {
	// counts[v] is v's number of definitions, up to 2; variables are dense.
	counts := make([]uint8, len(pl.p.Vars))
	vals := map[ir.Var]int64{}
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Assign:
				if n := int(s.Dst) + 1; n > len(counts) {
					counts = append(counts, make([]uint8, n-len(counts))...)
				}
				counts[s.Dst] = min(counts[s.Dst]+1, 2)
				if un, ok := s.Src.(*ir.RvalUn); ok && un.Op == ir.OpMov && un.A.IsConst {
					vals[s.Dst] = un.A.Imm
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
	walk([]ir.Stmt{pl.nest})
	for v := range vals {
		if counts[v] != 1 {
			delete(vals, v)
		}
	}
	return vals
}

func removeVar(list []ir.Var, v ir.Var) []ir.Var {
	out := list[:0]
	for _, x := range list {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// planMarkers computes the control markers each boundary carries. With
// pass 6 (inter-stage DCE) disabled, every loop-end marker in the chain is
// kept; with it enabled, only markers some stage acts on (directly or by
// forwarding) survive.
func (pl *plan) planMarkers(bs []*boundary, stageActs func(s, depth int) bool) {
	for k := pl.n - 1; k >= 1; k-- {
		b := bs[k]
		for lvl := 1; lvl < b.m; lvl++ {
			if len(b.side[lvl]) > 0 {
				b.startNeeded[lvl] = true
			}
		}
		for _, r := range b.recomputed {
			switch r.kind {
			case recConst, recAffine:
				if r.depth >= 1 && r.depth < b.m {
					b.startNeeded[r.depth] = true
				}
			case recInduction:
				if r.depth-1 >= 1 && r.depth-1 < b.m {
					b.startNeeded[r.depth-1] = true
				}
			}
		}
		for d := 2; d <= b.m; d++ {
			need := !pl.opt.InterstageDCE
			if stageActs(b.k, d-1) {
				need = true
			}
			for _, r := range b.recomputed {
				if r.kind == recInduction && r.depth == d && r.depth <= b.m {
					// counter for loop at depth d increments per frame; at
					// the item level the increment is inline, otherwise it
					// runs at the depth-(d+1) loop's end marker... handled
					// below via startNeeded; keep d's end for safety when
					// the counter is not at the innermost level.
					if d < b.m {
						need = true
					}
				}
			}
			if k+1 < pl.n && bs[k+1] != nil && d <= bs[k+1].m && bs[k+1].endNeeded[d] {
				need = true
			}
			if need {
				b.endNeeded[d] = true
			}
		}
		if k+1 < pl.n && bs[k+1] != nil {
			for lvl, n := range bs[k+1].startNeeded {
				if n && lvl < b.m {
					b.startNeeded[lvl] = true
				}
			}
		}
	}
}

// hoistAffineTemps pins consumer-side affine index temporaries (t = v + c
// where v comes from an earlier stage) to the producing stage, modeling the
// naive "send every needed value" pipeline of pass 1. Returns whether any
// statement moved (requiring liveness recomputation).
func (pl *plan) hoistAffineTemps() bool {
	pl.hoisted = map[ir.Var]*ir.Assign{}
	moved := false
	depth := 0
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Assign:
				bin, ok := s.Src.(*ir.RvalBin)
				if !ok || bin.Op != ir.OpAdd || bin.Float || bin.A.IsConst || !bin.B.IsConst {
					continue
				}
				st := pl.stageOfStmt(s)
				base := bin.A.Var
				defSt := -1
				if int(base) < len(pl.live.defStage) {
					defSt = pl.live.defStage[base]
				}
				if defSt < 0 || defSt >= st {
					continue
				}
				// Only hoist item-rate temporaries: the defining statement
				// must sit at the consumer boundary's item depth.
				if st < 1 || st >= pl.n || depth != len(pl.pointChain[st]) {
					continue
				}
				pl.pinnedStmts[s] = defSt
				pl.hoisted[s.Dst] = s
				moved = true
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			case *ir.Loop:
				depth++
				walk(s.Body)
				depth--
			}
		}
	}
	walk([]ir.Stmt{pl.nest})
	return moved
}

// collectSlotAccess records which slots the nest stores to and which
// participate in swaps (epoch-synchronized double buffers).
func (pl *plan) collectSlotAccess() {
	pl.storedSlots = map[int]bool{}
	pl.swappedSlots = map[int]bool{}
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Store:
				pl.storedSlots[s.Slot] = true
			case *ir.Swap:
				pl.swappedSlots[s.A] = true
				pl.swappedSlots[s.B] = true
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			case *ir.Loop:
				walk(s.Pre)
				walk(s.Body)
			}
		}
	}
	walk([]ir.Stmt{pl.nest})
}

// loadPinned applies the Fig. 4 race rule over proven memory effects: a
// load of slot must stay in the storing stage when the nest stores the slot
// itself (and no swap epoch-synchronizes it), or stores a distinct slot the
// frontend's effects analysis could not prove disjoint from it (Prog.Alias).
// Restrict-qualified kernels have disjoint cross-slot verdicts throughout,
// so this is then exactly the historical identity rule.
func (pl *plan) loadPinned(slot int) bool {
	if pl.storedSlots[slot] && !pl.swappedSlots[slot] {
		return true
	}
	if pl.p.Alias == nil {
		return false
	}
	for s := range pl.storedSlots {
		if s == slot || (pl.swappedSlots[s] && pl.swappedSlots[slot]) {
			continue
		}
		if pl.p.Alias.Conflicts(pl.p.Slots[s].Name, pl.p.Slots[slot].Name) {
			return true
		}
	}
	return false
}

// raSafeSlot applies the race rule of Fig. 4 to accelerator offloads: an RA
// may run ahead of the pipeline, so it must not read arrays the nest stores
// to (or may-aliased ones), unless the accesses are epoch-synchronized by a
// swap.
func (pl *plan) raSafeSlot(slot int) bool {
	return !pl.loadPinned(slot)
}
