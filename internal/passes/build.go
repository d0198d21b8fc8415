package passes

import (
	"fmt"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
)

// BuildConfig carries machine-shape inputs for pipeline construction.
type BuildConfig struct {
	// MaxRAs bounds reference accelerators for the pipeline (Table III: 4).
	MaxRAs int
	// ThreadsPerCore controls how stages map onto hardware threads.
	ThreadsPerCore int
	// BaseCore/BaseThread offset thread assignment (used by replication).
	BaseCore int
}

// Build constructs a pipeline from a program and the chosen decoupling
// points (one point list per phase; a phase with an empty list stays on
// stage 0). This is the "decouple + add queues" transformation plus all the
// optional passes selected in opt.
func Build(p *ir.Prog, pointsPerPhase [][]*analysis.Candidate, opt Options, bc BuildConfig) (*pipeline.Pipeline, error) {
	var s Scratch
	return s.Build(p, pointsPerPhase, opt, bc)
}

// Scratch is the working memory of Build: the statement, loop and pin
// tables a phase's plan fills and the liveness tables. A search worker
// keeps one and builds every candidate in it, so those tables are made
// once per worker instead of once per phase. The zero value is ready; a
// Scratch serves one Build at a time, and nothing Build returns points
// into it.
type Scratch struct {
	stmtStage, pinnedStmts map[ir.Stmt]int
	loopOwner, loopDepth   map[*ir.Loop]int
	live                   liveScratch
}

// Build is the package's Build, computed in s.
func (s *Scratch) Build(p *ir.Prog, pointsPerPhase [][]*analysis.Candidate, opt Options, bc BuildConfig) (*pipeline.Pipeline, error) {
	// Pass dependencies: control-value handlers, RAs, and inter-stage DCE
	// all build on control values.
	if opt.Handlers || opt.RAs || opt.InterstageDCE {
		opt.CtrlValues = true
	}
	if bc.MaxRAs == 0 {
		bc.MaxRAs = 4
	}
	if bc.ThreadsPerCore == 0 {
		bc.ThreadsPerCore = 4
	}

	// Replicable outer loop (Sec. IV-A "Program phases"): a counted
	// top-level loop with parameter/constant bounds whose body holds several
	// loop nests runs in every stage, with barriers between the inner
	// phases. PageRank-Delta has this shape.
	body := p.Body
	var outer *ir.Loop
	var outerPre []ir.Stmt
	if lp, pre, ok := analysis.ReplicableOuter(p.Body); ok {
		outer = lp
		outerPre = pre
		body = lp.Body
	}

	phases := analysis.SplitPhases(body)
	if len(pointsPerPhase) != len(phases) {
		return nil, fmt.Errorf("passes: %d point lists for %d phases", len(pointsPerPhase), len(phases))
	}
	nStages := 1
	for _, pts := range pointsPerPhase {
		if len(pts)+1 > nStages {
			nStages = len(pts) + 1
		}
	}

	pipe := &pipeline.Pipeline{Prog: p}
	stageBodies := make([][]ir.Stmt, nStages)
	raBudget := bc.MaxRAs

	for pi, ph := range phases {
		points := pointsPerPhase[pi]
		if ph.Nest == nil && allPure(ph.Pre) {
			// Pure trailing scalar statements (e.g., the replicated outer
			// loop's induction update) run in every stage.
			for s := 0; s < nStages; s++ {
				stageBodies[s] = append(stageBodies[s], ph.Pre...)
			}
		} else if ph.Nest == nil {
			// Impure trailing statements (e.g., storing a reduction result)
			// read values the deepest stage computed: run them there.
			stageBodies[nStages-1] = append(stageBodies[nStages-1], ph.Pre...)
		} else if len(points) == 0 {
			// Undecoupled loop phase: everything on stage 0.
			var body []ir.Stmt
			body = append(body, ph.Pre...)
			body = append(body, ph.Nest)
			stageBodies[0] = append(stageBodies[0], body...)
		} else {
			bodies, err := buildPhase(p, ph, points, opt, pipe, &raBudget, s)
			if err != nil {
				return nil, fmt.Errorf("passes: phase %d: %w", pi, err)
			}
			for s, b := range bodies {
				stageBodies[s] = append(stageBodies[s], b...)
			}
		}
		if len(phases) > 1 && pi < len(phases)-1 {
			for s := 0; s < nStages; s++ {
				stageBodies[s] = append(stageBodies[s], &ir.Barrier{})
			}
		}
	}

	if outer != nil {
		// Wrap every stage's phase sequence in its own copy of the outer
		// loop, with a barrier closing each iteration so phases from
		// successive iterations cannot overlap.
		for s := 0; s < nStages; s++ {
			inner := append(stageBodies[s], &ir.Barrier{})
			wrapped := append([]ir.Stmt{}, outerPre...)
			wrapped = append(wrapped, &ir.Loop{
				ID: outer.ID, Pre: outer.Pre, Cond: outer.Cond,
				Counted: outer.Counted, Body: inner,
			})
			stageBodies[s] = wrapped
		}
	}

	for s := 0; s < nStages; s++ {
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: fmt.Sprintf("%s.stage%d", p.Name, s),
			Body: stageBodies[s],
		})
	}
	for _, st := range pipe.Stages {
		st.Body = ir.Optimize(p, st.Body)
	}
	if opt.RAs {
		// Pass 3's chaining: stages reduced to pure forwarding dissolve,
		// connecting reference accelerators directly.
		elideGlueStages(pipe)
	}
	compactQueues(pipe)
	for s, st := range pipe.Stages {
		st.Thread = arch.ThreadID{
			Core:   bc.BaseCore + s/bc.ThreadsPerCore,
			Thread: s % bc.ThreadsPerCore,
		}
	}
	pipe.Description = fmt.Sprintf("phloem [%s], %d threads", opt, len(pipe.Stages))
	return pipe, nil
}

// buildPhase plans and generates one phase's stages.
func buildPhase(p *ir.Prog, ph *analysis.Phase, points []*analysis.Candidate,
	opt Options, pipe *pipeline.Pipeline, raBudget *int, s *Scratch) ([][]ir.Stmt, error) {

	pl := &plan{
		p:        p,
		nest:     ph.Nest,
		points:   points,
		n:        len(points) + 1,
		opt:      opt,
		phaseIdx: ph.Index,
		live:     &s.live,
	}
	if err := pl.assignStages(s); err != nil {
		return nil, err
	}
	if err := pl.checkRaceRule(); err != nil {
		return nil, err
	}

	// Preamble split: pure scalar computation is replicated into every
	// stage; the rest stays on stage 0 and its results become once-values.
	pl.preambleVars = map[ir.Var]bool{}
	for _, s := range ph.Pre {
		if a, ok := s.(*ir.Assign); ok && isPureRval(a.Src) {
			pl.preamblePure = append(pl.preamblePure, s)
			pl.preambleVars[a.Dst] = true
			continue
		}
		pl.preambleS0 = append(pl.preambleS0, s)
	}
	preDefs := map[ir.Var]bool{}
	for _, s := range pl.preambleS0 {
		if a, ok := s.(*ir.Assign); ok {
			preDefs[a.Dst] = true
		}
	}

	if err := pl.computeLiveness(preDefs); err != nil {
		return nil, err
	}
	if !opt.Recompute {
		// Pass 1 without pass 2 communicates naively: index temporaries
		// like v+1 are computed by the producer and passed through queues
		// (Fig. 5, pass 1); recompute later moves them back.
		if pl.hoistAffineTemps() {
			if err := pl.computeLiveness(preDefs); err != nil {
				return nil, err
			}
		}
	}
	bs := pl.buildBoundaries()
	if err := pl.validate(bs); err != nil {
		return nil, err
	}
	pl.planRAs(bs, raBudget)
	pl.planRecompute(bs)
	pl.planMarkers(bs, pl.stageActs)

	// Queue and RA wiring.
	cg := &codegen{pl: pl, bs: bs, useCtrl: opt.CtrlValues}
	for k := 1; k < pl.n; k++ {
		b := bs[k]
		prim := b.primaryRA()
		if prim == nil || len(b.itemVars) > 0 {
			b.frameQ = pipe.AddQueue(fmt.Sprintf("p%d.b%d.frame", ph.Index, k))
			b.ctrlQ = b.frameQ
			b.probeQ = b.frameQ
		}
		if cg.useCtrl {
			needSide := len(b.once) > 0
			for lvl := 1; lvl < b.m; lvl++ {
				if len(b.side[lvl]) > 0 {
					needSide = true
				}
			}
			if needSide {
				b.sideQ = pipe.AddQueue(fmt.Sprintf("p%d.b%d.side", ph.Index, k))
			}
		}
		for i, ra := range b.ras {
			ra.inQ = pipe.AddQueue(fmt.Sprintf("p%d.b%d.ra%d.in", ph.Index, k, i))
			ra.outQ = pipe.AddQueue(fmt.Sprintf("p%d.b%d.ra%d.out", ph.Index, k, i))
			if ra.primary {
				b.ctrlQ = ra.inQ
				b.probeQ = ra.outQ
			}
			if ra.emitNext {
				// The scan marker survives only if some stage acts on it.
				d := int(ra.nextCode-arch.CtrlNext) + 2
				ra.emitNext = b.endNeeded[d]
			}
			pipe.RAs = append(pipe.RAs, arch.RASpec{
				Name: ra.name, Mode: ra.mode, Slot: ra.slot,
				InQ: ra.inQ, OutQ: ra.outQ,
				EmitNext: ra.emitNext, NextCode: ra.nextCode,
			})
		}
	}
	for i := range pl.feedback {
		fb := &pl.feedback[i]
		q := pipe.AddQueue(fmt.Sprintf("p%d.fb.%s.%d", ph.Index, p.Vars[fb.v].Name, fb.to))
		cg.fbq = append(cg.fbq, q)
	}

	bodies := make([][]ir.Stmt, pl.n)
	for s := 0; s < pl.n; s++ {
		code, err := cg.genStage(s)
		if err != nil {
			return nil, err
		}
		bodies[s] = code
	}
	return bodies, nil
}

func allPure(list []ir.Stmt) bool {
	for _, s := range list {
		a, ok := s.(*ir.Assign)
		if !ok || !isPureRval(a.Src) {
			return false
		}
	}
	return len(list) > 0
}

func isPureRval(r ir.Rval) bool {
	switch r.(type) {
	case *ir.RvalBin, *ir.RvalUn:
		return true
	}
	return false
}

// stageActs reports whether stage s has work tied to the end of a
// depth-level frame: tail statements or feedback traffic.
func (pl *plan) stageActs(s, depth int) bool {
	chain := pl.pointChain[s]
	if depth < 1 || depth > len(chain) {
		return false
	}
	body := chain[depth-1].Body
	var descend *ir.Loop
	if depth < len(chain) {
		descend = chain[depth]
	}
	acts := false
	var scan func(list []ir.Stmt)
	scan = func(list []ir.Stmt) {
		for _, st := range list {
			if lp, ok := st.(*ir.Loop); ok && lp == descend {
				continue
			}
			if pl.stageOfStmt(st) == s {
				acts = true
				return
			}
			switch st := st.(type) {
			case *ir.If:
				scan(st.Then)
				scan(st.Else)
			case *ir.Loop:
				if pl.loopOwner[st] == s {
					acts = true
					return
				}
				scan(st.Body)
			}
		}
	}
	scan(body)
	if acts {
		return true
	}
	for _, fb := range pl.feedback {
		if (fb.to == s || fb.from == s) && fb.depth == depth {
			return true
		}
	}
	return false
}

// checkRaceRule rejects point sets that split a read-write array's accesses
// across stages (Fig. 4); arrays in a swap class are epoch-synchronized and
// exempt. Accesses are compared per may-alias group: distinct slots the
// frontend's effects analysis could not prove disjoint (Prog.Alias) are
// unioned and must co-locate just like accesses to one array. Restrict
// kernels have all cross-slot verdicts disjoint, so every group is a
// singleton and this is the historical per-slot rule.
func (pl *plan) checkRaceRule() error {
	pl.collectSlotAccess()
	rep := make([]int, len(pl.p.Slots))
	for i := range rep {
		rep[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if rep[i] != i {
			rep[i] = find(rep[i])
		}
		return rep[i]
	}
	conflicts := func(a, b int) bool {
		if pl.p.Alias == nil || a == b {
			return false
		}
		if pl.swappedSlots[a] && pl.swappedSlots[b] {
			return false // a shared swap epoch synchronizes the pair
		}
		return pl.p.Alias.Conflicts(pl.p.Slots[a].Name, pl.p.Slots[b].Name)
	}
	hasPartner := make([]bool, len(pl.p.Slots))
	for a := range pl.p.Slots {
		for b := a + 1; b < len(pl.p.Slots); b++ {
			if conflicts(a, b) {
				rep[find(a)] = find(b)
				hasPartner[a], hasPartner[b] = true, true
			}
		}
	}
	loadStage := map[int]int{}
	storeStage := map[int]int{}
	bad := -1
	var walk func(list []ir.Stmt)
	record := func(m map[int]int, slot, stage int) {
		g := find(slot)
		if prev, ok := m[g]; ok && prev != stage {
			bad = slot
		}
		m[g] = stage
	}
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Assign:
				if ld, ok := s.Src.(*ir.RvalLoad); ok && pl.loadPinned(ld.Slot) {
					record(loadStage, ld.Slot, pl.stageOfStmt(s))
					if st, ok := storeStage[find(ld.Slot)]; ok && st != pl.stageOfStmt(s) {
						bad = ld.Slot
					}
				}
			case *ir.Store:
				if !pl.swappedSlots[s.Slot] || hasPartner[s.Slot] {
					record(storeStage, s.Slot, pl.stageOfStmt(s))
					if lst, ok := loadStage[find(s.Slot)]; ok && lst != pl.stageOfStmt(s) {
						bad = s.Slot
					}
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
	if bad >= 0 {
		return fmt.Errorf("race rule: reads and writes of %q would land in different stages (Fig. 4)",
			pl.p.Slots[bad].Name)
	}
	return nil
}

// validate rejects program shapes the generator does not support.
// (Depth checks on crossing values happen during liveness, where the
// reaching definition per boundary is known.)
func (pl *plan) validate(bs []*boundary) error {
	_ = bs
	// Every loop containing statements of stage s must be on boundary s's
	// chain, be owned by s, or sit inside an owned subtree.
	var chain []*ir.Loop
	var err error
	var walk func(list []ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, st := range list {
			if err != nil {
				return
			}
			switch st := st.(type) {
			case *ir.If:
				walk(st.Then)
				walk(st.Else)
			case *ir.Loop:
				chain = append(chain, st)
				walk(st.Body)
				chain = chain[:len(chain)-1]
			default:
				s := pl.stageOfStmt(st)
				if s == 0 {
					continue
				}
				// Each enclosing loop must either be on chain(s) or owned
				// by a stage >= its position... enforce: on chain(s) or
				// owner == s.
				for _, lp := range chain {
					if pl.loopOwner[lp] == s {
						continue
					}
					on := false
					for _, c := range pl.pointChain[s] {
						if c == lp {
							on = true
						}
					}
					if !on && pl.loopOwner[lp] < s {
						err = fmt.Errorf("statement of stage %d sits in a loop that stage %d does not span (unsupported shape)", s, s)
						return
					}
				}
			}
		}
	}
	walk([]ir.Stmt{pl.nest})
	return err
}
