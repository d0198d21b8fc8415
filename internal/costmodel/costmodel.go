// Package costmodel statically predicts the steady-state throughput of a
// compiled pipeline (Sec. V / Fig. 13 of the paper). It walks each stage's
// post-pass IR together with its flattened ISA program, estimates how many
// times every region executes per "kernel unit" (a fixed-point computation
// over queue token rates), prices each statement from the architectural
// latencies in arch.Config, and reports:
//
//   - a predicted cycle count (abstract units — comparable across candidate
//     pipelines of the same kernel, not calibrated to simulator cycles),
//   - the bottleneck entity under steady-state backpressure (the stage or RA
//     whose per-unit cost is largest; every other entity stalls against it),
//   - per-entity utilization relative to the bottleneck, and
//   - a recommended capacity for every queue (burst depth stretched by the
//     producer/consumer service-rate mismatch, PPN-style).
//
// The model is deliberately coarse: unknown trip counts default to
// DefaultTrip (the same per-level frequency estimate internal/analysis uses
// to rank candidate points), branches are weighted 50/50, and cache behavior
// is summarized by the three classes the candidate analysis distinguishes
// (sequential / nearby / indirect). Its job is ranking candidates so that
// autotune only simulates the top K, not replacing the simulator.
package costmodel

import (
	"fmt"
	"math"
	"strings"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/ir"
	"phloem/internal/isa"
	"phloem/internal/pipeline"
)

// Params collects the tunable constants of the model. The zero value is not
// useful; start from DefaultParams.
type Params struct {
	// DefaultTrip is the per-level iteration estimate for loops whose trip
	// count is not a compile-time constant (matches internal/analysis).
	DefaultTrip float64
	// MaxConstTrip caps compile-time-constant trip counts so degenerate
	// kernels cannot overflow the estimate.
	MaxConstTrip int64
	// LoadSeq / LoadNearby / LoadIndirect price one executed load by access
	// class. The classes mirror the candidate-ranking constants in
	// internal/analysis, but the weights are calibrated against the timing
	// simulator rather than copied: an OOO window over a warm cache
	// hierarchy hides most of an indirect load's miss latency (the timing
	// runs show near-zero backend stalls), leaving a dependency-chain
	// bubble, so LoadIndirect sits well below a raw miss cost.
	LoadSeq, LoadNearby, LoadIndirect float64
	// PrefetchedFactor scales an indirect load whose slot is prefetched by
	// an earlier stage (the line is warm by the time the consumer issues).
	PrefetchedFactor float64
	// QueueOp prices one enqueue or dequeue beyond its issue slot: a
	// logical token expands into several marshalling micro-ops plus
	// occupancy on the shared issue ports, which the timing runs show
	// dominating heavily queued configurations.
	QueueOp float64
	// DivExtra prices an integer/float divide beyond its issue slot.
	DivExtra float64
	// FloatExtra prices a dependent float ALU op beyond its issue slot.
	FloatExtra float64
	// ScanPerToken prices one SCAN-streamed element (line-amortized).
	ScanPerToken float64
	// FillPerStage is the pipeline fill/drain overhead per entity.
	FillPerStage float64
	// BurstCap bounds a single producer region's estimated burst.
	BurstCap float64
	// MinQueueRec is the floor for recommended queue capacities.
	MinQueueRec int
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		DefaultTrip:      8,
		MaxConstTrip:     4096,
		LoadSeq:          2,
		LoadNearby:       1,
		LoadIndirect:     8,
		PrefetchedFactor: 0.4,
		QueueOp:          6,
		DivExtra:         19,
		FloatExtra:       2,
		ScanPerToken:     1.5,
		FillPerStage:     32,
		BurstCap:         64,
		MinQueueRec:      2,
	}
}

// EntityCost is the modeled steady-state cost of one stage or RA.
type EntityCost struct {
	Name string
	IsRA bool
	Core int
	// Cycles is the per-unit service demand in abstract cycles.
	Cycles float64
	// Instrs is the estimated dynamic instruction count (stages only).
	Instrs float64
	// Util is Cycles relative to the bottleneck entity (0..1).
	Util float64
}

// QueuePlan is the modeled traffic and recommended capacity of one queue.
type QueuePlan struct {
	ID   int
	Name string
	// Data and Ctrl are steady-state token counts per kernel unit.
	Data, Ctrl float64
	// Burst is the largest token group a producer emits before its consumer
	// is guaranteed a chance to drain.
	Burst float64
	// Depth is the configured capacity (0 = machine default).
	Depth int
	// Recommended is the capacity the model suggests, clamped to the
	// architectural QueueDepth.
	Recommended int
}

// CoreLoad is the aggregate issue-bandwidth demand on one core.
type CoreLoad struct {
	Core   int
	Cycles float64 // dynamic instructions / IssueWidth
}

// Report is the result of analyzing one pipeline.
type Report struct {
	Pipeline    string
	Description string
	// Predicted is the model's cycle estimate (abstract units).
	Predicted uint64
	// PredictedF is the unrounded estimate.
	PredictedF float64
	// Bottleneck names the limiting entity ("core N issue" when the shared
	// issue bandwidth of a core binds before any single entity).
	Bottleneck string
	Entities   []EntityCost
	Cores      []CoreLoad
	Queues     []QueuePlan
}

// Analyze flattens every stage and models the pipeline under cfg.
func Analyze(pl *pipeline.Pipeline, cfg arch.Config) (*Report, error) {
	progs, err := pipeline.FlattenStages(pl)
	if err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	return AnalyzeFlat(pl, cfg, progs), nil
}

// AnalyzeFlat models the pipeline using pre-flattened stage programs (index
// aligned with pl.Stages; nil entries fall back to an IR statement count).
// The verifier uses this entry point to reuse the programs it has already
// flattened for its other rule families.
func AnalyzeFlat(pl *pipeline.Pipeline, cfg arch.Config, progs []*isa.Program) *Report {
	m := newModel(pl, cfg, DefaultParams(), progs)
	return m.run()
}

// model carries the per-pipeline analysis state.
type model struct {
	pl    *pipeline.Pipeline
	cfg   arch.Config
	par   Params
	progs []*isa.Program

	// data/ctrl hold the current fixed-point token counts per queue.
	data, ctrl []float64
	// expansion is instructions-per-IR-statement for each stage.
	expansion []float64
	// prefetched marks array slots warmed by a Prefetch in any stage.
	prefetched map[int]bool
	// stageInfo caches per-stage structure.
	stages []*stageInfo
}

// stageInfo is the per-stage structural decomposition: the top-level body
// split into regions at labels, plus the handler registry and affine defs.
type stageInfo struct {
	st       *pipeline.Stage
	regions  []region
	handlerQ map[string]int // label -> queue with SetHandler on it
	probeQ   int            // queue dequeued by the stage's probe loop (-1 none)
	affine   map[ir.Var]analysis.AffineDef
	counted  map[ir.Var]bool // induction vars of counted loops in this stage
}

// region is a run of top-level statements headed by an optional label.
type region struct {
	label string // "" for the entry region
	body  []ir.Stmt
	// kind classifies how often the region executes.
	kind regionKind
	// q is the queue whose token count drives the region's rate.
	q int
}

type regionKind int

const (
	regionEntry    regionKind = iota // executes once
	regionProbe                      // executes per data token of q
	regionDispatch                   // executes per ctrl token of q
	regionDone                       // executes once
)

func newModel(pl *pipeline.Pipeline, cfg arch.Config, par Params, progs []*isa.Program) *model {
	m := &model{
		pl:         pl,
		cfg:        cfg,
		par:        par,
		progs:      progs,
		data:       make([]float64, len(pl.Queues)),
		ctrl:       make([]float64, len(pl.Queues)),
		expansion:  make([]float64, len(pl.Stages)),
		prefetched: map[int]bool{},
	}
	for i, st := range pl.Stages {
		si := m.buildStageInfo(st)
		m.stages = append(m.stages, si)
		stmts := countStmts(st.Body)
		if stmts == 0 {
			stmts = 1
		}
		m.expansion[i] = 1
		if i < len(progs) && progs[i] != nil {
			m.expansion[i] = float64(len(progs[i].Instrs)) / float64(stmts)
		}
		markPrefetched(st.Body, m.prefetched)
	}
	return m
}

// buildStageInfo splits the stage body into regions and classifies each.
func (m *model) buildStageInfo(st *pipeline.Stage) *stageInfo {
	si := &stageInfo{
		st:       st,
		handlerQ: map[string]int{},
		probeQ:   -1,
		affine:   analysis.FindAffineDefs(st.Body),
		counted:  map[ir.Var]bool{},
	}
	collectCounted(st.Body, si.counted)
	collectHandlers(st.Body, si.handlerQ)
	si.regions = m.splitRegions(si, st.Body)
	return si
}

// splitRegions cuts a statement list at its top-level labels and classifies
// each region. Single-phase consumers carry the probe/dispatch machinery at
// the top of the stage body; multi-phase kernels nest it inside the mirrored
// outer-iteration loop, so the walker calls this again on loop bodies.
func (m *model) splitRegions(si *stageInfo, body []ir.Stmt) []region {
	var regions []region
	cur := region{}
	flush := func() {
		if cur.label != "" || len(cur.body) > 0 {
			regions = append(regions, cur)
		}
	}
	for _, s := range body {
		if l, ok := s.(*ir.Label); ok {
			flush()
			cur = region{label: l.Name}
			continue
		}
		cur.body = append(cur.body, s)
	}
	flush()

	for i := range regions {
		r := &regions[i]
		r.q = -1
		switch {
		case r.label == "":
			r.kind = regionEntry
		case isDispatch(r.body):
			r.kind = regionDispatch
		case hasGotoTo(r.body, r.label):
			r.kind = regionProbe
			r.q = firstDeq(r.body)
			if si.probeQ < 0 {
				si.probeQ = r.q
			}
		default:
			r.kind = regionDone
		}
	}
	// Dispatch regions run once per control token of the queue they serve:
	// the handler registration if present, otherwise the stage's probe queue.
	for i := range regions {
		r := &regions[i]
		if r.kind != regionDispatch {
			continue
		}
		if q, ok := si.handlerQ[r.label]; ok {
			r.q = q
		} else {
			r.q = si.probeQ
		}
	}
	return regions
}

// run iterates token propagation to a fixed point, then prices every entity
// against the final token counts.
func (m *model) run() *Report {
	rounds := len(m.pl.Stages) + len(m.pl.RAs) + 4
	if rounds > 24 {
		rounds = 24
	}
	for it := 0; it < rounds; it++ {
		nd := make([]float64, len(m.data))
		nc := make([]float64, len(m.ctrl))
		for _, si := range m.stages {
			m.walkStage(si, nd, nc, nil, nil)
		}
		// RA chains: a pass per RA propagates through any chain depth.
		for range m.pl.RAs {
			for _, ra := range m.pl.RAs {
				m.propagateRA(ra, nd, nc)
			}
		}
		if equalF(nd, m.data) && equalF(nc, m.ctrl) {
			break
		}
		m.data, m.ctrl = nd, nc
	}

	rep := &Report{
		Pipeline:    m.pl.Prog.Name,
		Description: m.pl.Description,
	}
	coreCost := map[int]float64{}
	for _, si := range m.stages {
		cost := &entityWalk{}
		m.walkStage(si, nil, nil, cost, nil)
		cost.cycles += cost.instrs * m.issueCPI()
		rep.Entities = append(rep.Entities, EntityCost{
			Name:   "stage " + si.st.Name,
			Core:   si.st.Thread.Core,
			Cycles: cost.cycles,
			Instrs: cost.instrs,
		})
		coreCost[si.st.Thread.Core] += cost.instrs
	}
	for _, ra := range m.pl.RAs {
		rep.Entities = append(rep.Entities, EntityCost{
			Name:   "RA " + ra.Name,
			IsRA:   true,
			Core:   ra.Core,
			Cycles: m.raCost(ra),
		})
	}

	// Per-core issue bound: total dynamic instructions over issue width.
	maxCore := -1
	for _, si := range m.stages {
		if si.st.Thread.Core > maxCore {
			maxCore = si.st.Thread.Core
		}
	}
	for c := 0; c <= maxCore; c++ {
		rep.Cores = append(rep.Cores, CoreLoad{
			Core:   c,
			Cycles: coreCost[c] / float64(m.cfg.IssueWidth),
		})
	}

	// Bottleneck and utilization. A do-nothing kernel leaves every entity
	// at zero demand; the first stage is still the (idle) bottleneck so a
	// report always names one.
	best := 0.0
	if len(rep.Entities) > 0 {
		rep.Bottleneck = rep.Entities[0].Name
	}
	for _, e := range rep.Entities {
		if e.Cycles > best {
			best = e.Cycles
			rep.Bottleneck = e.Name
		}
	}
	for _, c := range rep.Cores {
		if c.Cycles > best {
			best = c.Cycles
			rep.Bottleneck = fmt.Sprintf("core %d issue", c.Core)
		}
	}
	for i := range rep.Entities {
		if best > 0 {
			rep.Entities[i].Util = rep.Entities[i].Cycles / best
		}
	}
	rep.PredictedF = best + m.par.FillPerStage*float64(m.pl.TotalStages())
	rep.Predicted = uint64(math.Round(rep.PredictedF))

	// Queue traffic and capacity plan.
	burst := make([]float64, len(m.pl.Queues))
	for _, si := range m.stages {
		m.walkStage(si, nil, nil, nil, burst)
	}
	for _, ra := range m.pl.RAs {
		if ra.OutQ >= 0 && ra.OutQ < len(burst) {
			b := m.par.DefaultTrip
			if ra.Mode == arch.RAIndirect {
				b = float64(m.cfg.RAOutstanding)
			}
			if b > burst[ra.OutQ] {
				burst[ra.OutQ] = b
			}
		}
	}
	for q := range m.pl.Queues {
		rep.Queues = append(rep.Queues, QueuePlan{
			ID:          q,
			Name:        m.pl.Queues[q].Name,
			Data:        m.data[q],
			Ctrl:        m.ctrl[q],
			Burst:       burst[q],
			Depth:       m.pl.Queues[q].Depth,
			Recommended: m.recommend(burst[q]),
		})
	}
	return rep
}

// issueCPI is the average cycles one instruction occupies a thread when all
// SMT threads of a core compete for the issue width.
func (m *model) issueCPI() float64 {
	return float64(m.cfg.ThreadsPerCore) / float64(m.cfg.IssueWidth)
}

// recommend turns a burst estimate into a queue capacity: the next power of
// two above the burst (plus one slot of slack), floored at MinQueueRec and
// clamped to the architectural QueueDepth.
func (m *model) recommend(burst float64) int {
	want := int(math.Ceil(burst)) + 1
	if want < m.par.MinQueueRec {
		want = m.par.MinQueueRec
	}
	rec := 1
	for rec < want {
		rec <<= 1
	}
	if rec > m.cfg.QueueDepth {
		rec = m.cfg.QueueDepth
	}
	return rec
}

// raCost prices one RA's steady-state service demand.
func (m *model) raCost(ra arch.RASpec) float64 {
	if ra.InQ < 0 || ra.InQ >= len(m.data) {
		return 0
	}
	miss := float64(m.cfg.Mem.MemMinLatency) / float64(m.cfg.RAOutstanding)
	if miss < 1 {
		miss = 1
	}
	in := m.data[ra.InQ]
	if ra.Mode == arch.RAScan {
		groups := in / 2
		return groups*miss + groups*m.par.DefaultTrip*m.par.ScanPerToken
	}
	return in * miss
}

// propagateRA adds an RA's output tokens given its current input tokens.
func (m *model) propagateRA(ra arch.RASpec, data, ctrl []float64) {
	if ra.InQ < 0 || ra.InQ >= len(data) || ra.OutQ < 0 || ra.OutQ >= len(data) {
		return
	}
	in, inCtrl := data[ra.InQ], ctrl[ra.InQ]
	var out, outCtrl float64
	if ra.Mode == arch.RAScan {
		groups := in / 2
		out = groups * m.par.DefaultTrip
		outCtrl = inCtrl
		if ra.EmitNext {
			outCtrl += groups
		}
	} else {
		out = in
		outCtrl = inCtrl
	}
	data[ra.OutQ] = out
	ctrl[ra.OutQ] = outCtrl
}

// entityWalk accumulates one stage's cost during a pricing walk.
type entityWalk struct {
	cycles float64 // memory/queue/latency cost beyond issue slots
	instrs float64 // dynamic instruction estimate
}

// walkStage traverses one stage once. Exactly one of the three sinks is
// active: (data, ctrl) accumulate enqueue token rates for the fixed point,
// cost prices statements, and burst records per-region enqueue group sizes.
func (m *model) walkStage(si *stageInfo, data, ctrl []float64, cost *entityWalk, burst []float64) {
	idx := indexOfStage(m.pl, si.st)
	exp := 1.0
	if idx >= 0 {
		exp = m.expansion[idx]
	}
	for _, r := range si.regions {
		rate := m.regionRate(r, 1)
		if rate <= 0 {
			continue
		}
		w := &walker{m: m, si: si, data: data, ctrl: ctrl, cost: cost, burst: burst, exp: exp}
		w.stmts(r.body, rate, nil)
	}
}

// regionRate returns how many times a region executes per kernel unit under
// the current token counts. base is the execution rate of the surrounding
// code (1 at stage top level, the loop rate for machinery nested inside a
// mirrored outer loop): entry and done regions flow with it, while probe and
// dispatch regions execute once per token of their queue regardless of
// nesting depth.
func (m *model) regionRate(r region, base float64) float64 {
	switch r.kind {
	case regionProbe:
		if r.q >= 0 && r.q < len(m.data) {
			return m.data[r.q]
		}
		return m.par.DefaultTrip
	case regionDispatch:
		if r.q >= 0 && r.q < len(m.ctrl) {
			return m.ctrl[r.q]
		}
		return base
	default:
		return base
	}
}

// walker prices / measures a statement list at a given execution rate.
type walker struct {
	m     *model
	si    *stageInfo
	data  []float64
	ctrl  []float64
	cost  *entityWalk
	burst []float64
	exp   float64
	// depth counts enclosing loops (counted or not) within the region;
	// enqueues inside a loop burst a full trip's worth of tokens.
	depth int
}

// walkList walks a nested statement list. When the list carries labels it is
// consumer machinery nested inside a mirrored outer loop (multi-phase
// kernels): it is re-split into regions so that probe and dispatch sections
// are priced per token of their queue — per-kernel totals — rather than per
// iteration of the enclosing loop, keeping work estimates conserved between
// a configuration that prices a loop inline in its producer and one that
// prices the same loop mirrored inside a consumer.
func (w *walker) walkList(body []ir.Stmt, rate float64, loops []ir.Var) {
	if !hasLabel(body) {
		w.stmts(body, rate, loops)
		return
	}
	for _, r := range w.m.splitRegions(w.si, body) {
		rr := w.m.regionRate(r, rate)
		if rr <= 0 {
			continue
		}
		w.stmts(r.body, rr, loops)
	}
}

// stmts walks a body executing rate times. loops is the stack of enclosing
// counted-loop induction variables inside the current region.
func (w *walker) stmts(body []ir.Stmt, rate float64, loops []ir.Var) {
	m := w.m
	for _, s := range body {
		if w.cost != nil {
			w.cost.instrs += rate * w.exp
		}
		switch s := s.(type) {
		case *ir.Assign:
			switch src := s.Src.(type) {
			case *ir.RvalLoad:
				if w.cost != nil {
					w.cost.cycles += rate * w.loadCost(src, loops)
				}
			case *ir.RvalDeq:
				if w.cost != nil {
					w.cost.cycles += rate * m.par.QueueOp
				}
			case *ir.RvalBin:
				if w.cost != nil {
					switch {
					case src.Op == ir.OpDiv || src.Op == ir.OpRem:
						w.cost.cycles += rate * m.par.DivExtra
					case src.Float:
						w.cost.cycles += rate * m.par.FloatExtra
					}
				}
			}
		case *ir.Store:
			// Stores retire asynchronously; only the issue slot is priced.
		case *ir.Prefetch:
			if w.cost != nil {
				w.cost.cycles += rate * m.par.LoadSeq
			}
		case *ir.Enq:
			if w.data != nil && s.Q >= 0 && s.Q < len(w.data) {
				w.data[s.Q] += rate
			}
			if w.cost != nil {
				w.cost.cycles += rate * m.par.QueueOp
			}
			if w.burst != nil {
				w.noteBurst(s.Q)
			}
		case *ir.EnqCtrl:
			if w.ctrl != nil && s.Q >= 0 && s.Q < len(w.ctrl) {
				w.ctrl[s.Q] += rate
			}
			if w.cost != nil {
				w.cost.cycles += rate * m.par.QueueOp
			}
			if w.burst != nil {
				w.noteBurst(s.Q)
			}
		case *ir.If:
			// A branch with an empty or bare-jump arm is dispatch shape,
			// not a 50/50 data split: the consumer codegen injects one
			// such If (is_ctrl test -> Goto dispatch) per decoupled
			// stage, so halving here would discount all work downstream
			// of every extra stage by 2x and make deeper pipelines look
			// systematically cheaper than the same work priced in a
			// producer. Pricing both arms at the parent rate keeps
			// enqueue rates conserved across decoupling cuts; genuine
			// two-armed data branches still split the rate evenly.
			br := rate / 2
			if bareArm(s.Then) || bareArm(s.Else) {
				br = rate
			}
			w.stmts(s.Then, br, loops)
			w.stmts(s.Else, br, loops)
		case *ir.Loop:
			trip := w.tripOf(s, rate)
			inner := loops
			if s.Counted != nil {
				inner = append(append([]ir.Var(nil), loops...), s.Counted.Ind)
			}
			w.depth++
			w.walkList(s.Pre, rate*trip, loops)
			w.walkList(s.Body, rate*trip, inner)
			w.depth--
		case *ir.Barrier:
			if w.cost != nil {
				w.cost.cycles += rate * m.par.FillPerStage
			}
		}
	}
}

// tripOf estimates a loop's iteration count per execution of its parent.
func (w *walker) tripOf(l *ir.Loop, rate float64) float64 {
	m := w.m
	if l.Counted != nil && l.Counted.Init.IsConst && l.Counted.Bound.IsConst {
		n := l.Counted.Bound.Imm - l.Counted.Init.Imm
		if n < 0 {
			n = 0
		}
		if n > m.par.MaxConstTrip {
			n = m.par.MaxConstTrip
		}
		return float64(n)
	}
	// Frame-mirror loops dequeue their continue flag in Pre: the loop runs
	// once per token of that queue, total, regardless of the parent rate.
	if q := firstDeq(l.Pre); q >= 0 && q < len(m.data) && rate > 0 {
		t := m.data[q] / rate
		if t > 0 {
			return t
		}
	}
	return m.par.DefaultTrip
}

// loadCost classifies a load the way the candidate analysis does and prices
// it. Loads whose index follows an enclosing counted induction variable
// stream sequentially; indexes derived from dequeued values are the
// decoupled-pointer case and pay (discounted, when prefetched) miss latency.
func (w *walker) loadCost(l *ir.RvalLoad, loops []ir.Var) float64 {
	m := w.m
	if l.Idx.IsConst {
		return m.par.LoadNearby
	}
	base, _, ok := analysis.Resolve(l.Idx.Var, w.si.affine)
	if !ok {
		base = l.Idx.Var
	}
	for _, ind := range loops {
		if base == ind {
			return m.par.LoadSeq
		}
	}
	if w.si.counted[base] {
		return m.par.LoadSeq
	}
	c := m.par.LoadIndirect
	if m.prefetched[l.Slot] {
		c *= m.par.PrefetchedFactor
	}
	return c
}

// noteBurst records the largest enqueue group for a queue: an enqueue
// inside a loop can emit a trip's worth of tokens before the consumer is
// guaranteed to drain any, capped at BurstCap.
func (w *walker) noteBurst(q int) {
	b := 1.0
	if w.depth > 0 {
		b = w.m.par.DefaultTrip
	}
	if b > w.m.par.BurstCap {
		b = w.m.par.BurstCap
	}
	if q >= 0 && q < len(w.burst) && b > w.burst[q] {
		w.burst[q] = b
	}
}

// --- structural helpers ------------------------------------------------------

func indexOfStage(pl *pipeline.Pipeline, st *pipeline.Stage) int {
	for i, s := range pl.Stages {
		if s == st {
			return i
		}
	}
	return -1
}

func countStmts(body []ir.Stmt) int {
	n := 0
	for _, s := range body {
		n++
		switch s := s.(type) {
		case *ir.If:
			n += countStmts(s.Then) + countStmts(s.Else)
		case *ir.Loop:
			n += countStmts(s.Pre) + countStmts(s.Body)
		}
	}
	return n
}

func collectCounted(body []ir.Stmt, counted map[ir.Var]bool) {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.If:
			collectCounted(s.Then, counted)
			collectCounted(s.Else, counted)
		case *ir.Loop:
			if s.Counted != nil {
				counted[s.Counted.Ind] = true
			}
			collectCounted(s.Pre, counted)
			collectCounted(s.Body, counted)
		}
	}
}

func collectHandlers(body []ir.Stmt, out map[string]int) {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.SetHandler:
			out[s.Label] = s.Q
		case *ir.If:
			collectHandlers(s.Then, out)
			collectHandlers(s.Else, out)
		case *ir.Loop:
			collectHandlers(s.Pre, out)
			collectHandlers(s.Body, out)
		}
	}
}

func markPrefetched(body []ir.Stmt, out map[int]bool) {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.Prefetch:
			out[s.Slot] = true
		case *ir.If:
			markPrefetched(s.Then, out)
			markPrefetched(s.Else, out)
		case *ir.Loop:
			markPrefetched(s.Pre, out)
			markPrefetched(s.Body, out)
		}
	}
}

// isDispatch reports whether a region decodes control values (it reads a
// handler value or extracts a control code near its head).
func isDispatch(body []ir.Stmt) bool {
	for _, s := range body {
		a, ok := s.(*ir.Assign)
		if !ok {
			continue
		}
		switch src := a.Src.(type) {
		case *ir.RvalHandlerVal:
			return true
		case *ir.RvalUn:
			if src.Op == ir.OpCtrlCode {
				return true
			}
		}
	}
	return false
}

// hasLabel reports whether a statement list carries a top-level label.
func hasLabel(body []ir.Stmt) bool {
	for _, s := range body {
		if _, ok := s.(*ir.Label); ok {
			return true
		}
	}
	return false
}

// bareArm reports whether an If arm is empty or a lone control transfer —
// the shape of a protocol dispatch test rather than a data-dependent split.
func bareArm(body []ir.Stmt) bool {
	if len(body) == 0 {
		return true
	}
	if len(body) == 1 {
		switch body[0].(type) {
		case *ir.Goto, *ir.Halt:
			return true
		}
	}
	return false
}

// hasGotoTo reports whether body (recursively) jumps back to the label.
func hasGotoTo(body []ir.Stmt, label string) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.Goto:
			if s.Name == label {
				return true
			}
		case *ir.If:
			if hasGotoTo(s.Then, label) || hasGotoTo(s.Else, label) {
				return true
			}
		case *ir.Loop:
			if hasGotoTo(s.Pre, label) || hasGotoTo(s.Body, label) {
				return true
			}
		}
	}
	return false
}

// firstDeq returns the queue of the first dequeue in the body (-1 if none).
func firstDeq(body []ir.Stmt) int {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.Assign:
			if d, ok := s.Src.(*ir.RvalDeq); ok {
				return d.Q
			}
		case *ir.If:
			if q := firstDeq(s.Then); q >= 0 {
				return q
			}
			if q := firstDeq(s.Else); q >= 0 {
				return q
			}
		case *ir.Loop:
			if q := firstDeq(s.Pre); q >= 0 {
				return q
			}
			if q := firstDeq(s.Body); q >= 0 {
				return q
			}
		}
	}
	return -1
}

func equalF(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- rendering ---------------------------------------------------------------

// String renders the report deterministically (golden-test friendly).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost %s: %s\n", r.Pipeline, r.Description)
	fmt.Fprintf(&sb, "predicted %d cycles, bottleneck %s\n", r.Predicted, r.Bottleneck)
	for _, e := range r.Entities {
		fmt.Fprintf(&sb, "  %-28s core %d  cost %10.1f  util %3.0f%%\n",
			e.Name, e.Core, e.Cycles, e.Util*100)
	}
	for _, c := range r.Cores {
		fmt.Fprintf(&sb, "  %-28s         load %10.1f\n",
			fmt.Sprintf("core %d issue", c.Core), c.Cycles)
	}
	for _, q := range r.Queues {
		depth := "default"
		if q.Depth > 0 {
			depth = fmt.Sprintf("%d", q.Depth)
		}
		fmt.Fprintf(&sb, "  q%-2d %-24s data %8.1f  ctrl %6.1f  burst %4.0f  depth %-7s rec %d\n",
			q.ID, q.Name, q.Data, q.Ctrl, q.Burst, depth, q.Recommended)
	}
	return sb.String()
}

// SpearmanRank computes the Spearman rank-correlation coefficient between
// two paired samples (ties receive average ranks). Returns 0 when fewer
// than two pairs or when either side is constant.
func SpearmanRank(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb)
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort keeps this dependency-free and deterministic.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && v[idx[j]] < v[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
