// Package commopt is the static queue-communication optimization pass. It
// runs after the pipelining passes, over the same post-pass stage programs
// the simulator executes, and does two things:
//
//  1. Token-flow/occupancy analysis: it extends the cost model's per-queue
//     traffic plan (tokens/unit, burst) with producer/consumer rate matching,
//     a waits-for cycle classification over the queue topology, and per-queue
//     commitment floors. The result is, per queue, a *proven* occupancy bound
//     (a bounded queue can never hold more than its effective capacity) plus
//     a steady-state estimate, a forward/backward (feedback) classification,
//     and the two floors the deadlock argument needs: the longest
//     back-to-back enqueue run (GroupFloor) and the producer's largest static
//     per-token commitment (SiteFloor).
//  2. Capacity application: inferred capacities are written into
//     pipeline.Queue.Depth (marked DepthByPass). An explicit user depth is
//     never overridden, the architectural QueueDepth is never exceeded, and
//     the deadlock proof (DESIGN.md section 14; verified as rule Q4) rests on
//     two restrictions: backward (feedback) queues are never assigned, and
//     every assigned capacity covers the producing stage's whole per-token
//     commitment (every enqueue site its handler-loop body can reach). Under
//     the pipeline grammar this compiler emits — per-token handler loops
//     connected by FIFOs, with loop-carried values on feedback queues — a
//     producer blocked on a full assigned queue therefore has a completed
//     token's worth of data sitting in that queue, which (by induction along
//     the forward chain) its consumer can always eventually drain, so the
//     assignment cannot introduce a capacity-induced deadlock relative to
//     the default configuration.
//
// The pass is wired behind core.Options.CommOpt (default off; compiled
// output is bit-identical when off) and verified by rules Q4 (capacity-cycle
// safety) and W2 (pass-assigned undersizing) in internal/verify.
package commopt

import (
	"fmt"
	"math"

	"phloem/internal/arch"
	"phloem/internal/costmodel"
	"phloem/internal/pipeline"
)

// QueuePlan is the analysis result and decision for one queue.
type QueuePlan struct {
	ID   int
	Name string
	// Data, Ctrl, Burst come from the cost model's traffic plan (tokens per
	// kernel unit; Burst is the largest group sent before a guaranteed
	// drain opportunity).
	Data, Ctrl, Burst float64
	// GroupFloor is the longest run of back-to-back enqueues into this
	// queue with no other queue operation between them — the producer
	// commits to this many tokens before reaching an instruction that can
	// unblock anyone else, so assigned capacities never go below it.
	GroupFloor int
	// SiteFloor is the largest number of static enqueue sites into this
	// queue in any single producing stage — the stage's whole per-token
	// commitment. Assigned capacities never go below it either; that is
	// what lets the Q4 induction treat a full-queue block as "a completed
	// token's worth of data is available downstream".
	SiteFloor int
	// ProdCycles/ConsCycles are the per-unit service demands of the
	// producer and consumer entities (rate matching: the queue tends to run
	// full when ProdCycles < ConsCycles).
	ProdCycles, ConsCycles float64
	// OnCycle marks queues whose backpressure edge lies on a non-trivial
	// cycle of the entity graph; with feedback every forward queue is, so
	// this is reported but gating uses Backward and the floors instead.
	OnCycle bool
	// Backward marks feedback queues (a producer positioned later in the
	// forward chain than a consumer). The pass never assigns these: they
	// close the pipeline's waits-for cycles, and keeping them at the
	// machine default is one premise of the Q4 deadlock argument.
	Backward bool
	// Class records the policy class the assignment decision used:
	// "backward", "ra-out", "ra-in", or "forward".
	Class string
	// UserSet marks an explicit author depth; the pass never touches it.
	UserSet bool
	// Before and After are the effective capacities before and after the
	// pass (the machine default when no override applies).
	Before, After int
	// Assigned marks queues whose Depth the pass wrote.
	Assigned bool
	// MaxOcc is the proven occupancy bound: the effective capacity after
	// the pass. Telemetry-observed time-weighted max occupancy can never
	// exceed it.
	MaxOcc int
	// EstOcc is the steady-state occupancy estimate from burst and rate
	// matching (capacity-clamped; the queue runs ~full when the producer
	// outpaces the consumer).
	EstOcc float64
}

// Plan is the full analysis/optimization result for one pipeline.
type Plan struct {
	Pipeline string
	// Default is the machine default queue capacity the plan is relative to.
	Default int
	Queues  []QueuePlan
	// Predicted is the cost model's cycle estimate the plan was made from
	// (costmodel.Report.Predicted): queue capacities do not enter it, so it
	// holds for the pipeline before and after Apply.
	Predicted uint64
}

// Analyze computes the plan without mutating the pipeline: the returned
// depths are what Apply would write.
func Analyze(pl *pipeline.Pipeline, cfg arch.Config) (*Plan, error) {
	cp := *pl
	cp.Queues = append([]pipeline.Queue(nil), pl.Queues...)
	return Apply(&cp, cfg)
}

// Apply analyzes the pipeline and writes the inferred capacities into its
// queues in place.
func Apply(pl *pipeline.Pipeline, cfg arch.Config) (*Plan, error) {
	plan := &Plan{Pipeline: pl.Prog.Name, Default: cfg.QueueDepth}

	// The cost model, the rate/floor analysis, and the cycle check all look
	// at the stage programs the simulator would run.
	progs, err := pipeline.FlattenStages(pl)
	if err != nil {
		return nil, fmt.Errorf("commopt: %w", err)
	}
	rep := costmodel.AnalyzeFlat(pl, cfg, progs)
	plan.Predicted = rep.Predicted
	g := buildGraph(pl, progs)
	gFloors := groupFloors(pl, progs)
	sFloors := siteFloors(pl, progs)
	pos := g.positions(pl)

	ents := map[string]costmodel.EntityCost{}
	for _, e := range rep.Entities {
		ents[e.Name] = e
	}
	burst := make([]float64, len(pl.Queues))
	for _, qp := range rep.Queues {
		burst[qp.ID] = qp.Burst
	}

	for _, qp := range rep.Queues {
		p := QueuePlan{
			ID: qp.ID, Name: qp.Name,
			Data: qp.Data, Ctrl: qp.Ctrl, Burst: qp.Burst,
			GroupFloor: gFloors[qp.ID],
			SiteFloor:  sFloors[qp.ID],
			OnCycle:    g.onCycle(qp.ID),
			Backward:   g.backward(qp.ID, pos),
			UserSet:    qp.Depth > 0 && !pl.Queues[qp.ID].DepthByPass,
			Before:     effDepth(qp.Depth, cfg),
		}
		p.ProdCycles, p.ConsCycles = g.rates(qp.ID, pl, ents)
		p.Class = g.classify(pl, qp.ID, p.Backward)
		p.After = p.Before
		if !p.UserSet && g.shrinkable(pl, qp.ID, p.Class, burst, pos) {
			d := inferDepth(&p, qp.Recommended, cfg)
			if d < p.Before {
				p.After = d
				p.Assigned = true
				pl.Queues[qp.ID].Depth = d
				pl.Queues[qp.ID].DepthByPass = true
			}
		}
		p.MaxOcc = p.After
		p.EstOcc = estOccupancy(&p)
		plan.Queues = append(plan.Queues, p)
	}
	if err := plan.Check(cfg); err != nil {
		return nil, fmt.Errorf("commopt: plan fails its own safety check: %w", err)
	}
	return plan, nil
}

// inferDepth picks the capacity for a shrinkable queue: the cost model's
// recommendation (next power of two above burst+1, floored at MinQueueRec),
// raised to the commitment floors the Q4 argument requires, clamped to the
// architectural QueueDepth.
func inferDepth(p *QueuePlan, recommended int, cfg arch.Config) int {
	d := recommended
	if d < p.GroupFloor {
		d = p.GroupFloor
	}
	if d < p.SiteFloor {
		d = p.SiteFloor
	}
	if d < 1 {
		d = 1
	}
	if d > cfg.QueueDepth {
		d = cfg.QueueDepth
	}
	return d
}

// estOccupancy is the steady-state occupancy estimate: a queue whose
// producer outpaces its consumer runs at capacity; otherwise tokens drain as
// they arrive and the standing population is the burst (plus the in-flight
// slot), capacity-clamped.
func estOccupancy(p *QueuePlan) float64 {
	if p.ProdCycles > 0 && p.ConsCycles > 0 && p.ProdCycles < p.ConsCycles {
		return float64(p.After)
	}
	return math.Min(float64(p.After), p.Burst+1)
}

func effDepth(depth int, cfg arch.Config) int {
	if depth > 0 {
		return depth
	}
	return cfg.QueueDepth
}

// Check is the plan's self-verification (rule Q4's obligations, also the
// fuzz target's invariants): every capacity in [1, QueueDepth], assigned
// capacities at or above both commitment floors, and backward (feedback) and
// user-set queues untouched.
func (p *Plan) Check(cfg arch.Config) error {
	for _, q := range p.Queues {
		if q.After < 1 || q.After > cfg.QueueDepth {
			return fmt.Errorf("q%d(%s): capacity %d outside [1, %d]", q.ID, q.Name, q.After, cfg.QueueDepth)
		}
		if q.Assigned && q.After < q.GroupFloor {
			return fmt.Errorf("q%d(%s): assigned capacity %d below group floor %d", q.ID, q.Name, q.After, q.GroupFloor)
		}
		if q.Assigned && q.After < q.SiteFloor {
			return fmt.Errorf("q%d(%s): assigned capacity %d below site floor %d", q.ID, q.Name, q.After, q.SiteFloor)
		}
		if q.Assigned && q.Backward {
			return fmt.Errorf("q%d(%s): pass assigned a backward (feedback) queue", q.ID, q.Name)
		}
		if q.Assigned && q.UserSet {
			return fmt.Errorf("q%d(%s): pass overrode a user-set depth", q.ID, q.Name)
		}
	}
	return nil
}
