package commopt

import (
	"phloem/internal/arch"
	"phloem/internal/costmodel"
	"phloem/internal/isa"
	"phloem/internal/pipeline"
)

// graph is the entity graph the capacity-cycle check runs over. Entities
// number the software stages first, then the RAs (the same scheme as
// internal/verify). Every queue q contributes forward edges prod(q)->cons(q)
// (tokens flow downstream) and a backpressure edge cons(q)->prod(q) (a full
// queue blocks its producers).
type graph struct {
	numEnts   int
	producers [][]int // queue -> producing entities
	consumers [][]int // queue -> consuming entities
	// edges[e] lists (to, q, back) triples: the edge exists because of
	// queue q; back marks backpressure edges.
	edges [][]gedge
}

type gedge struct {
	to   int
	q    int
	back bool
}

func buildGraph(pl *pipeline.Pipeline, progs []*isa.Program) *graph {
	g := &graph{
		numEnts:   len(pl.Stages) + len(pl.RAs),
		producers: make([][]int, len(pl.Queues)),
		consumers: make([][]int, len(pl.Queues)),
	}
	for i, prog := range progs {
		if prog == nil {
			continue
		}
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				g.producers[in.Q] = addOnce(g.producers[in.Q], i)
			case isa.OpDeq, isa.OpPeek, isa.OpSetHandler:
				g.consumers[in.Q] = addOnce(g.consumers[in.Q], i)
			}
		}
	}
	for r, ra := range pl.RAs {
		ent := len(pl.Stages) + r
		if ra.InQ >= 0 && ra.InQ < len(pl.Queues) {
			g.consumers[ra.InQ] = addOnce(g.consumers[ra.InQ], ent)
		}
		if ra.OutQ >= 0 && ra.OutQ < len(pl.Queues) {
			g.producers[ra.OutQ] = addOnce(g.producers[ra.OutQ], ent)
		}
	}
	g.edges = make([][]gedge, g.numEnts)
	for q := range pl.Queues {
		for _, p := range g.producers[q] {
			for _, c := range g.consumers[q] {
				g.edges[p] = append(g.edges[p], gedge{to: c, q: q})
				g.edges[c] = append(g.edges[c], gedge{to: p, q: q, back: true})
			}
		}
	}
	return g
}

func addOnce(list []int, e int) []int {
	for _, x := range list {
		if x == e {
			return list
		}
	}
	return append(list, e)
}

// onCycle reports whether queue q's backpressure edge closes a non-trivial
// cycle: some consumer of q reaches some producer of q without using q's own
// backpressure edge. Every queue trivially closes the 2-cycle
// prod -> cons -> prod through its own forward+backpressure pair; that cycle
// cannot deadlock on capacity alone (the consumer's only obligation is to
// drain, which a full queue never prevents), so it is excluded.
func (g *graph) onCycle(q int) bool {
	if len(g.consumers[q]) == 0 || len(g.producers[q]) == 0 {
		return false
	}
	isProd := map[int]bool{}
	for _, p := range g.producers[q] {
		isProd[p] = true
	}
	seen := make([]bool, g.numEnts)
	var work []int
	for _, c := range g.consumers[q] {
		if !seen[c] {
			seen[c] = true
			work = append(work, c)
		}
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ed := range g.edges[e] {
			if ed.back && ed.q == q {
				continue // q's own backpressure edge: the trivial closure
			}
			if isProd[ed.to] {
				return true
			}
			if !seen[ed.to] {
				seen[ed.to] = true
				work = append(work, ed.to)
			}
		}
	}
	return false
}

// rates returns the per-unit service demand of queue q's producer and
// consumer entities (the fastest producer when several feed it, since the
// fastest is what fills the queue). Zero means the endpoint is unknown.
func (g *graph) rates(q int, pl *pipeline.Pipeline, ents map[string]costmodel.EntityCost) (prod, cons float64) {
	name := func(e int) string {
		if e < len(pl.Stages) {
			return "stage " + pl.Stages[e].Name
		}
		return "RA " + pl.RAs[e-len(pl.Stages)].Name
	}
	for _, p := range g.producers[q] {
		if ec, ok := ents[name(p)]; ok && (prod == 0 || ec.Cycles < prod) {
			prod = ec.Cycles
		}
	}
	for _, c := range g.consumers[q] {
		if ec, ok := ents[name(c)]; ok && (cons == 0 || ec.Cycles > cons) {
			cons = ec.Cycles
		}
	}
	return prod, cons
}

// positions assigns each entity its rank along the forward pipeline chain:
// stage i sits at position i; an RA sits half a step after the latest stage
// feeding its input queue (RA relay chains resolve by relaxation). The ranks
// order the chain so backward() can tell feedback queues from forward ones.
func (g *graph) positions(pl *pipeline.Pipeline) []float64 {
	pos := make([]float64, g.numEnts)
	for i := range pl.Stages {
		pos[i] = float64(i)
	}
	for r := range pl.RAs {
		pos[len(pl.Stages)+r] = -1
	}
	for round := 0; round <= len(pl.RAs); round++ {
		for r, ra := range pl.RAs {
			ent := len(pl.Stages) + r
			if ra.InQ < 0 || ra.InQ >= len(pl.Queues) {
				pos[ent] = 0
				continue
			}
			best := -1.0
			for _, p := range g.producers[ra.InQ] {
				if p != ent && pos[p] > best {
					best = pos[p]
				}
			}
			if best >= 0 {
				pos[ent] = best + 0.5
			}
		}
	}
	for r := range pl.RAs {
		if pos[len(pl.Stages)+r] < 0 {
			pos[len(pl.Stages)+r] = 0
		}
	}
	return pos
}

// backward reports whether q is a feedback queue: some producer sits later
// in the forward chain than some consumer. Feedback queues close the
// pipeline's waits-for cycles; the pass never assigns them.
func (g *graph) backward(q int, pos []float64) bool {
	for _, p := range g.producers[q] {
		for _, c := range g.consumers[q] {
			if pos[p] > pos[c] {
				return true
			}
		}
	}
	return false
}

// classify names the policy class of queue q. Precedence: backward first
// (feedback dominates everything), then RA endpoints, then plain
// stage-to-stage forward queues.
func (g *graph) classify(pl *pipeline.Pipeline, q int, backward bool) string {
	if backward {
		return "backward"
	}
	if g.raProduces(pl, q) {
		return "ra-out"
	}
	if g.raConsumes(pl, q) != nil {
		return "ra-in"
	}
	return "forward"
}

func (g *graph) raProduces(pl *pipeline.Pipeline, q int) bool {
	for _, p := range g.producers[q] {
		if p >= len(pl.Stages) {
			return true
		}
	}
	return false
}

func (g *graph) raConsumes(pl *pipeline.Pipeline, q int) *arch.RASpec {
	for _, c := range g.consumers[q] {
		if c >= len(pl.Stages) {
			return &pl.RAs[c-len(pl.Stages)]
		}
	}
	return nil
}

// shrinkable is the calibrated assignment policy, tuned with a per-queue
// shrink sweep over the five benchmark families (EXPERIMENTS.md records the
// sweep; the Q4 floors make every allowed shrink deadlock-safe, this policy
// decides which safe shrinks are *profitable*):
//
//   - backward: never (Q4 premise).
//   - ra-out: throttling an accelerator's output queue bounds how far its
//     memory stream runs ahead of the consuming stage, which keeps its
//     loads resident in the shared cache until they are used (BFS -0.06%,
//     Radii -0.40% cycles and -3% queue-full stalls). Skipped when the
//     consuming stage is rate-coupled to another low-burst stage-to-stage
//     queue: the throttle then serializes that neighbor stream through the
//     consumer's token loop (CC's scan output feeds such a stage; shrinking
//     it cost +0.4%).
//   - ra-in: only for INDIRECT accelerators, whose 1:1 relay makes the
//     in-queue working set the site floor (BFS -0.10%). SCAN in-queues
//     carry [start,end) ranges whose amplification is data-dependent;
//     shrinking them serialized the producer against scan latency
//     (CC +1.1%).
//   - forward: only large-burst streams (burst >= 4), where the burst-based
//     recommendation still leaves 2x slack. Low-burst side channels are the
//     pipelines' rate-matching buffers; sizing them to their tiny bursts
//     serialized whole stage pairs (CC +7.7%, Radii +34% queue-full
//     stalls).
func (g *graph) shrinkable(pl *pipeline.Pipeline, q int, class string, burst []float64, pos []float64) bool {
	switch class {
	case "ra-out":
		for _, c := range g.consumers[q] {
			if c >= len(pl.Stages) {
				continue // RA-to-RA relay: no token loop to serialize
			}
			for q2, cons := range g.consumers {
				if q2 == q || g.raProduces(pl, q2) || g.backward(q2, pos) || burst[q2] >= 2 {
					continue
				}
				for _, c2 := range cons {
					if c2 == c {
						return false
					}
				}
			}
		}
		return true
	case "ra-in":
		ra := g.raConsumes(pl, q)
		return ra != nil && ra.Mode == arch.RAIndirect
	case "forward":
		return burst[q] >= 4
	}
	return false
}

// siteFloors counts, per queue, the largest number of static enqueue sites
// in any single producing stage program — the stage's whole per-token
// commitment to that queue. Clamped nowhere: inferDepth clamps to the
// architectural depth, and a floor above it simply means "not assignable".
func siteFloors(pl *pipeline.Pipeline, progs []*isa.Program) []int {
	floors := make([]int, len(pl.Queues))
	for i := range floors {
		floors[i] = 1
	}
	for _, prog := range progs {
		if prog == nil {
			continue
		}
		sites := map[int]int{}
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				sites[in.Q]++
			}
		}
		for q, n := range sites {
			if n > floors[q] {
				floors[q] = n
			}
		}
	}
	return floors
}

// groupFloors finds, per queue, the longest static run of back-to-back
// enqueues with no other queue operation between them (a SCAN range send is
// a run of two). The producer commits to the whole run before it reaches an
// instruction that could let anyone else progress, so assigned capacities
// never go below it.
func groupFloors(pl *pipeline.Pipeline, progs []*isa.Program) []int {
	floors := make([]int, len(pl.Queues))
	for i := range floors {
		floors[i] = 1
	}
	for _, prog := range progs {
		if prog == nil {
			continue
		}
		curQ, curLen := -1, 0
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				if in.Q == curQ {
					curLen++
				} else {
					curQ, curLen = in.Q, 1
				}
				if curLen > floors[curQ] {
					floors[curQ] = curLen
				}
			case isa.OpDeq, isa.OpPeek:
				curQ, curLen = -1, 0
			}
		}
	}
	return floors
}
