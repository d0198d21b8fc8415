package verify

import (
	"fmt"
	"strings"

	"phloem/internal/isa"
)

// checkTopology implements the Q rules:
//
//	Q1 (error):   a queue has more than one consumer entity. The machine
//	              model serializes on a single consumer per queue; two
//	              dequeuers race nondeterministically.
//	Q2:           an entity consumes its own output. For an RA (InQ == OutQ)
//	              this is always broken (error); a software stage using a
//	              queue as a private buffer merely risks deadlock (warning),
//	              which Q3 analyzes precisely.
//	Q3 (error):   startup deadlock. An entity "must block" on queue q when
//	              every path from its entry reaches a deq/peek of q before
//	              any enqueue or halt; a cycle of such must-block edges
//	              through queue producers means every party waits forever
//	              before the first value moves. Feedback queues (BFS-style
//	              frontier recycling) are legal exactly because their
//	              consumer can produce before first dequeuing them.
func (m *model) checkTopology() {
	for q := range m.pl.Queues {
		if len(m.consumers[q]) > 1 {
			names := make([]string, len(m.consumers[q]))
			for i, e := range m.consumers[q] {
				names[i] = m.entityName(e)
			}
			m.diag("Q1", SevError, "", q, -1, "queue has %d consumers (%s); exactly one entity may dequeue a queue",
				len(names), strings.Join(names, ", "))
		}
	}
	for _, ra := range m.pl.RAs {
		if ra.InQ == ra.OutQ {
			m.diag("Q2", SevError, ra.Name, ra.InQ, -1, "RA consumes its own output queue")
		}
	}
	for i, st := range m.pl.Stages {
		if m.progs[i] == nil {
			continue
		}
		qo := m.ops[i]
		for q := range m.pl.Queues {
			if len(qo.enq[q]) > 0 && (len(qo.deq[q]) > 0 || len(qo.peek[q]) > 0) {
				m.diag("Q2", SevWarning, st.Name, q, qo.enq[q][0],
					"stage both enqueues and dequeues this queue (self-loop)")
			}
		}
	}
	m.checkStartupDeadlock()
}

// qedge is one must-block dependency: the owning entity cannot produce until
// entity `to` produces into queue `q`.
type qedge struct{ to, q int }

func (m *model) checkStartupDeadlock() {
	numEnts := m.numStages() + len(m.pl.RAs)
	edges := make([][]qedge, numEnts)
	for i := range m.pl.Stages {
		prog := m.progs[i]
		if prog == nil {
			continue
		}
		qo := m.ops[i]
		for q := range m.pl.Queues {
			if len(qo.deq[q]) == 0 && len(qo.peek[q]) == 0 {
				continue
			}
			if stageMustBlockOn(prog, m.succs[i], q) {
				for _, p := range m.producers[q] {
					edges[i] = append(edges[i], qedge{to: p, q: q})
				}
			}
		}
	}
	for r, ra := range m.pl.RAs {
		// An RA produces nothing until its input queue delivers.
		ent := m.numStages() + r
		if ra.InQ >= 0 && ra.InQ < len(m.pl.Queues) {
			for _, p := range m.producers[ra.InQ] {
				edges[ent] = append(edges[ent], qedge{to: p, q: ra.InQ})
			}
		}
	}

	const (
		white = iota
		gray
		black
	)
	color := make([]int, numEnts)
	var stack []qedge // stack[i].to is the i-th entity entered from the root
	var root int
	var dfs func(ent int) bool
	dfs = func(ent int) bool {
		color[ent] = gray
		for _, e := range edges[ent] {
			if color[e.to] == gray {
				m.diag("Q3", SevError, "", e.q, -1, "startup deadlock: %s",
					m.cycleMessage(root, stack, e))
				return true
			}
			if color[e.to] == white {
				stack = append(stack, e)
				found := dfs(e.to)
				stack = stack[:len(stack)-1]
				if found {
					return true
				}
			}
		}
		color[ent] = black
		return false
	}
	for ent := 0; ent < numEnts; ent++ {
		if color[ent] == white {
			stack = stack[:0]
			root = ent
			dfs(ent)
		}
	}
}

// cycleMessage renders the must-block cycle closed by `closing`, e.g.
// "stage A waits on q1(x) from RA B, RA B waits on q0(y) from stage A".
func (m *model) cycleMessage(root int, stack []qedge, closing qedge) string {
	// The DFS path is root, stack[0].to, stack[1].to, ...; the cycle runs
	// from the entity closing.to back around to the path's tail.
	ents := []int{root}
	qs := []int{} // qs[i] labels the edge ents[i] -> ents[i+1]
	for _, e := range stack {
		ents = append(ents, e.to)
		qs = append(qs, e.q)
	}
	start := 0
	for i, e := range ents {
		if e == closing.to {
			start = i
		}
	}
	var parts []string
	for i := start; i < len(ents); i++ {
		viaQ, next := closing.q, closing.to
		if i < len(ents)-1 {
			viaQ, next = qs[i], ents[i+1]
		}
		parts = append(parts, fmt.Sprintf("%s waits on q%d(%s) from %s",
			m.entityName(ents[i]), viaQ, m.pl.Queues[viaQ].Name, m.entityName(next)))
	}
	return strings.Join(parts, ", ")
}

// stageMustBlockOn reports whether every execution path from the stage entry
// reaches a deq/peek of q before any enqueue (to any queue) or halt. When
// true, the stage cannot contribute a single value to the pipeline until q's
// producer runs. succs is prog.CFG().
func stageMustBlockOn(prog *isa.Program, succs [][]int, q int) bool {
	if len(prog.Instrs) == 0 {
		return false
	}
	seen := make([]bool, len(prog.Instrs))
	work := []int{0}
	seen[0] = true
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := &prog.Instrs[pc]
		switch in.Op {
		case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV, isa.OpHalt:
			// Reached a producing action (or a clean exit) without passing a
			// blocking consume of q.
			return false
		case isa.OpDeq, isa.OpPeek:
			if in.Q == q {
				// Blocks here with q empty; do not traverse past.
				continue
			}
		}
		for _, n := range succs[pc] {
			if !seen[n] {
				seen[n] = true
				work = append(work, n)
			}
		}
	}
	return true
}
