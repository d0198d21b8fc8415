package isa

// CFG computes each instruction's control-flow successor list, including
// handler-redirect edges: a Deq (or Peek) on a queue for which the program
// registers a control-value handler may transfer control to the handler
// target instead of falling through. Successor lists are in deterministic
// order (fallthrough first, then branch/handler targets).
//
// The result is indexed by pc; Halt has no successors. Callers must have
// validated the program first (targets in range).
func (p *Program) CFG() [][]int {
	// Handler targets per queue: SetHandler is a dynamic registration, so any
	// Deq on a handled queue conservatively gets an edge to every handler the
	// program can register for that queue.
	handlers := map[int][]int{}
	for _, in := range p.Instrs {
		if in.Op == OpSetHandler {
			handlers[in.Q] = appendUnique(handlers[in.Q], in.Target)
		}
	}
	succs := make([][]int, len(p.Instrs))
	for pc, in := range p.Instrs {
		var s []int
		switch in.Op {
		case OpHalt:
			// no successors
		case OpJmp:
			s = append(s, in.Target)
		case OpBr, OpBrZ:
			if pc+1 < len(p.Instrs) {
				s = append(s, pc+1)
			}
			s = appendUnique(s, in.Target)
		case OpDeq, OpPeek:
			if pc+1 < len(p.Instrs) {
				s = append(s, pc+1)
			}
			for _, h := range handlers[in.Q] {
				s = appendUnique(s, h)
			}
		default:
			if pc+1 < len(p.Instrs) {
				s = append(s, pc+1)
			}
		}
		succs[pc] = s
	}
	return succs
}

// Reachable returns the set of instructions reachable from the entry point
// along the edges of succs, a program's CFG.
func Reachable(succs [][]int) []bool {
	seen := make([]bool, len(succs))
	if len(succs) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range succs[pc] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return seen
}

func appendUnique(list []int, x int) []int {
	for _, v := range list {
		if v == x {
			return list
		}
	}
	return append(list, x)
}
