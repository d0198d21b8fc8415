package isa

// CFG computes each instruction's control-flow successor list, including
// handler-redirect edges: a Deq (or Peek) on a queue for which the program
// registers a control-value handler may transfer control to the handler
// target instead of falling through. Successor lists are in deterministic
// order (fallthrough first, then branch/handler targets).
//
// The result is indexed by pc; Halt has no successors. Callers must have
// validated the program first (targets in range).
func (p *Program) CFG() [][]int { return p.CFGInto(nil) }

// CFGInto is CFG computed into the storage of succs, an earlier CFG result
// the caller no longer needs: a checker that takes the CFG of one program
// after another allocates only where a program is longer or has more
// successors than the ones before.
func (p *Program) CFGInto(succs [][]int) [][]int {
	if cap(succs) < len(p.Instrs) {
		succs = append(succs[:cap(succs)], make([][]int, len(p.Instrs)-cap(succs))...)
	}
	succs = succs[:len(p.Instrs)]
	// The program's SetHandler instructions, in order.
	var buf [8]Instr
	handlers := buf[:0]
	for _, in := range p.Instrs {
		if in.Op == OpSetHandler {
			handlers = append(handlers, in)
		}
	}
	for pc, in := range p.Instrs {
		s := succs[pc][:0]
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
			// SetHandler is a dynamic registration, so a Deq on a handled
			// queue conservatively gets an edge to every handler the
			// program can register for that queue.
			for _, h := range handlers {
				if h.Q == in.Q {
					s = appendUnique(s, h.Target)
				}
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
