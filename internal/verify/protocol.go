package verify

import (
	"fmt"
	"sort"
	"strings"

	"phloem/internal/arch"
	"phloem/internal/isa"
)

// checkProtocol implements the C rules over the control-value protocol:
//
//	C1 (error):   a queue that can carry control values is dequeued by a
//	              stage that neither tests is_ctrl on the dequeued value nor
//	              registers a control handler for the queue — a control
//	              value would be consumed as ordinary data.
//	C2 (error):   a producer can send a control code that the consumer's
//	              dispatch never matches. Generated consumers treat unknown
//	              codes as stream end, so an undispatched code silently
//	              truncates the stream. CtrlEnd is exempt: falling through
//	              the dispatch to the stage epilogue is its correct handling.
//	C3 (warning): the consumer dispatches on a code no producer can send —
//	              dead protocol arms usually mean the two sides were edited
//	              out of sync.
//
// Codes are tracked through RA chains: RAs forward control values from InQ
// to OutQ untouched, and a SCAN RA with EmitNext injects its NextCode after
// every scanned range.
func (m *model) checkProtocol() {
	sent := m.sentCodes()
	for i, st := range m.pl.Stages {
		prog := m.progs[i]
		if prog == nil {
			continue
		}
		qo := m.ops[i]
		m.regQueueSources(prog)
		consts := m.consts[i]

		handledCount := 0
		for _, pcs := range qo.handler {
			if len(pcs) > 0 {
				handledCount++
			}
		}

		for q := range m.pl.Queues {
			if len(qo.deq[q]) == 0 && len(qo.peek[q]) == 0 {
				continue
			}
			s := sent[q]
			if !s.unknown && len(s.codes) == 0 {
				continue // pure data queue: no protocol to check
			}
			handled := len(qo.handler[q]) > 0
			checked := false
			for _, in := range prog.Instrs {
				if in.Op == isa.OpIsCtrl && m.fromQueue(in.A, q) {
					checked = true
					break
				}
			}
			if !handled && !checked {
				pc := -1
				if pcs := qo.deq[q]; len(pcs) > 0 {
					pc = pcs[0]
				} else if pcs := qo.peek[q]; len(pcs) > 0 {
					pc = pcs[0]
				}
				m.diag("C1", SevError, st.Name, q, pc,
					"queue can carry control codes %s but the consumer neither tests is_ctrl nor registers a handler; a control value would be consumed as data",
					s.describe())
				continue
			}

			// Collect the registers that hold this queue's control codes.
			if m.codeRegs == nil {
				m.codeRegs = map[isa.Reg]bool{}
			}
			codeRegs := m.codeRegs
			clear(codeRegs)
			for _, in := range prog.Instrs {
				switch in.Op {
				case isa.OpCtrlCode:
					if m.fromQueue(in.A, q) {
						codeRegs[in.Dst] = true
					}
				case isa.OpHandlerVal:
					if handled {
						codeRegs[in.Dst] = true
					}
				}
			}
			// Propagate through register copies.
			for changed := true; changed; {
				changed = false
				for _, in := range prog.Instrs {
					if in.Op == isa.OpMov && codeRegs[in.A] && !codeRegs[in.Dst] {
						codeRegs[in.Dst] = true
						changed = true
					}
				}
			}
			if len(codeRegs) == 0 {
				// The consumer reacts to *any* control value without reading
				// its code (e.g. treating every marker as a range boundary);
				// there is no dispatch to cross-check.
				continue
			}

			// The dispatch set is complete only if every use of a code
			// register is an equality test against a known constant.
			complete := true
			if m.dispatch == nil {
				m.dispatch = map[int64]bool{}
			}
			dispatch := m.dispatch
			clear(dispatch)
			for _, in := range prog.Instrs {
				a, b := in.Reads()
				aCode, bCode := a != isa.NoReg && codeRegs[a], b != isa.NoReg && codeRegs[b]
				if !aCode && !bCode {
					continue
				}
				if in.Op == isa.OpMov {
					continue // copies already propagated
				}
				if in.Op != isa.OpICmpEQ || (aCode && bCode) {
					complete = false
					continue
				}
				other := b
				if bCode {
					other = a
				}
				if v, ok := consts[other]; ok {
					dispatch[v] = true
				} else {
					complete = false
				}
			}
			if !complete || s.unknown {
				continue
			}
			for _, c := range sortedCodes(s.codes) {
				if !dispatch[c] && c != arch.CtrlEnd {
					m.diag("C2", SevError, st.Name, q, -1,
						"producer can send control code %d but the consumer never dispatches it (unmatched codes are treated as stream end)", c)
				}
			}
			// With handlers on several queues the handler-val registers are
			// shared across protocols, so per-queue dead-arm attribution
			// would be guesswork; skip C3 there.
			if handledCount <= 1 {
				for _, c := range sortedDispatch(dispatch) {
					if _, ok := s.codes[c]; !ok {
						m.diag("C3", SevWarning, st.Name, q, -1,
							"consumer dispatches on control code %d that no producer sends", c)
					}
				}
			}
		}
	}
}

// codeSet is the set of control codes that can appear on a queue. unknown
// means a code was forwarded from a register the analysis cannot resolve.
type codeSet struct {
	unknown bool
	codes   map[int64]struct{}
}

func (s *codeSet) add(c int64) bool {
	if _, ok := s.codes[c]; ok {
		return false
	}
	s.codes[c] = struct{}{}
	return true
}

func (s *codeSet) describe() string {
	if s.unknown && len(s.codes) == 0 {
		return "(unknown)"
	}
	parts := make([]string, 0, len(s.codes)+1)
	for _, c := range sortedCodes(s.codes) {
		parts = append(parts, fmt.Sprintf("%d", c))
	}
	if s.unknown {
		parts = append(parts, "…")
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// sentCodes computes, per queue, the control codes that can appear at its
// consumer end, propagated to fixpoint through RA chains.
func (m *model) sentCodes() []codeSet {
	cs := resized(m.sent, len(m.pl.Queues))
	m.sent = cs
	for i := range cs {
		cs[i].unknown = false
		if cs[i].codes == nil {
			cs[i].codes = map[int64]struct{}{}
		}
		clear(cs[i].codes)
	}
	for i := range m.pl.Stages {
		prog := m.progs[i]
		if prog == nil {
			continue
		}
		consts := m.consts[i]
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnqCtrl:
				cs[in.Q].add(in.Imm)
			case isa.OpEnqCtrlV:
				if v, ok := consts[in.A]; ok {
					cs[in.Q].add(v)
				} else {
					cs[in.Q].unknown = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ra := range m.pl.RAs {
			if ra.InQ < 0 || ra.InQ >= len(cs) || ra.OutQ < 0 || ra.OutQ >= len(cs) {
				continue
			}
			in, out := &cs[ra.InQ], &cs[ra.OutQ]
			if in.unknown && !out.unknown {
				out.unknown = true
				changed = true
			}
			for c := range in.codes {
				if out.add(c) {
					changed = true
				}
			}
			if ra.EmitNext && out.add(ra.NextCode) {
				changed = true
			}
		}
	}
	return cs
}

// regQueueSources fills m.fromQ: for each register of the stage program,
// the queues whose deq/peek results it can hold (flow-insensitive over the
// whole program).
func (m *model) regQueueSources(prog *isa.Program) {
	src := emptied(m.fromQ, prog.NumRegs)
	m.fromQ = src
	for _, in := range prog.Instrs {
		switch in.Op {
		case isa.OpDeq, isa.OpPeek:
			src[in.Dst] = addEntity(src[in.Dst], in.Q)
		}
	}
	// Propagate through copies.
	for changed := true; changed; {
		changed = false
		for _, in := range prog.Instrs {
			if in.Op != isa.OpMov {
				continue
			}
			for _, q := range src[in.A] {
				before := len(src[in.Dst])
				src[in.Dst] = addEntity(src[in.Dst], q)
				if len(src[in.Dst]) != before {
					changed = true
				}
			}
		}
	}
}

// fromQueue reports whether register r can hold a value dequeued or peeked
// from queue q (regQueueSources).
func (m *model) fromQueue(r isa.Reg, q int) bool {
	return r >= 0 && int(r) < len(m.fromQ) && hasQueue(m.fromQ[r], q)
}

// regDefCounts fills m.regDefs with the number of definitions of every
// register of prog, and returns it.
func (m *model) regDefCounts(prog *isa.Program) []int {
	m.regDefs = resized(m.regDefs, prog.NumRegs)
	clear(m.regDefs)
	for _, in := range prog.Instrs {
		if d := in.Writes(); d != isa.NoReg {
			m.regDefs[d]++
		}
	}
	return m.regDefs
}

// constRegs sets vals to the registers of prog that have exactly one
// definition, an OpConst, mapped to their value.
func (m *model) constRegs(prog *isa.Program, vals map[isa.Reg]int64) {
	clear(vals)
	defs := m.regDefCounts(prog)
	for _, in := range prog.Instrs {
		if d := in.Writes(); in.Op == isa.OpConst && d != isa.NoReg && defs[d] == 1 {
			vals[d] = in.Imm
		}
	}
}

func hasQueue(list []int, q int) bool {
	for _, v := range list {
		if v == q {
			return true
		}
	}
	return false
}

func sortedCodes(set map[int64]struct{}) []int64 {
	out := make([]int64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedDispatch(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
