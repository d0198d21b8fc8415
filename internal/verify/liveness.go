package verify

import (
	"strings"

	"phloem/internal/ir"
	"phloem/internal/isa"
)

// checkLiveness implements the L rules across the stage/queue graph:
//
//	L1 (warning): a queue is declared but no stage or RA ever touches it —
//	              typically debris from a pass that rewired endpoints (e.g.
//	              glue-stage elision) without dropping the declaration.
//	L2 (error):   values are enqueued but nothing ever dequeues them; the
//	              producer blocks as soon as the bounded queue fills.
//	L3 (error):   a stage or RA dequeues a queue nothing produces into; it
//	              blocks forever on the first consume.
//	L4 (warning): the two ends of a queue disagree about the value kind —
//	              the producer enqueues float variables while the consumer
//	              dequeues into int variables (or vice versa), or an RA that
//	              interprets inputs as array indices is fed floats.
func (m *model) checkLiveness() {
	for q := range m.pl.Queues {
		prods, cons := m.producers[q], m.consumers[q]
		switch {
		case len(prods) == 0 && len(cons) == 0:
			m.diag("L1", SevWarning, "", q, -1, "queue is declared but never used by any stage or RA")
		case len(cons) == 0:
			m.diag("L2", SevError, "", q, -1,
				"values enqueued by %s are never dequeued; the producer blocks once the queue fills", m.entityNames(prods))
		case len(prods) == 0:
			m.diag("L3", SevError, "", q, -1,
				"%s dequeues this queue but nothing ever produces into it", m.entityNames(cons))
		}
	}
	m.checkQueueKinds()
}

func (m *model) entityNames(ents []int) string {
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = m.entityName(e)
	}
	return strings.Join(names, ", ")
}

// kindObs accumulates the variable kinds observed at one end of a queue.
// Only declared variables contribute; constants and temporaries leave the
// end indeterminate rather than guessing.
type kindObs struct {
	seen [2]bool // indexed by ir.Kind
}

func (k *kindObs) note(kind ir.Kind) { k.seen[kind] = true }

// single returns the kind if exactly one was observed.
func (k *kindObs) single() (ir.Kind, bool) {
	if k.seen[ir.KInt] != k.seen[ir.KFloat] {
		if k.seen[ir.KFloat] {
			return ir.KFloat, true
		}
		return ir.KInt, true
	}
	return 0, false
}

func (m *model) checkQueueKinds() {
	vars := m.pl.Prog.Vars
	prodKinds := make([]kindObs, len(m.pl.Queues))
	consKinds := make([]kindObs, len(m.pl.Queues))
	for i := range m.pl.Stages {
		prog := m.progs[i]
		if prog == nil {
			continue
		}
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnq:
				if int(in.A) < len(vars) {
					prodKinds[in.Q].note(vars[in.A].Kind)
				}
			case isa.OpDeq, isa.OpPeek:
				if int(in.Dst) < len(vars) {
					consKinds[in.Q].note(vars[in.Dst].Kind)
				}
			}
		}
	}
	for _, ra := range m.pl.RAs {
		// An RA streams elements of its base array into OutQ, and interprets
		// InQ values as indices (INDIRECT) or [start,end) bounds (SCAN) —
		// integers either way.
		if ra.OutQ >= 0 && ra.OutQ < len(prodKinds) && ra.Slot >= 0 && ra.Slot < len(m.pl.Prog.Slots) {
			prodKinds[ra.OutQ].note(m.pl.Prog.Slots[ra.Slot].Kind)
		}
		if ra.InQ >= 0 && ra.InQ < len(consKinds) {
			if pk, ok := prodKinds[ra.InQ].single(); ok && pk == ir.KFloat {
				m.diag("L4", SevWarning, ra.Name, ra.InQ, -1,
					"RA interprets queue values as array indices but the producer enqueues floats")
			}
		}
	}
	for q := range m.pl.Queues {
		pk, pok := prodKinds[q].single()
		ck, cok := consKinds[q].single()
		if pok && cok && pk != ck {
			m.diag("L4", SevWarning, "", q, -1,
				"producer enqueues %s values but the consumer dequeues them as %s", pk, ck)
		}
	}
}
