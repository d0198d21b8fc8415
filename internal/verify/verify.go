// Package verify statically checks a compiled pipeline before it reaches the
// simulator. The passes that build a pipeline (decouple, queue insertion,
// recompute, accelerate, control values, handlers, inter-stage DCE) must
// preserve a web of structural invariants; end-to-end bit comparison against
// the reference tells you *that* a pipeline is wrong, these rules tell you
// *where* and *why*.
//
// Five analyses run over the stage/queue/RA graph and each stage's flattened
// ISA program:
//
//   - Q* queue topology / startup deadlock (one consumer per queue, no RA
//     self-loops, no cycle of stages that all must block on each other's
//     output before producing anything)
//   - C* control-value protocol (ctrl-carrying queues are consumed with an
//     is_ctrl test or a registered handler; codes sent by producers are
//     dispatched by consumers, and vice versa, tracked through RA chains)
//   - D* per-stage dataflow (structural validity, use of never-written
//     registers, int/float kind confusion, unreachable code, missing halt,
//     peek without deq)
//   - L* cross-stage liveness (queues declared but unused, enqueued but
//     never dequeued and vice versa, int/float disagreement across a queue)
//   - E* memory effects (per-entity MOD/REF summaries: cross-stage
//     write/write and write/read of a slot in the same barrier epoch,
//     stage writes racing an RA's stream reads, and writes to distinct
//     slots the frontend's alias analysis could not prove disjoint)
//   - W* capacity (queues whose explicit depth override sits below the
//     static cost model's recommended capacity and will serialize their
//     producer against their consumer on every burst)
//
// Diagnostics are structured (rule id, severity, stage/queue/pc location) so
// callers can render, filter, or assert on them.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"phloem/internal/isa"
	"phloem/internal/pipeline"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// SevWarning marks suspicious but executable constructs.
	SevWarning Severity = iota
	// SevError marks pipelines that will hang, crash, or compute garbage.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diag is one structured diagnostic.
type Diag struct {
	Rule      string   // rule id, e.g. "Q3"
	Sev       Severity // error or warning
	Stage     string   // stage or RA name ("" when pipeline-level)
	Queue     int      // queue id (-1 when not queue-related)
	QueueName string
	PC        int // instruction index within the stage (-1 when not instruction-level)
	Msg       string
}

// String renders "sev [RULE] location: message".
func (d Diag) String() string {
	var loc strings.Builder
	if d.Stage != "" {
		loc.WriteString(d.Stage)
		if d.PC >= 0 {
			fmt.Fprintf(&loc, "@%d", d.PC)
		}
	}
	if d.Queue >= 0 {
		if loc.Len() > 0 {
			loc.WriteByte(' ')
		}
		fmt.Fprintf(&loc, "q%d", d.Queue)
		if d.QueueName != "" {
			fmt.Fprintf(&loc, "(%s)", d.QueueName)
		}
	}
	if loc.Len() == 0 {
		loc.WriteString("pipeline")
	}
	return fmt.Sprintf("%s [%s] %s: %s", d.Sev, d.Rule, loc.String(), d.Msg)
}

// Report collects the diagnostics for one pipeline.
type Report struct {
	Pipeline string
	Diags    []Diag
}

// HasErrors reports whether any diagnostic is an error.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Sev == SevError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// String renders one diagnostic per line (empty string for a clean report).
func (r *Report) String() string {
	var sb strings.Builder
	for _, d := range r.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Check runs all analyses over the pipeline and returns the report.
// Diagnostics are sorted canonically by (stage, pc, queue, rule, message) —
// ties keep analysis order (topology, protocol, dataflow, liveness,
// effects, capacity) — so two runs over the same pipeline render
// byte-identical output.
func Check(pl *pipeline.Pipeline) *Report {
	return check(pl, true)
}

// CheckErrors returns Check(pl).Errors() without running the static cost
// model, whose rules (W1, W2) can only warn.
func CheckErrors(pl *pipeline.Pipeline) []Diag {
	return check(pl, false).Errors()
}

func check(pl *pipeline.Pipeline, costWarnings bool) *Report {
	m := buildModel(pl)
	m.checkTopology()
	m.checkProtocol()
	m.checkDataflow()
	m.checkLiveness()
	m.checkEffects()
	m.checkCapacity(costWarnings)
	sort.SliceStable(m.rep.Diags, func(i, j int) bool {
		a, b := m.rep.Diags[i], m.rep.Diags[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Queue != b.Queue {
			return a.Queue < b.Queue
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return m.rep
}

// model indexes the pipeline for the rule checkers. Entities number the
// software stages first, then the RAs.
type model struct {
	pl  *pipeline.Pipeline
	rep *Report
	// progs holds each stage's flattened program; nil when flattening or
	// structural validation failed (the stage is then skipped by the other
	// analyses, which already have a D0 error to explain why).
	progs []*isa.Program
	// ops, succs and consts are what several analyses read of each stage
	// program, computed once by addStage: its queue operations, its
	// control-flow successors (isa.Program.CFG) and its constant
	// registers. Each is empty where progs is nil.
	ops    []queueOps
	succs  [][][]int
	consts []map[isa.Reg]int64

	producers [][]int // queue id -> entity ids that enqueue into it
	consumers [][]int // queue id -> entity ids that dequeue/peek/handle it
}

func (m *model) numStages() int { return len(m.pl.Stages) }

func (m *model) entityName(ent int) string {
	if ent < m.numStages() {
		return "stage " + m.pl.Stages[ent].Name
	}
	return "RA " + m.pl.RAs[ent-m.numStages()].Name
}

// diag appends a diagnostic; pass q = -1 and/or pc = -1 when not applicable.
func (m *model) diag(rule string, sev Severity, stage string, q, pc int, format string, args ...any) {
	d := Diag{Rule: rule, Sev: sev, Stage: stage, Queue: q, PC: pc, Msg: fmt.Sprintf(format, args...)}
	if q >= 0 && q < len(m.pl.Queues) {
		d.QueueName = m.pl.Queues[q].Name
	}
	m.rep.Diags = append(m.rep.Diags, d)
}

func buildModel(pl *pipeline.Pipeline) *model {
	m := newModel(pl)
	for i, st := range pl.Stages {
		prog, err := pipeline.FlattenStage(pl, st)
		if err != nil {
			m.diag("D0", SevError, st.Name, -1, -1, "stage does not lower: %v", err)
			continue
		}
		if err := prog.Validate(len(pl.Queues), len(pl.Prog.Slots)); err != nil {
			m.diag("D0", SevError, st.Name, -1, -1, "structurally invalid program: %v", err)
			continue
		}
		m.addStage(i, prog)
	}
	for r, ra := range pl.RAs {
		ent := len(pl.Stages) + r
		if ra.InQ >= 0 && ra.InQ < len(pl.Queues) {
			m.consumers[ra.InQ] = addEntity(m.consumers[ra.InQ], ent)
		}
		if ra.OutQ >= 0 && ra.OutQ < len(pl.Queues) {
			m.producers[ra.OutQ] = addEntity(m.producers[ra.OutQ], ent)
		}
	}
	return m
}

// newModel returns the model of pl with no stage program added yet.
func newModel(pl *pipeline.Pipeline) *model {
	return &model{
		pl:        pl,
		rep:       &Report{Pipeline: pl.Prog.Name},
		progs:     make([]*isa.Program, len(pl.Stages)),
		ops:       make([]queueOps, len(pl.Stages)),
		succs:     make([][][]int, len(pl.Stages)),
		consts:    make([]map[isa.Reg]int64, len(pl.Stages)),
		producers: make([][]int, len(pl.Queues)),
		consumers: make([][]int, len(pl.Queues)),
	}
}

// addStage records stage i's validated program and what the analyses read
// of it. Stages are added in index order, before any RA.
func (m *model) addStage(i int, prog *isa.Program) {
	qo := collectQueueOps(prog, len(m.pl.Queues))
	m.progs[i], m.ops[i], m.succs[i], m.consts[i] = prog, qo, prog.CFG(), constRegs(prog)
	for q := range m.pl.Queues {
		if len(qo.enq[q]) > 0 {
			m.producers[q] = append(m.producers[q], i)
		}
		if len(qo.deq[q]) > 0 || len(qo.peek[q]) > 0 || len(qo.handler[q]) > 0 {
			m.consumers[q] = append(m.consumers[q], i)
		}
	}
}

func addEntity(list []int, ent int) []int {
	for _, e := range list {
		if e == ent {
			return list
		}
	}
	return append(list, ent)
}

// queueOps is, for one stage program, the pcs of its queue operations per
// queue id, split by role.
type queueOps struct {
	enq     [][]int // Enq/EnqCtrl/EnqCtrlV
	deq     [][]int // Deq
	peek    [][]int // Peek
	handler [][]int // SetHandler
}

// collectQueueOps takes the census of a validated program, whose queue ids
// are all below numQueues.
func collectQueueOps(prog *isa.Program, numQueues int) queueOps {
	all := make([][]int, 4*numQueues)
	qo := queueOps{
		enq:     all[:numQueues:numQueues],
		deq:     all[numQueues : 2*numQueues : 2*numQueues],
		peek:    all[2*numQueues : 3*numQueues : 3*numQueues],
		handler: all[3*numQueues:],
	}
	for pc, in := range prog.Instrs {
		switch in.Op {
		case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
			qo.enq[in.Q] = append(qo.enq[in.Q], pc)
		case isa.OpDeq:
			qo.deq[in.Q] = append(qo.deq[in.Q], pc)
		case isa.OpPeek:
			qo.peek[in.Q] = append(qo.peek[in.Q], pc)
		case isa.OpSetHandler:
			qo.handler[in.Q] = append(qo.handler[in.Q], pc)
		}
	}
	return qo
}
