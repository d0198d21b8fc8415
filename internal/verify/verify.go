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
	"cmp"
	"fmt"
	"slices"
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
	var m model
	m.check(pl, true)
	return m.rep
}

// CheckErrors returns Check(pl).Errors() without running the static cost
// model, whose rule (W1) can only warn.
func CheckErrors(pl *pipeline.Pipeline) []Diag {
	var s Scratch
	return s.CheckErrors(pl)
}

// Scratch is the verifier's working memory: the model of a pipeline (its
// stage programs' queue census, control-flow graphs and constant
// registers) and the rule checkers' tables. A search worker keeps one and
// checks every candidate it builds in it, so a warm check allocates little
// beyond its diagnostics. The zero value is ready; a Scratch serves one
// check at a time.
type Scratch struct{ m model }

// CheckErrors is the package's CheckErrors, computed in s.
func (s *Scratch) CheckErrors(pl *pipeline.Pipeline) []Diag {
	s.m.check(pl, false)
	errs := s.m.rep.Errors()
	s.m.drop()
	return errs
}

// check builds the model of pl and analyzes it into m.rep.
func (m *model) check(pl *pipeline.Pipeline, costWarnings bool) {
	m.build(pl)
	m.analyze(costWarnings)
}

// analyze runs every analysis over the model built so far into m.rep,
// sorted canonically.
func (m *model) analyze(costWarnings bool) {
	m.checkTopology()
	m.checkProtocol()
	m.checkDataflow()
	m.checkLiveness()
	m.checkEffects()
	if costWarnings {
		m.checkCapacity()
	}
	slices.SortStableFunc(m.rep.Diags, func(a, b Diag) int {
		if a.Stage != b.Stage {
			return strings.Compare(a.Stage, b.Stage)
		}
		if a.PC != b.PC {
			return cmp.Compare(a.PC, b.PC)
		}
		if a.Queue != b.Queue {
			return cmp.Compare(a.Queue, b.Queue)
		}
		if a.Rule != b.Rule {
			return strings.Compare(a.Rule, b.Rule)
		}
		return strings.Compare(a.Msg, b.Msg)
	})
}

// model indexes the pipeline for the rule checkers. Entities number the
// software stages first, then the RAs. Every table is kept for the next
// pipeline a Scratch checks.
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
	// registers. Each is empty where progs is nil, but for consts, which
	// only stages with a program read.
	ops    []queueOps
	succs  [][][]int
	consts []map[isa.Reg]int64

	producers [][]int // queue id -> entity ids that enqueue into it
	consumers [][]int // queue id -> entity ids that dequeue/peek/handle it

	// Tables the rule checkers fill per stage or per pipeline.
	regDefs  []int            // per register: its definitions (constRegs, D1)
	fromQ    [][]int          // per register: queues its value can come from
	sent     []codeSet        // per queue: control codes it can carry
	codeRegs map[isa.Reg]bool // a stage's registers holding a queue's codes
	dispatch map[int64]bool   // a consumer's dispatched codes
	d1       map[isa.Reg]bool // registers already reported by D1
	effects  effScratch       // checkEffects' per-entity summaries
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

// build makes m the model of pl, every stage program added.
func (m *model) build(pl *pipeline.Pipeline) {
	m.reset(pl)
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
}

// newModel returns the model of pl with no stage program added yet.
func newModel(pl *pipeline.Pipeline) *model {
	m := &model{}
	m.reset(pl)
	return m
}

// reset makes m the model of pl with no stage program added yet, keeping
// the storage of the tables an earlier pipeline left.
func (m *model) reset(pl *pipeline.Pipeline) {
	m.pl = pl
	if m.rep == nil {
		m.rep = &Report{}
	}
	m.rep.Pipeline, m.rep.Diags = pl.Prog.Name, m.rep.Diags[:0]
	ns, nq := len(pl.Stages), len(pl.Queues)
	m.progs = resized(m.progs, ns)
	m.ops = resized(m.ops, ns)
	m.succs = resized(m.succs, ns)
	m.consts = resized(m.consts, ns)
	for i := range m.progs {
		m.progs[i], m.succs[i] = nil, m.succs[i][:0]
		m.ops[i].enq, m.ops[i].deq, m.ops[i].peek, m.ops[i].handler = nil, nil, nil, nil
	}
	m.producers = emptied(m.producers, nq)
	m.consumers = emptied(m.consumers, nq)
}

// drop clears what m points into, so that a Scratch does not keep the last
// pipeline it checked reachable.
func (m *model) drop() {
	m.pl = nil
	clear(m.progs)
	clear(m.rep.Diags)
	m.rep.Diags = m.rep.Diags[:0]
}

// resized returns s at length n, keeping its elements (and what they hold)
// for reuse; elements past the old length are zero.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]E, n-cap(s))...)
	}
	return s[:n]
}

// emptied returns lists at length n, every list emptied but keeping its
// array.
func emptied(lists [][]int, n int) [][]int {
	lists = resized(lists, n)
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// addStage records stage i's validated program and what the analyses read
// of it. Stages are added in index order, before any RA.
func (m *model) addStage(i int, prog *isa.Program) {
	qo := &m.ops[i]
	qo.collect(prog, len(m.pl.Queues))
	if m.consts[i] == nil {
		m.consts[i] = map[isa.Reg]int64{}
	}
	m.progs[i], m.succs[i] = prog, prog.CFGInto(m.succs[i])
	m.constRegs(prog, m.consts[i])
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
	all     [][]int // backs the four
}

// collect takes the census of a validated program, whose queue ids are all
// below numQueues, reusing qo's lists.
func (qo *queueOps) collect(prog *isa.Program, numQueues int) {
	qo.all = emptied(qo.all, 4*numQueues)
	all := qo.all
	qo.enq = all[:numQueues:numQueues]
	qo.deq = all[numQueues : 2*numQueues : 2*numQueues]
	qo.peek = all[2*numQueues : 3*numQueues : 3*numQueues]
	qo.handler = all[3*numQueues:]
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
}
