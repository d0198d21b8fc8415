package main

// The calls into the layers that more than one workload makes. Each has two
// paths: the one-call path users take, used for every end-to-end number, and
// a decomposed path that makes the same calls one layer at a time with a span
// around each, used by traced operations only.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/effects"
	"phloem/internal/ir"
	"phloem/internal/isa"
	"phloem/internal/lower"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/source"
	"phloem/internal/verify"
	"phloem/internal/workloads"
)

// traceCap is the functional-trace (and native instruction) cap of every run,
// the headroom internal/bench gives its largest inputs.
const traceCap = 256 << 20

var machineCfg = arch.DefaultConfig(1)

// staticOptions is the static flow every workload but autotune-graph
// compiles with: all passes, Table III machine, commopt on so that native
// channels and simulated queues carry the inferred capacities.
func staticOptions() core.Options {
	opt := core.DefaultOptions()
	opt.CommOpt = true
	return opt
}

// legCost is what one timed leg of an operation cost.
type legCost struct {
	wall           time.Duration
	bytes, mallocs uint64
}

// timeLeg times one leg of an operation and counts what it allocated.
func timeLeg(f func() error) (legCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return legCost{d, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs}, err
}

// pipelineHash identifies a compiled pipeline: stage IR, queues, RAs,
// capacities and fan-outs.
func pipelineHash(pl *pipeline.Pipeline) uint64 {
	h := fnv.New64a()
	h.Write([]byte(pl.DumpStages()))
	h.Write([]byte(pl.Describe()))
	for _, q := range pl.Queues {
		fmt.Fprintf(h, "%s/%d/%v;", q.Name, q.Depth, q.DepthByPass)
	}
	for _, f := range pl.FanOuts {
		fmt.Fprintf(h, "%d>%v;", f.Src, f.Dst)
	}
	return h.Sum64()
}

// flatInstrs is the generated-code size of a pipeline: flattened ISA
// instructions summed over its stages.
func flatInstrs(pl *pipeline.Pipeline) (uint64, error) {
	var n uint64
	for _, st := range pl.Stages {
		prog, err := pipeline.FlattenStage(pl, st)
		if err != nil {
			return 0, err
		}
		n += uint64(len(prog.Instrs))
	}
	return n, nil
}

// frontend lowers source text to IR the way core.CompileSource does, and
// without the effects analysis the way workloads.CompileSerial does.
func frontend(c *opCtx, parent spanID, src string, analyzeEffects bool) (*ir.Prog, error) {
	c.count("source.src_bytes", float64(len(src)))
	var fn *source.Function
	var err error
	c.timed(parent, "source.parse", func() { fn, err = source.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	c.timed(parent, "source.check", func() { err = source.Check(fn) })
	if err != nil {
		return nil, fmt.Errorf("core: check: %w", err)
	}
	if analyzeEffects {
		var eff *effects.Analysis
		c.timed(parent, "effects.analyze", func() { eff = effects.Analyze(fn) })
		if err := eff.Err(); err != nil {
			return nil, fmt.Errorf("core: effects: %w", err)
		}
		c.count("effects.warnings", float64(len(eff.Warnings())))
	}
	var p *ir.Prog
	c.timed(parent, "lower.ast", func() { p, err = lower.FromAST(fn) })
	if err != nil {
		return nil, fmt.Errorf("core: lower: %w", err)
	}
	return p, nil
}

// compileStatic compiles source text to a verified pipeline with the static
// flow.
func compileStatic(c *opCtx, parent spanID, src string) (*core.Result, error) {
	opt := staticOptions()
	if !c.traced() {
		return core.CompileSource(src, opt)
	}
	p, err := frontend(c, parent, src, true)
	if err != nil {
		return nil, err
	}
	id := c.begin(parent, "core.compile")
	opt.Observer = &searchObserver{c: c, parent: id, names: staticSpans}
	res, err := core.Compile(p, opt)
	c.end(id)
	return res, err
}

// lowerSerial builds the serial baseline of a kernel: source text to IR, no
// pipelining passes, wrapped as a one-stage pipeline.
func lowerSerial(c *opCtx, parent spanID, src string) (*pipeline.Pipeline, error) {
	var p *ir.Prog
	var err error
	if c.traced() {
		p, err = frontend(c, parent, src, false)
	} else {
		p, err = workloads.CompileSerial(src)
	}
	if err != nil {
		return nil, err
	}
	return pipeline.NewSerial(p), nil
}

// probeCompiled times the layers core.Compile calls internally and exposes no
// span for, by calling them again from outside, and records the counts a
// compiled pipeline carries. Traced operations only, outside both legs.
func probeCompiled(c *opCtx, parent spanID, res *core.Result) error {
	if !c.traced() {
		return nil
	}
	p, pl := res.Prog, res.Pipeline
	c.count("lower.ir_lines", float64(strings.Count(p.Print(), "\n")))
	c.timed(parent, "analysis.candidates", func() {
		an := analysis.New(p)
		for _, ph := range analysis.ProgramPhases(p.Body) {
			c.count("analysis.candidates", float64(len(an.Candidates(ph))))
		}
	})
	var err error
	c.timed(parent, "costmodel.analyze", func() { _, err = costmodel.Analyze(pl, machineCfg) })
	if err != nil {
		return fmt.Errorf("costmodel: %w", err)
	}
	id := c.begin(parent, "harness.count")
	defer c.end(id)
	c.count("passes.stages", float64(len(pl.Stages)))
	c.count("passes.queues", float64(len(pl.Queues)))
	c.count("passes.ras", float64(len(pl.RAs)))
	c.count("commopt.fanouts", float64(len(pl.FanOuts)))
	for _, q := range pl.Queues {
		if q.DepthByPass {
			c.count("commopt.caps_set", 1)
		}
	}
	for _, d := range verify.Check(pl).Diags {
		if d.Sev == verify.SevWarning {
			c.count("verify.warnings", 1)
		}
	}
	return nil
}

// simulate instantiates a pipeline on the simulated machine and runs both
// simulation phases under a measurement budget.
func simulate(c *opCtx, parent spanID, pl *pipeline.Pipeline, b pipeline.Bindings, budget core.Budget) (*pipeline.Instance, *sim.Stats, error) {
	if !c.traced() {
		inst, err := pipeline.Instantiate(pl, machineCfg, b)
		if err != nil {
			return nil, nil, err
		}
		inst.Machine.MaxTraceEntries = traceCap
		budget.Apply(inst.Machine)
		st, err := inst.Run()
		return inst, st, err
	}
	inst, err := instantiate(c, parent, pl, b)
	if err != nil {
		return nil, nil, err
	}
	budget.Apply(inst.Machine)
	var ts *sim.TraceSet
	c.timed(parent, "sim.func", func() { ts, err = inst.Machine.RunFunctional() })
	if err != nil {
		c.count("sim.aborted_runs", 1)
		return inst, nil, err
	}
	var st *sim.Stats
	c.timed(parent, "sim.timing", func() { st, err = inst.Machine.RunTiming(ts) })
	id := c.begin(parent, "harness.count")
	defer c.end(id)
	countTraces(c, inst.Machine, ts)
	if err != nil {
		c.count("sim.aborted_runs", 1)
		var over *sim.CycleBudgetError
		if errors.As(err, &over) {
			countTiming(c, over.Stats)
		}
		return inst, nil, err
	}
	countTiming(c, st)
	return inst, st, nil
}

// instantiate is pipeline.Instantiate with the run cap every workload uses.
func instantiate(c *opCtx, parent spanID, pl *pipeline.Pipeline, b pipeline.Bindings) (*pipeline.Instance, error) {
	var inst *pipeline.Instance
	var err error
	c.timed(parent, "pipeline.instantiate", func() { inst, err = pipeline.Instantiate(pl, machineCfg, b) })
	if err != nil {
		return nil, err
	}
	inst.Machine.MaxTraceEntries = traceCap
	for _, st := range inst.Machine.Stages {
		c.count("pipeline.flat_instrs", float64(len(st.Prog.Instrs)))
	}
	return inst, nil
}

// countTraces records what the functional engine produced: instructions,
// queue tokens (stage enqueues plus RA deliveries), RA micro-events and trace
// size. The counts do not depend on the schedule.
func countTraces(c *opCtx, m *sim.Machine, ts *sim.TraceSet) {
	tokens, entries, raEvents := queueTokens(m, ts)
	c.count("sim.func_instrs", float64(ts.Instructions))
	c.count("sim.func_queue_tokens", float64(tokens))
	c.count("sim.func_ra_events", float64(raEvents))
	// A TEntry and an RAEvent both occupy 16 bytes.
	c.count("sim.func_trace_mb", float64(entries+raEvents)*16/1e6)
}

func queueTokens(m *sim.Machine, ts *sim.TraceSet) (tokens, entries, raEvents uint64) {
	for i, tr := range ts.Threads {
		instrs := m.Stages[i].Prog.Instrs
		entries += uint64(len(tr))
		for _, e := range tr {
			switch instrs[e.PC].Op {
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				tokens++
			}
		}
	}
	for _, tr := range ts.RA {
		raEvents += uint64(len(tr))
		for _, e := range tr {
			if e.Kind != sim.RAConsume {
				tokens++
			}
		}
	}
	return tokens, entries, raEvents
}

// countTiming records the timing model's counters for one replay.
func countTiming(c *opCtx, st *sim.Stats) {
	if st == nil {
		return
	}
	b := st.TotalBreakdown()
	for name, v := range map[string]uint64{
		"_timing_instrs":                st.Issued,
		"_timing_cycles":                st.Cycles,
		"sim.timing_issue_cycles":       b.Issue,
		"sim.timing_backend_cycles":     b.Backend,
		"sim.timing_queue_cycles":       b.Queue,
		"sim.timing_other_cycles":       b.Other,
		"sim.timing_queue_empty_stalls": st.QueueEmptyStalls,
		"sim.timing_queue_full_stalls":  st.QueueFullStalls,
		"sim.timing_mispredicts":        st.Mispredicts,
		"sim.timing_handler_fires":      st.HandlerFires,
		"sim.timing_ra_loads":           st.RALoads,
		"_l1_hits":                      st.Cache.L1Hits,
		"_l1_misses":                    st.Cache.L1Misses,
		"_l2_hits":                      st.Cache.L2Hits,
		"_l2_misses":                    st.Cache.L2Misses,
		"_l3_hits":                      st.Cache.L3Hits,
		"_l3_misses":                    st.Cache.L3Misses,
		"cache.mem_accesses":            st.Cache.MemAccesses,
	} {
		c.count(name, float64(v))
	}
}

// runNative instantiates a pipeline and executes it on the native backend.
// The wall time and malloc count returned are those of native.Run alone; the
// bytes include the instantiation, as they do in a simulated leg, because a
// machine runs once.
func runNative(c *opCtx, parent spanID, span string, pl *pipeline.Pipeline, b pipeline.Bindings) (*pipeline.Instance, *native.Stats, legCost, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inst, err := instantiate(c, parent, pl, b)
	if err != nil {
		return nil, nil, legCost{}, err
	}
	var st *native.Stats
	id := c.begin(parent, span)
	cost, err := timeLeg(func() error {
		st, err = native.Run(inst.Machine, native.Options{})
		return err
	})
	c.end(id)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cost.bytes = m1.TotalAlloc - m0.TotalAlloc
	return inst, st, cost, err
}
