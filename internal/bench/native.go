package bench

// The native-backend benchmark behind `phloembench -exp native`: every suite
// benchmark is compiled once with default options and its largest test
// input runs through the full timing simulator and the native backend; then
// a BFS scale sweep grows grid graphs past the point the timing simulator
// can finish within a fixed cycle budget while the native backend keeps
// producing verified functional results. Both legs of every row are
// verified and must execute identical instruction counts — the report is an
// end-to-end run of the differential contract. Sim-vs-native wall time is
// measured by benchmark/ (the sim-* and native-* cells), not here.

import (
	"errors"
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// NativeSweepCycleBudget is the fixed simulator cycle budget for the scale
// sweep: a sweep row whose timing simulation would run past this many
// cycles is recorded as a DNF. The budget is part of the report schema so
// committed and fresh reports always mean the same thing by "the simulator
// cannot reach this size".
const NativeSweepCycleBudget = 32 << 20

// nativeSweepSides lists the BFS grid sweep sizes (side length of an
// n x n grid). BFS on an n x n grid costs ~n^2 cycles scaled by the
// frontier shape; 400x400 sits just inside the budget above and 800x800
// (~57M cycles) is past it, so the largest size demonstrates scale reach:
// only the native backend produces (verified) results there.
var nativeSweepSides = []int{50, 100, 200, 400, 800}

// NativeRow is one benchmark's seed-scale sim-vs-native comparison.
type NativeRow struct {
	Name  string `json:"name"`
	Input string `json:"input"`
	// Stages/Queues pin the compiled pipeline's shape (exact metrics).
	Stages int `json:"stages"`
	Queues int `json:"queues"`
	// Cycles is the timing simulator's result (the perf model's output;
	// compared with tolerance).
	Cycles uint64 `json:"cycles"`
	// Instructions is the dynamic micro-op count; both backends executed
	// exactly this many or the row would have failed.
	Instructions uint64 `json:"instructions"`
}

// NativeSweepRow is one BFS sweep size. SimOK distinguishes completed
// simulations from cycle-budget DNFs; native results are present either
// way.
type NativeSweepRow struct {
	Input    string `json:"input"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// SimOK is false when the timing simulation was abandoned at the
	// sweep cycle budget (SimStatus says why); a committed true turning
	// false is a regression.
	SimOK     bool   `json:"sim_ok"`
	SimStatus string `json:"sim_status"` // ok|cycle-budget|trace-limit
	SimCycles uint64 `json:"sim_cycles,omitempty"`
	// Instructions is the native backend's executed micro-op count,
	// cross-checked against the functional phase when the simulator
	// finished this size.
	Instructions uint64 `json:"instructions"`
}

// NativeReport is the BENCH_native.json schema.
type NativeReport struct {
	Header
	// Note states what the report does and does not claim.
	Note             string           `json:"note"`
	SweepCycleBudget uint64           `json:"sweep_cycle_budget"`
	Benchmarks       []NativeRow      `json:"benchmarks"`
	Sweep            []NativeSweepRow `json:"sweep"`
	// SimDNF counts sweep sizes the simulator could not finish within the
	// cycle budget (exact: the budget and inputs are deterministic).
	SimDNF int `json:"sim_dnf"`
}

// nativeNote is the report's standing honesty disclaimer.
const nativeNote = "every pipeline here is single-core, which the native backend runs on one " +
	"goroutine: the rows check that both backends execute the same instructions, not parallel " +
	"speedup. The sweep shows scale reach: sizes the simulator cannot finish within the fixed " +
	"cycle budget still produce verified functional results natively. Sim-vs-native wall time " +
	"is measured by benchmark/ (the sim-* and native-* cells)."

// gated lists pipeline shape, simulator cycles, instruction counts and
// sweep reach; sim_cycles only for sweep sizes the simulator finished.
func (r *NativeReport) gated() []gated {
	out := []gated{
		countOf("", "sweep_cycle_budget", int(r.SweepCycleBudget)),
		countOf("", "sim_dnf", r.SimDNF),
	}
	for _, b := range r.Benchmarks {
		out = append(out,
			countOf(b.Name, "stages", b.Stages),
			countOf(b.Name, "queues", b.Queues),
			cyclesOf(b.Name, "cycles", b.Cycles),
			cyclesOf(b.Name, "instructions", b.Instructions))
	}
	for _, s := range r.Sweep {
		out = append(out,
			countOf(s.Input, "vertices", s.Vertices),
			flagOf(s.Input, "sim_ok", s.SimOK),
			cyclesOf(s.Input, "instructions", s.Instructions))
		if s.SimOK {
			out = append(out, cyclesOf(s.Input, "sim_cycles", s.SimCycles))
		}
	}
	return out
}

func (r *NativeReport) rerun(cfg Config) (Report, error) { return NativePerf(cfg) }

// nativeInstance compiles-and-instantiates with the bench suite's trace
// headroom. Native runs reuse MaxTraceEntries as an instruction cap, so the
// sweep raises it: the native backend records no trace and has no memory
// reason for the cap.
func nativeInstance(pl *pipeline.Pipeline, bind pipeline.Bindings, traceCap int) (*pipeline.Instance, error) {
	inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), bind)
	if err != nil {
		return nil, err
	}
	inst.Machine.MaxTraceEntries = traceCap
	return inst, nil
}

// runNativeLeg executes the native leg and verifies it.
func runNativeLeg(pl *pipeline.Pipeline, in *workloads.Input, traceCap int) (*native.Stats, error) {
	inst, err := nativeInstance(pl, in.Bind(), traceCap)
	if err != nil {
		return nil, err
	}
	st, err := native.Run(inst.Machine, native.Options{})
	if err != nil {
		return nil, err
	}
	if err := in.Verify(inst); err != nil {
		return nil, err
	}
	return st, nil
}

// NativePerf runs the seed-scale comparison and the BFS scale sweep and
// returns the report. Families, when non-empty, restricts the seed-scale
// table (the sweep always runs) — the package tests use it to stay inside
// the go test timeout.
func NativePerf(cfg Config, families ...string) (*NativeReport, error) {
	rep := &NativeReport{
		Header:           newHeader(KindNative, cfg.Scale),
		Note:             nativeNote,
		SweepCycleBudget: NativeSweepCycleBudget,
	}
	keep := map[string]bool{}
	for _, f := range families {
		keep[f] = true
	}
	cfg.printf("\nNative backend vs the timing simulator (largest test input per family)\n")
	cfg.printf("%-8s %-14s %7s %7s %12s %14s\n", "bench", "input", "stages", "queues", "cycles", "instructions")
	for _, b := range workloads.Benchmarks(cfg.Scale) {
		if len(keep) > 0 && !keep[b.Name] {
			continue
		}
		prog, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		res, err := core.Compile(prog, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		in := b.Test[len(b.Test)-1]

		st, err := runPipe(res.Pipeline, in.Bind(), in, 1, true)
		if err != nil {
			return nil, fmt.Errorf("%s (sim): %w", b.Name, err)
		}

		nst, err := runNativeLeg(res.Pipeline, in, 256<<20)
		if err != nil {
			return nil, fmt.Errorf("%s (native): %w", b.Name, err)
		}
		if nst.Instructions != st.Instructions {
			return nil, fmt.Errorf("%s: native executed %d instructions, simulator %d — differential contract broken",
				b.Name, nst.Instructions, st.Instructions)
		}
		row := NativeRow{
			Name: b.Name, Input: in.Name,
			Stages: res.Pipeline.TotalStages(), Queues: len(res.Pipeline.Queues),
			Cycles: st.Cycles, Instructions: st.Instructions,
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		cfg.printf("%-8s %-14s %7d %7d %12d %14d\n",
			row.Name, row.Input, row.Stages, row.Queues, row.Cycles, row.Instructions)
	}

	if err := nativeSweep(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// nativeSweep grows BFS grid graphs past the simulator's cycle budget.
func nativeSweep(cfg Config, rep *NativeReport) error {
	b, err := workloads.ByName(cfg.Scale, "BFS")
	if err != nil {
		return err
	}
	prog, err := workloads.CompileSerial(b.SerialSource)
	if err != nil {
		return err
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		return err
	}

	cfg.printf("\nBFS grid sweep: scale reach past the simulator's %d-cycle budget\n", uint64(NativeSweepCycleBudget))
	cfg.printf("%-12s %9s %9s %-12s %12s %14s\n",
		"input", "vertices", "edges", "sim", "sim-cycles", "instructions")
	for _, side := range nativeSweepSides {
		name := fmt.Sprintf("grid-%dx%d", side, side)
		g := graph.Grid(name, side, side, 25)
		in := &workloads.Input{
			Name: name,
			Bind: func() pipeline.Bindings { return workloads.BFSBindings(g, 0) },
			Verify: func(inst *pipeline.Instance) error {
				return workloads.BFSVerify(inst, g, 0)
			},
		}
		row := NativeSweepRow{Input: name, Vertices: g.NumVertices(), Edges: g.NumEdges()}

		simInst, err := nativeInstance(res.Pipeline, in.Bind(), 256<<20)
		if err != nil {
			return err
		}
		simInst.Machine.Cfg.CycleBudget = NativeSweepCycleBudget
		st, simErr := simInst.Run()
		switch {
		case simErr == nil:
			if err := in.Verify(simInst); err != nil {
				return fmt.Errorf("%s (sim): %w", name, err)
			}
			row.SimOK, row.SimStatus = true, "ok"
			row.SimCycles = st.Cycles
		case isBudgetStop(simErr):
			row.SimStatus = budgetStatus(simErr)
			rep.SimDNF++
		default:
			return fmt.Errorf("%s (sim): %w", name, simErr)
		}

		nst, err := runNativeLeg(res.Pipeline, in, 1<<40)
		if err != nil {
			return fmt.Errorf("%s (native): %w", name, err)
		}
		row.Instructions = nst.Instructions

		rep.Sweep = append(rep.Sweep, row)
		simCyc := "-"
		if row.SimOK {
			simCyc = fmt.Sprintf("%d", row.SimCycles)
		}
		cfg.printf("%-12s %9d %9d %-12s %12s %14d\n",
			row.Input, row.Vertices, row.Edges, row.SimStatus, simCyc, row.Instructions)
	}
	cfg.printf("simulator DNFs: %d/%d sweep sizes (native completed and verified all %d)\n",
		rep.SimDNF, len(rep.Sweep), len(rep.Sweep))
	return nil
}

// isBudgetStop reports whether a simulator error is one of the two
// budget guardrails the sweep treats as a DNF rather than a failure.
func isBudgetStop(err error) bool {
	return errors.Is(err, sim.ErrCycleBudget) || errors.Is(err, sim.ErrTraceLimit)
}

func budgetStatus(err error) string {
	if errors.Is(err, sim.ErrTraceLimit) {
		return "trace-limit"
	}
	return "cycle-budget"
}

// NativeJSON runs NativePerf and writes the report to path.
func NativeJSON(cfg Config, path string) error {
	rep, err := NativePerf(cfg)
	if err != nil {
		return err
	}
	return writeReport(rep, path)
}
