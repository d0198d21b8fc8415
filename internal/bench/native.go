package bench

// The native-backend benchmark behind `phloembench -exp native`: every suite
// benchmark is compiled once (commopt on, so native queues carry the
// pass-inferred capacities) and its largest test input runs through the full
// timing simulator and the native backend, comparing wall
// time at seed scale; then a BFS scale sweep grows grid graphs past the
// point the timing simulator can finish within a fixed cycle budget while
// the native backend keeps producing verified functional results. Both legs
// of every row are verified and must execute identical instruction counts —
// the report doubles as an end-to-end run of the differential contract.
//
// Honesty note, baked into the report's "note" field: every suite pipeline
// is single-core, which the native backend runs on one goroutine, so the
// speedup column measures the cost of cycle-accurate *simulation* (trace recording
// plus timing replay) against direct execution — wall-clock speedup and
// scale reach, not parallel speedup. Wall columns are never compared by the
// regression differ.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

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
	// Wall columns are host-dependent and never compared.
	SimWallMS    float64 `json:"sim_wall_ms"`
	NativeWallMS float64 `json:"native_wall_ms"`
	// Speedup is SimWallMS/NativeWallMS (host-dependent, never compared).
	Speedup float64 `json:"speedup"`
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
	Instructions uint64  `json:"instructions"`
	SimWallMS    float64 `json:"sim_wall_ms,omitempty"`
	NativeWallMS float64 `json:"native_wall_ms"`
}

// NativeReport is the BENCH_native.json schema.
type NativeReport struct {
	HostInfo
	// Note states what the wall-clock numbers do and do not claim.
	Note             string           `json:"note"`
	SweepCycleBudget uint64           `json:"sweep_cycle_budget"`
	Benchmarks       []NativeRow      `json:"benchmarks"`
	Sweep            []NativeSweepRow `json:"sweep"`
	// SimDNF counts sweep sizes the simulator could not finish within the
	// cycle budget (exact: the budget and inputs are deterministic).
	SimDNF int `json:"sim_dnf"`
	// Speedup aggregates (host-dependent, never compared).
	MinSpeedup     float64 `json:"min_speedup"`
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// nativeNote is the report's standing honesty disclaimer.
const nativeNote = "wall-clock speedup of direct execution over cycle-accurate simulation " +
	"(functional pass + trace recording + timing replay) on this host; this is NOT " +
	"parallel speedup — every pipeline here is single-core, which the native backend " +
	"runs on one goroutine. The sweep shows scale reach: sizes the simulator cannot finish within " +
	"the fixed cycle budget still produce verified functional results natively."

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
		HostInfo:         Host(cfg.Scale),
		Note:             nativeNote,
		SweepCycleBudget: NativeSweepCycleBudget,
	}
	keep := map[string]bool{}
	for _, f := range families {
		keep[f] = true
	}
	opt := core.DefaultOptions()
	opt.CommOpt = true

	cfg.printf("\nNative backend: wall time vs the timing simulator (largest test input per family)\n")
	cfg.printf("%-8s %-14s %7s %7s %12s %14s %12s %12s %8s\n",
		"bench", "input", "stages", "queues", "cycles", "instructions", "sim-wall", "native-wall", "speedup")
	var speedups []float64
	for _, b := range workloads.Benchmarks(cfg.Scale) {
		if len(keep) > 0 && !keep[b.Name] {
			continue
		}
		prog, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		res, err := core.Compile(prog, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		in := b.Test[len(b.Test)-1]

		simStart := time.Now()
		st, err := runPipe(res.Pipeline, in.Bind(), in, 1, true)
		if err != nil {
			return nil, fmt.Errorf("%s (sim): %w", b.Name, err)
		}
		simWall := time.Since(simStart)

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
			SimWallMS:    float64(simWall.Microseconds()) / 1e3,
			NativeWallMS: float64(nst.Wall.Microseconds()) / 1e3,
		}
		row.Speedup = row.SimWallMS / row.NativeWallMS
		speedups = append(speedups, row.Speedup)
		rep.Benchmarks = append(rep.Benchmarks, row)
		cfg.printf("%-8s %-14s %7d %7d %12d %14d %10.1fms %10.1fms %7.1fx\n",
			row.Name, row.Input, row.Stages, row.Queues, row.Cycles, row.Instructions,
			row.SimWallMS, row.NativeWallMS, row.Speedup)
	}
	if len(speedups) > 0 {
		rep.MinSpeedup = speedups[0]
		for _, s := range speedups {
			rep.MinSpeedup = math.Min(rep.MinSpeedup, s)
		}
		rep.GeomeanSpeedup = gmean(speedups)
		cfg.printf("speedup: min %.1fx, geomean %.1fx (%s)\n", rep.MinSpeedup, rep.GeomeanSpeedup, "wall-clock vs timing simulation; see note")
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
	opt := core.DefaultOptions()
	opt.CommOpt = true
	res, err := core.Compile(prog, opt)
	if err != nil {
		return err
	}

	cfg.printf("\nBFS grid sweep: scale reach past the simulator's %d-cycle budget\n", uint64(NativeSweepCycleBudget))
	cfg.printf("%-12s %9s %9s %-12s %12s %14s %12s %12s\n",
		"input", "vertices", "edges", "sim", "sim-cycles", "instructions", "sim-wall", "native-wall")
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
		simStart := time.Now()
		st, simErr := simInst.Run()
		switch {
		case simErr == nil:
			if err := in.Verify(simInst); err != nil {
				return fmt.Errorf("%s (sim): %w", name, err)
			}
			row.SimOK, row.SimStatus = true, "ok"
			row.SimCycles = st.Cycles
			row.SimWallMS = float64(time.Since(simStart).Microseconds()) / 1e3
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
		row.NativeWallMS = float64(nst.Wall.Microseconds()) / 1e3

		rep.Sweep = append(rep.Sweep, row)
		simWall, simCyc := "-", "-"
		if row.SimOK {
			simWall = fmt.Sprintf("%.1fms", row.SimWallMS)
			simCyc = fmt.Sprintf("%d", row.SimCycles)
		}
		cfg.printf("%-12s %9d %9d %-12s %12s %14d %12s %10.1fms\n",
			row.Input, row.Vertices, row.Edges, row.SimStatus, simCyc, row.Instructions,
			simWall, row.NativeWallMS)
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
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DiffNativeReports compares two native reports. Only deterministic
// metrics are compared: pipeline shape, simulator cycles, instruction
// counts, and sweep reachability. Wall columns and speedups are
// host-dependent and never compared.
func DiffNativeReports(old, new *NativeReport, opt DiffOptions) []DiffFinding {
	d := &differ{opt: opt}
	if old.Scale != new.Scale {
		d.structural("", fmt.Sprintf("scale mismatch: old %q vs new %q (not comparable)", old.Scale, new.Scale))
		return d.findings
	}
	d.count("", "sweep_cycle_budget", int(old.SweepCycleBudget), int(new.SweepCycleBudget))
	d.count("", "sim_dnf", old.SimDNF, new.SimDNF)
	byName := map[string]*NativeRow{}
	for i := range new.Benchmarks {
		byName[new.Benchmarks[i].Name] = &new.Benchmarks[i]
	}
	for i := range old.Benchmarks {
		o := &old.Benchmarks[i]
		n, ok := byName[o.Name]
		if !ok {
			d.structural(o.Name, "benchmark missing from new report")
			continue
		}
		delete(byName, o.Name)
		d.count(o.Name, "stages", o.Stages, n.Stages)
		d.count(o.Name, "queues", o.Queues, n.Queues)
		d.cycles(o.Name, "cycles", o.Cycles, n.Cycles)
		d.cycles(o.Name, "instructions", o.Instructions, n.Instructions)
	}
	for name := range byName {
		d.structural(name, "benchmark only in new report")
	}
	bySize := map[string]*NativeSweepRow{}
	for i := range new.Sweep {
		bySize[new.Sweep[i].Input] = &new.Sweep[i]
	}
	for i := range old.Sweep {
		o := &old.Sweep[i]
		n, ok := bySize[o.Input]
		if !ok {
			d.structural(o.Input, "sweep size missing from new report")
			continue
		}
		delete(bySize, o.Input)
		d.count(o.Input, "vertices", o.Vertices, n.Vertices)
		d.flag(o.Input, "sim_ok", o.SimOK, n.SimOK)
		d.cycles(o.Input, "instructions", o.Instructions, n.Instructions)
		if o.SimOK && n.SimOK {
			d.cycles(o.Input, "sim_cycles", o.SimCycles, n.SimCycles)
		}
	}
	for name := range bySize {
		d.structural(name, "sweep size only in new report")
	}
	return d.findings
}
