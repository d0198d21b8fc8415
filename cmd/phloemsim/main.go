// Command phloemsim compiles a kernel and simulates it on a built-in
// workload, comparing serial and pipelined execution. It is a quick way to
// see the simulator's timing reports without writing a harness.
//
// Usage:
//
//	phloemsim -bench BFS -input road
//	phloemsim -faults list                      # list fault plans and stop
//	phloemsim -bench BFS -faults kitchen-sink   # chaos plan, results must match
//	phloemsim -bench BFS -cycle-budget 1000     # guardrail demo, exits 2
//	phloemsim -bench BFS -timeout 100ms         # wall-clock bound, exits 4
//	phloemsim -bench BFS -inject deadlock       # guardrail demo, exits 1
//	phloemsim -bench BFS -profile               # source-line stall profile
//	phloemsim -bench BFS -chrome-trace out.json # chrome://tracing timeline
//	phloemsim -bench BFS -telemetry s.csv -interval 1000
//	phloemsim -bench Radii -commopt             # apply commopt; occupancy table
//	phloemsim -bench BFS -backend native        # run on real Go concurrency
//
// With -commopt the compiled pipeline additionally runs through the static
// queue-communication optimization pass (internal/commopt) before
// simulation. The pass's capacity/fan-out plan is printed, and after the
// run a per-queue table compares the statically predicted maximum
// occupancy against the occupancy the simulator actually observed.
//
// With -backend native both legs execute on the native backend
// (internal/native): one goroutine per simulated core, its stages and RAs
// as resumable tasks, one bounded ring per queue. There is no cycle model, so the summary reports wall time,
// and the simulator-only flags (-telemetry, -profile, -chrome-trace,
// -faults, -cycle-budget) are rejected. -commopt still applies (its
// capacities size the native queues), but the occupancy table needs the
// simulator's probe and is skipped.
//
// Exit codes: 0 success, 1 compile failure/deadlock/any other error,
// 2 cycle or trace budget exceeded, 3 functional trap, 4 wall-clock
// timeout (-timeout) or interruption. The contract is backend-independent:
// the native backend fails with the same sentinel error classes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/fault"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/telemetry"
	"phloem/internal/workloads"
)

func main() { os.Exit(run()) }

// exitCode maps a failure onto the documented exit codes using the
// simulator's sentinel error classes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, sim.ErrCycleBudget), errors.Is(err, sim.ErrTraceLimit):
		return 2
	case errors.Is(err, sim.ErrTrap):
		return 3
	case errors.Is(err, sim.ErrWallBudget), errors.Is(err, sim.ErrCancelled):
		return 4
	default:
		return 1
	}
}

// listFaults prints every named fault plan (timing and search layer) with
// its description, plus the seeded-plan syntax.
func listFaults() {
	fmt.Println("timing-fault plans (phloemsim -faults <name>):")
	for _, p := range fault.Named() {
		fmt.Printf("  %-16s %s\n", p.Name, p.Desc)
	}
	fmt.Println("  seed-N           pseudo-random perturbation mix expanded from seed N")
	fmt.Println("search-fault plans (chaos-testing the autotune search layer):")
	for _, p := range fault.NamedSearch() {
		fmt.Printf("  %-16s %s\n", p.Name, p.Desc)
	}
	fmt.Println("  search-seed-N    pseudo-random search-fault mix expanded from seed N")
}

// injectDeadlock adds a dequeue from a fresh queue no stage feeds, so the
// pipeline blocks forever and the simulator's deadlock guardrail fires.
func injectDeadlock(pl *pipeline.Pipeline) {
	q := len(pl.Queues)
	pl.Queues = append(pl.Queues, pipeline.Queue{Name: "injected_dead"})
	v := pl.Prog.NewVar("injected_dead", ir.KInt)
	st := pl.Stages[0]
	st.Body = append([]ir.Stmt{&ir.Assign{Dst: v, Src: &ir.RvalDeq{Q: q}}}, st.Body...)
}

// injectTrap adds an out-of-bounds store, tripping a functional trap.
func injectTrap(pl *pipeline.Pipeline) {
	st := pl.Stages[0]
	st.Body = append([]ir.Stmt{
		&ir.Store{StoreID: 1 << 20, Slot: 0, Idx: ir.C(-1), Val: ir.C(0)},
	}, st.Body...)
}

func run() int {
	benchName := flag.String("bench", "BFS", "benchmark: BFS|CC|PRD|Radii|SpMM")
	inputName := flag.String("input", "", "input name (default: the road-like test input)")
	cycleBudget := flag.Uint64("cycle-budget", 0, "abort any run past this many cycles (exit code 2)")
	traceLimit := flag.Int("trace-limit", 0, "abort any run past this many executed instructions (exit code 2; works on both backends)")
	timeout := flag.Duration("timeout", 0, "abort any run past this wall-clock duration (exit code 4)")
	faultPlan := flag.String("faults", "", "timing-fault plan: a named plan or seed-N (results must still match); 'list' prints all plans")
	inject := flag.String("inject", "", "sabotage the pipeline to demo guardrails: deadlock|trap")
	seriesOut := flag.String("telemetry", "", "write the pipelined run's interval time-series to this file (.csv, else JSON; \"-\" = stdout)")
	profile := flag.Bool("profile", false, "print the pipelined run's source-annotated hot-lines stall profile")
	profileTop := flag.Int("profile-top", 10, "hot lines to show with -profile")
	chromeOut := flag.String("chrome-trace", "", "write the pipelined run as Chrome trace_event JSON to this file")
	interval := flag.Uint64("interval", 0, "telemetry sampling period in cycles (0: one end-of-run sample)")
	commOpt := flag.Bool("commopt", false,
		"apply the static queue-communication optimization pass and print its plan plus a predicted-vs-observed occupancy table")
	backendName := flag.String("backend", "sim",
		"execution backend: sim (cycle-accurate simulator) or native (real Go concurrency; wall time + functional results, no cycle model)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "phloemsim:", err)
		return exitCode(err)
	}

	if *faultPlan == "list" {
		listFaults()
		return 0
	}

	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		return fail(err)
	}
	if backend == core.BackendNative {
		// These features live in the timing simulator; there is no cycle
		// model or probe stream to drive natively.
		for flagName, set := range map[string]bool{
			"-telemetry":    *seriesOut != "",
			"-profile":      *profile,
			"-chrome-trace": *chromeOut != "",
			"-faults":       *faultPlan != "",
			"-cycle-budget": *cycleBudget != 0,
		} {
			if set {
				return fail(fmt.Errorf("%s requires -backend sim (the native backend has no cycle model)", flagName))
			}
		}
	}

	bench, err := workloads.ByName(workloads.ScaleTest, *benchName)
	if err != nil {
		return fail(err)
	}
	in := bench.Test[len(bench.Test)-1]
	if *inputName != "" {
		in = nil
		for _, cand := range append(bench.Train, bench.Test...) {
			if cand.Name == *inputName {
				in = cand
			}
		}
		if in == nil {
			return fail(fmt.Errorf("unknown input %q", *inputName))
		}
	}
	var plan fault.Plan
	if *faultPlan != "" {
		if plan, err = fault.ByName(*faultPlan); err != nil {
			return fail(err)
		}
		fmt.Printf("fault plan: %s\n", plan)
	}
	opt := core.DefaultOptions()
	switch *inject {
	case "":
	case "deadlock":
		opt.PostBuild, opt.SkipVerify = injectDeadlock, true
	case "trap":
		opt.PostBuild, opt.SkipVerify = injectTrap, true
	default:
		return fail(fmt.Errorf("unknown -inject mode %q (deadlock|trap)", *inject))
	}

	serialProg, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		return fail(err)
	}
	runPipe := func(name string, p *pipeline.Pipeline, col *telemetry.Collector) (*core.ExecStats, error) {
		inst, err := pipeline.Instantiate(p, arch.DefaultConfig(1), in.Bind())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		plan.Apply(inst.Machine)
		inst.Machine.Cfg.CycleBudget = *cycleBudget
		if *traceLimit > 0 {
			inst.Machine.MaxTraceEntries = *traceLimit
		}
		if *timeout > 0 {
			inst.Machine.WallDeadline = time.Now().Add(*timeout)
		}
		if col != nil {
			inst.Machine.Probe = col
			inst.Machine.Cfg.TelemetryInterval = *interval
		}
		st, err := core.Execute(inst, backend)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := in.Verify(inst); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("--- %s (%s)\n%s", name, backend, st.Report)
		return st, nil
	}

	sc, err := runPipe("serial", pipeline.NewSerial(serialProg), nil)
	if err != nil {
		return fail(err)
	}
	res, err := core.Compile(serialProg, opt)
	if err != nil {
		return fail(err)
	}
	var plan2 *commopt.Plan
	if *commOpt {
		plan2, err = commopt.Apply(res.Pipeline, arch.DefaultConfig(1),
			commopt.Options{Capacities: true, Multicast: true})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("--- %s\n%s", plan2.Summary(), plan2.String())
	}
	fmt.Printf("--- phloem pipeline\n%s", res.Pipeline.Describe())
	var col *telemetry.Collector
	if backend == core.BackendSim && (*seriesOut != "" || *profile || *chromeOut != "" || *commOpt) {
		col = telemetry.NewCollector()
		// Stamp the run's identity into the trace header so a sim-level
		// trace can be matched to the bench and input that produced it.
		col.SetMeta("bench", bench.Name)
		col.SetMeta("input", in.Name)
	}
	pc, err := runPipe("phloem", res.Pipeline, col)
	if err != nil {
		return fail(err)
	}
	if col != nil {
		if err := export(col, *seriesOut, *chromeOut, *profile, *profileTop, bench.SerialSource); err != nil {
			return fail(err)
		}
	}
	if plan2 != nil && col != nil {
		printOccupancy(plan2, col.Series())
	}
	if backend == core.BackendNative {
		// No cycle model natively: report wall time, and say what it is
		// not — this is serial-interpreter vs pipeline-interpreter wall
		// clock, not simulated speedup.
		fmt.Printf("\nwall on %s: serial %v, phloem %v (%s backend; wall-clock on this host, not simulated cycles)\n",
			in.Name, sc.Wall.Round(time.Microsecond), pc.Wall.Round(time.Microsecond), backend)
		return 0
	}
	fmt.Printf("\nspeedup on %s: %.2fx\n", in.Name, float64(sc.Cycles)/float64(pc.Cycles))
	return 0
}

// printOccupancy compares the commopt plan's statically predicted maximum
// queue occupancy against the occupancy the simulator observed. Predicted
// is an upper bound (the assigned or default capacity under backpressure),
// so observed must never exceed it.
func printOccupancy(plan *commopt.Plan, s *telemetry.Series) {
	obs := make([]int, len(plan.Queues))
	for _, row := range s.Rows {
		for q, qs := range row.Queues {
			if q < len(obs) && qs.Max > obs[q] {
				obs[q] = qs.Max
			}
		}
	}
	fmt.Println("--- occupancy: statically predicted max vs observed max")
	fmt.Printf("  %-3s %-14s %6s %6s %9s %9s\n", "q", "name", "before", "after", "predicted", "observed")
	for _, q := range plan.Queues {
		o := 0
		if q.ID < len(obs) {
			o = obs[q.ID]
		}
		fmt.Printf("  q%-2d %-14s %6d %6d %9d %9d\n", q.ID, q.Name, q.Before, q.After, q.MaxOcc, o)
	}
}

// export writes the telemetry artifacts requested on the command line.
func export(col *telemetry.Collector, seriesOut, chromeOut string, profile bool, top int, source string) error {
	if profile {
		fmt.Printf("--- stall profile\n%s", col.Profile().Render(top, source))
	}
	if seriesOut != "" {
		s := col.Series()
		write := func(w *os.File) error {
			if strings.HasSuffix(seriesOut, ".csv") {
				return s.WriteCSV(w)
			}
			return s.WriteJSON(w)
		}
		if seriesOut == "-" {
			if err := s.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(seriesOut)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if chromeOut != "" {
		f, err := os.Create(chromeOut)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
