// Command phloemsim compiles a kernel and simulates it on a built-in
// workload, comparing serial and pipelined execution. It is a quick way to
// see the simulator's timing reports without writing a harness.
//
// Usage:
//
//	phloemsim -bench BFS -input road
//	phloemsim -bench BFS -cycle-budget 1000     # guardrail demo, exits 2
//	phloemsim -bench BFS -timeout 100ms         # per-run wall-clock bound, exits 4
//	phloemsim -bench BFS -inject deadlock       # guardrail demo, exits 1
//	phloemsim -bench BFS -profile               # source-line stall profile
//	phloemsim -bench BFS -chrome-trace out.json # chrome://tracing timeline
//	phloemsim -bench BFS -telemetry s.csv -interval 1000
//	phloemsim -bench BFS -backend native        # run on real Go concurrency
//
// With -backend native both legs execute on the native backend
// (internal/native): one goroutine per simulated core, its stages and RAs
// as resumable tasks, one bounded ring per queue. There is no cycle model,
// so the summary reports wall time, and the simulator-only flags
// (-telemetry, -profile, -chrome-trace, -cycle-budget) are rejected.
//
// Exit codes: 0 success, 1 compile failure/deadlock/any other error,
// 2 cycle or trace budget exceeded, 3 functional trap, 4 wall-clock
// timeout (-timeout) or interruption. The contract is backend-independent:
// the native backend fails with the same sentinel error classes. -timeout
// bounds each run (serial and pipelined) on its own: every run gets its own
// context.WithTimeout on Machine.Ctx, and an expired one is sim.ErrCancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/ir"
	"phloem/internal/native"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
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
	case errors.Is(err, sim.ErrCancelled):
		return 4
	default:
		return 1
	}
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
	timeout := flag.Duration("timeout", 0, "abort a run past this wall-clock duration, bounding the serial and pipelined runs each on its own (exit code 4)")
	inject := flag.String("inject", "", "sabotage the pipeline to demo guardrails: deadlock|trap")
	seriesOut := flag.String("telemetry", "", "write the pipelined run's interval time-series to this file (.csv, else JSON; \"-\" = stdout)")
	profile := flag.Bool("profile", false, "print the pipelined run's source-annotated hot-lines stall profile")
	profileTop := flag.Int("profile-top", 10, "hot lines to show with -profile")
	chromeOut := flag.String("chrome-trace", "", "write the pipelined run as Chrome trace_event JSON to this file (\"-\" = stdout)")
	interval := flag.Uint64("interval", 0, "telemetry sampling period in cycles (0: one end-of-run sample)")
	backendName := flag.String("backend", "sim",
		"execution backend: sim (cycle-accurate simulator) or native (real Go concurrency; wall time + functional results, no cycle model)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "phloemsim:", err)
		return exitCode(err)
	}

	backend := *backendName
	switch backend {
	case "sim":
	case "native":
		// These features live in the timing simulator; there is no cycle
		// model or probe stream to drive natively.
		for flagName, set := range map[string]bool{
			"-telemetry":    *seriesOut != "",
			"-profile":      *profile,
			"-chrome-trace": *chromeOut != "",
			"-cycle-budget": *cycleBudget != 0,
		} {
			if set {
				return fail(fmt.Errorf("%s requires -backend sim (the native backend has no cycle model)", flagName))
			}
		}
	default:
		return fail(fmt.Errorf("unknown backend %q (sim|native)", backend))
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
	// runPipe runs one leg on the selected backend and returns its
	// simulated cycles (sim) or host wall time (native).
	runPipe := func(name string, p *pipeline.Pipeline, col *obs.SimCollector) (cycles uint64, wall time.Duration, err error) {
		inst, err := pipeline.Instantiate(p, arch.DefaultConfig(1), in.Bind())
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		inst.Machine.Cfg.CycleBudget = *cycleBudget
		if *traceLimit > 0 {
			inst.Machine.MaxTraceEntries = *traceLimit
		}
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			inst.Machine.Ctx = ctx
		}
		if col != nil {
			inst.Machine.Probe = col
			inst.Machine.Cfg.TelemetryInterval = *interval
		}
		var report string
		if backend == "native" {
			var st *native.Stats
			if st, err = native.Run(inst.Machine, native.Options{}); err == nil {
				wall, report = st.Wall, st.String()
			}
		} else {
			var st *sim.Stats
			if st, err = inst.Run(); err == nil {
				cycles, report = st.Cycles, st.String()
			}
		}
		if err == nil {
			err = in.Verify(inst)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("--- %s (%s)\n%s", name, backend, report)
		return cycles, wall, nil
	}

	serialCycles, serialWall, err := runPipe("serial", pipeline.NewSerial(serialProg), nil)
	if err != nil {
		return fail(err)
	}
	res, err := core.Compile(serialProg, opt)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("--- phloem pipeline\n%s", res.Pipeline.Describe())
	var col *obs.SimCollector
	if backend == "sim" && (*seriesOut != "" || *profile || *chromeOut != "") {
		col = obs.NewSimCollector()
		// Stamp the run's identity into the trace header so a sim-level
		// trace can be matched to the bench and input that produced it.
		col.SetMeta("bench", bench.Name)
		col.SetMeta("input", in.Name)
	}
	pipeCycles, pipeWall, err := runPipe("phloem", res.Pipeline, col)
	if err != nil {
		return fail(err)
	}
	if col != nil {
		if err := export(col, *seriesOut, *chromeOut, *profile, *profileTop, bench.SerialSource); err != nil {
			return fail(err)
		}
	}
	if backend == "native" {
		// No cycle model natively: report wall time, and say what it is
		// not — this is serial-interpreter vs pipeline-interpreter wall
		// clock, not simulated speedup.
		fmt.Printf("\nwall on %s: serial %v, phloem %v (%s backend; wall-clock on this host, not simulated cycles)\n",
			in.Name, serialWall.Round(time.Microsecond), pipeWall.Round(time.Microsecond), backend)
		return 0
	}
	fmt.Printf("\nspeedup on %s: %.2fx\n", in.Name, float64(serialCycles)/float64(pipeCycles))
	return 0
}

// export writes the telemetry artifacts requested on the command line.
func export(col *obs.SimCollector, seriesOut, chromeOut string, profile bool, top int, source string) error {
	if profile {
		fmt.Printf("--- stall profile\n%s", col.Profile().Render(top, source))
	}
	if seriesOut != "" {
		s := col.Series()
		write := s.WriteJSON
		if seriesOut == "-" || strings.HasSuffix(seriesOut, ".csv") {
			write = s.WriteCSV
		}
		if err := obs.WriteFile(seriesOut, write); err != nil {
			return err
		}
	}
	if chromeOut != "" {
		return obs.WriteFile(chromeOut, col.WriteChromeTrace)
	}
	return nil
}
