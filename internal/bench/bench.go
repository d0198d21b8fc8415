// Package bench regenerates the paper's evaluation (Sec. VII): one runner
// per table and figure, printing the same rows/series the paper reports.
// Absolute numbers come from this repo's simulator and synthetic inputs; the
// claims under test are the shapes — who wins, by roughly what factor, and
// where the crossovers fall. EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// Config sizes and steers a run.
type Config struct {
	Scale workloads.Scale
	// Out receives the formatted tables.
	Out io.Writer
	// Verbose also prints per-input rows.
	Verbose bool
	// Parallelism is passed to the autotune/Search engine (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for every value; only wall-clock
	// time changes.
	Parallelism int
	// SkipSearchBaseline drops the pre-engine baseline leg (every candidate
	// measured to completion) from SearchPerf. No gated value depends on
	// it, so -exp compare and the package tests skip it to save time;
	// `phloembench -exp search` runs it for the rank correlation.
	SkipSearchBaseline bool
	// TopK sets the K for SearchPerf's static rank-and-prune leg
	// (0 = DefaultSearchTopK).
	TopK int
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// runPipe instantiates, runs, and verifies one variant on one input.
func runPipe(pipe *pipeline.Pipeline, b pipeline.Bindings, in *workloads.Input,
	cores int, verify bool) (*sim.Stats, error) {
	return runPipeBudget(pipe, b, in, cores, verify, core.Budget{})
}

// runPipeBudget is runPipe with a measurement budget applied to the machine
// (zero Budget leaves the defaults).
func runPipeBudget(pipe *pipeline.Pipeline, b pipeline.Bindings, in *workloads.Input,
	cores int, verify bool, budget core.Budget) (*sim.Stats, error) {
	inst, err := pipeline.Instantiate(pipe, arch.DefaultConfig(cores), b)
	if err != nil {
		return nil, err
	}
	inst.Machine.MaxTraceEntries = 256 << 20
	budget.Apply(inst.Machine)
	st, err := inst.Run()
	if err != nil {
		return nil, err
	}
	if verify && in != nil && in.Verify != nil {
		if err := in.Verify(inst); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// VariantStats aggregates one variant's results across a benchmark's inputs.
type VariantStats struct {
	Name string
	// Speedups over serial, per input.
	Speedups []float64
	// Representative stats (from the last input) for breakdowns.
	Stats *sim.Stats
	// SerialStats pairs with Stats for normalization.
	SerialStats *sim.Stats
}

// BenchResult is everything Figs. 9-11 need for one benchmark.
type BenchResult struct {
	Bench    *workloads.Benchmark
	Serial   *sim.Stats
	Variants []*VariantStats
	// StaticSpeedup is the static-flow pipeline's gmean speedup (the x
	// marks in Fig. 9).
	StaticSpeedup float64
}

// Trainers builds the autotuner's training callbacks for a benchmark. Each
// callback applies the per-candidate budget so pathological candidates
// abort instead of hanging the search. The callbacks bind fresh input copies
// per call and share only the read-only input structures, so concurrent
// search workers may invoke them on different pipelines simultaneously.
func Trainers(bench *workloads.Benchmark) []core.TrainFunc {
	var out []core.TrainFunc
	for _, in := range bench.Train {
		in := in
		out = append(out, func(p *pipeline.Pipeline, b core.Budget) (uint64, error) {
			st, err := runPipeBudget(p, in.Bind(), in, 1, true, b)
			if err != nil {
				return 0, err
			}
			return st.Cycles, nil
		})
	}
	return out
}

// autotuneOptions is the standard profile-guided configuration for a
// benchmark under this Config.
func autotuneOptions(cfg Config, bench *workloads.Benchmark) core.Options {
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = Trainers(bench)
	opt.Parallelism = cfg.Parallelism
	return opt
}

// RunBenchmark measures serial, data-parallel, Phloem (PGO + static), and
// manual variants of one benchmark over its test inputs.
func RunBenchmark(cfg Config, bench *workloads.Benchmark) (*BenchResult, error) {
	serialProg, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bench.Name, err)
	}
	serialPipe := pipeline.NewSerial(serialProg)

	staticRes, err := core.Compile(serialProg, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s static: %w", bench.Name, err)
	}
	pgoRes, err := core.Compile(serialProg, autotuneOptions(cfg, bench))
	if err != nil {
		return nil, fmt.Errorf("%s autotune: %w", bench.Name, err)
	}
	dp, err := workloads.BuildDataParallel(bench.DPSource, 4, 4)
	if err != nil {
		return nil, fmt.Errorf("%s dp: %w", bench.Name, err)
	}
	var manual *pipeline.Pipeline
	if bench.Manual != nil {
		manual, err = bench.Manual()
		if err != nil {
			return nil, fmt.Errorf("%s manual: %w", bench.Name, err)
		}
	} else {
		// Expert-selected points: oracle search over the training suite
		// stands in for hand tuning (see DESIGN.md substitutions).
		manual = pgoRes.Pipeline
	}

	res := &BenchResult{Bench: bench}
	dpV := &VariantStats{Name: "Data-parallel"}
	pgoV := &VariantStats{Name: "Phloem"}
	staticV := &VariantStats{Name: "Phloem-static"}
	manV := &VariantStats{Name: "Manual"}

	for _, in := range bench.Test {
		ser, err := runPipe(serialPipe, in.Bind(), in, 1, true)
		if err != nil {
			return nil, fmt.Errorf("%s/%s serial: %w", bench.Name, in.Name, err)
		}
		res.Serial = ser
		add := func(v *VariantStats, pipe *pipeline.Pipeline, b pipeline.Bindings) error {
			st, err := runPipe(pipe, b, in, 1, true)
			if err != nil {
				return fmt.Errorf("%s/%s %s: %w", bench.Name, in.Name, v.Name, err)
			}
			v.Speedups = append(v.Speedups, float64(ser.Cycles)/float64(st.Cycles))
			v.Stats = st
			v.SerialStats = ser
			return nil
		}
		if err := add(dpV, dp, in.BindDP(4)); err != nil {
			return nil, err
		}
		if err := add(pgoV, pgoRes.Pipeline, in.Bind()); err != nil {
			return nil, err
		}
		if err := add(staticV, staticRes.Pipeline, in.Bind()); err != nil {
			return nil, err
		}
		if err := add(manV, manual, in.Bind()); err != nil {
			return nil, err
		}
		if cfg.Verbose {
			cfg.printf("  %-12s serial=%-9d dp=%.2fx phloem=%.2fx static=%.2fx manual=%.2fx\n",
				in.Name, ser.Cycles,
				dpV.Speedups[len(dpV.Speedups)-1],
				pgoV.Speedups[len(pgoV.Speedups)-1],
				staticV.Speedups[len(staticV.Speedups)-1],
				manV.Speedups[len(manV.Speedups)-1])
		}
	}
	res.Variants = []*VariantStats{dpV, pgoV, manV}
	res.StaticSpeedup = gmean(staticV.Speedups)
	return res, nil
}

// Fig9 prints the per-benchmark speedups over serial.
func Fig9(cfg Config, results []*BenchResult) {
	cfg.printf("\nFig. 9: speedup over serial (gmean across test inputs)\n")
	cfg.printf("%-8s %14s %14s %16s %14s\n", "bench", "data-parallel", "phloem(PGO)", "phloem(static x)", "manual")
	var all []float64
	for _, r := range results {
		row := map[string]float64{}
		for _, v := range r.Variants {
			row[v.Name] = gmean(v.Speedups)
		}
		cfg.printf("%-8s %13.2fx %13.2fx %15.2fx %13.2fx\n",
			r.Bench.Name, row["Data-parallel"], row["Phloem"], r.StaticSpeedup, row["Manual"])
		all = append(all, row["Phloem"])
	}
	cfg.printf("%-8s %42.2fx  (paper: 1.7x)\n", "gmean", gmean(all))
}

// Fig10 prints the cycle breakdowns normalized to serial.
func Fig10(cfg Config, results []*BenchResult) {
	cfg.printf("\nFig. 10: cycle breakdown normalized to serial (issue/backend/queue/other)\n")
	cfg.printf("%-8s %-14s %8s %8s %8s %8s %8s\n",
		"bench", "variant", "total", "issue", "backend", "queue", "other")
	for _, r := range results {
		base := float64(breakdownTotal(r.Serial))
		print := func(name string, st *sim.Stats) {
			b := st.TotalBreakdown()
			cfg.printf("%-8s %-14s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				r.Bench.Name, name, float64(b.Total())/base,
				float64(b.Issue)/base, float64(b.Backend)/base,
				float64(b.Queue)/base, float64(b.Other)/base)
		}
		print("Serial", r.Serial)
		for _, v := range r.Variants {
			print(v.Name, v.Stats)
		}
	}
}

func breakdownTotal(st *sim.Stats) uint64 {
	return st.TotalBreakdown().Total()
}

// Fig11 prints the energy breakdowns normalized to serial.
func Fig11(cfg Config, results []*BenchResult) {
	cfg.printf("\nFig. 11: energy normalized to serial (core/cache/dram/queue+ra/static)\n")
	cfg.printf("%-8s %-14s %8s %8s %8s %8s %8s %8s\n",
		"bench", "variant", "total", "core", "cache", "dram", "queue", "static")
	for _, r := range results {
		base := r.Serial.Energy.Total()
		print := func(name string, st *sim.Stats) {
			e := st.Energy
			cfg.printf("%-8s %-14s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				r.Bench.Name, name, e.Total()/base, e.CoreDynamic/base,
				e.CacheAccess/base, e.DRAM/base, e.QueueRA/base, e.Static/base)
		}
		print("Serial", r.Serial)
		for _, v := range r.Variants {
			print(v.Name, v.Stats)
		}
	}
}

// Fig6 prints the BFS pass-ablation ladder (speedup as passes accumulate).
func Fig6(cfg Config) error {
	cfg.printf("\nFig. 6: BFS speedup with each added pass (road-network input)\n")
	bench, err := workloads.ByName(cfg.Scale, "BFS")
	if err != nil {
		return err
	}
	in := bench.Test[len(bench.Test)-1] // the road network
	serialProg, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		return err
	}
	ser, err := runPipe(pipeline.NewSerial(serialProg), in.Bind(), in, 1, true)
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		opt  passes.Options
	}{
		{"Q (add queues)", passes.Options{}},
		{"R,Q", passes.Options{Recompute: true}},
		{"CV,R,Q", passes.Options{Recompute: true, CtrlValues: true}},
		{"CV,DCE,R,Q", passes.Options{Recompute: true, CtrlValues: true, InterstageDCE: true}},
		{"CH,CV,DCE,R,Q", passes.Options{Recompute: true, CtrlValues: true, InterstageDCE: true, Handlers: true}},
		{"RA,CH,CV,DCE,R,Q", passes.Default()},
	}
	cfg.printf("%-18s %10s %9s\n", "passes", "cycles", "speedup")
	cfg.printf("%-18s %10d %8.2fx\n", "serial", ser.Cycles, 1.0)
	for _, s := range steps {
		opt := core.DefaultOptions()
		opt.EnableAblation = true
		opt.Passes = s.opt
		res, err := core.Compile(serialProg, opt)
		if err != nil {
			return fmt.Errorf("fig6 %s: %w", s.name, err)
		}
		st, err := runPipe(res.Pipeline, in.Bind(), in, 1, true)
		if err != nil {
			return fmt.Errorf("fig6 %s: %w", s.name, err)
		}
		cfg.printf("%-18s %10d %8.2fx\n", s.name, st.Cycles, float64(ser.Cycles)/float64(st.Cycles))
	}
	cfg.printf("(paper: control passes build to ~1.85x; RAs lift BFS to ~4.7x)\n")
	return nil
}

// Fig13 prints the stage-count distribution of the pipeline search.
func Fig13(cfg Config) error {
	cfg.printf("\nFig. 13: training-input speedup of searched pipelines by stage count\n")
	for _, name := range []string{"BFS", "CC", "SpMM"} {
		bench, err := workloads.ByName(cfg.Scale, name)
		if err != nil {
			return err
		}
		serialProg, err := workloads.CompileSerial(bench.SerialSource)
		if err != nil {
			return err
		}
		// Serial baseline summed over training inputs.
		var serTotal uint64
		for _, in := range bench.Train {
			st, err := runPipe(pipeline.NewSerial(serialProg), in.Bind(), in, 1, true)
			if err != nil {
				return err
			}
			serTotal += st.Cycles
		}
		opt := core.DefaultOptions()
		opt.Training = Trainers(bench)
		opt.Parallelism = cfg.Parallelism
		// Fig. 13 is the landscape itself: disable branch-and-bound so slow
		// candidates report true cycle counts instead of SkipBudget.
		opt.Exhaustive = true
		points, err := core.Search(serialProg, opt)
		if err != nil {
			return err
		}
		byStage := map[int][]float64{}
		measured, skipped := 0, 0
		for _, p := range points {
			if p.Skip != nil { // dropped candidates carry no cycle count
				skipped++
				continue
			}
			measured++
			byStage[p.TotalStages] = append(byStage[p.TotalStages],
				float64(serTotal)/float64(p.Cycles))
		}
		var stages []int
		for s := range byStage {
			stages = append(stages, s)
		}
		sort.Ints(stages)
		cfg.printf("%-6s searched %d pipelines (%d skipped)\n", name, measured, skipped)
		for _, s := range stages {
			xs := byStage[s]
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo = math.Min(lo, x)
				hi = math.Max(hi, x)
			}
			cfg.printf("  %2d stages (+RAs): n=%-3d best=%5.2fx worst=%5.2fx\n",
				s, len(xs), hi, lo)
		}
	}
	cfg.printf("(paper: BFS peaks at 4 stages; SpMM degrades as stages are added)\n")
	return nil
}
