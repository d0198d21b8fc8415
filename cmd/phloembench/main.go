// Command phloembench regenerates the paper's tables and figures on the
// simulated Pipette machine with the synthetic input suite.
//
// -exp compare is the benchmark regression gate: it re-runs the search,
// commopt and native reports at the committed BENCH_*.json files' scale/topk
// and diffs the fresh counts and simulator cycles against them (the reports
// carry no wall time). Any metric beyond threshold exits 3. -benchdiff diffs
// two already-written report files the same way without running anything.
//
// Usage:
//
//	phloembench -exp all
//	phloembench -exp fig9 -scale full -v
//	phloembench -exp compare -j 4
//	phloembench -benchdiff BENCH_search.json fresh.json
package main

import (
	"flag"
	"fmt"
	"os"

	"phloem/internal/bench"
	"phloem/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: table3|table4|table5|fig6|fig9|fig10|fig11|fig12|fig13|fig14|ablations|telemetry|search|interrupt|commopt|native|compare|all")
	scale := flag.String("scale", "test", "input scale: test|full")
	verbose := flag.Bool("v", false, "print per-input rows")
	parallel := flag.Int("j", 0,
		"autotune/search worker parallelism (0 = GOMAXPROCS, 1 = serial; results are identical for every value)")
	searchOut := flag.String("search-out", "BENCH_search.json",
		"output path for the -exp search report (for -exp compare: the committed report to diff against; \"\" skips it)")
	commOptOut := flag.String("commopt-out", "BENCH_commopt.json",
		"output path for the -exp commopt report (for -exp compare: the committed report to diff against; \"\" skips it)")
	nativeOut := flag.String("native-out", "BENCH_native.json",
		"output path for the -exp native report (for -exp compare: the committed report to diff against; \"\" skips it)")
	topK := flag.Int("topk", 0,
		"with -exp search: K for the static rank-and-prune leg (0 = default 5)")
	benchdiff := flag.Bool("benchdiff", false,
		"diff two BENCH report files (old new) with the regression thresholds and exit 3 on regression; no benchmarks are run")
	cyclesTol := flag.Float64("cycles-tol", bench.DefaultDiffOptions().CyclesTolPct,
		"compare/benchdiff: allowed cycle/stall increase in percent before a metric counts as a regression")
	countTol := flag.Int("count-tol", bench.DefaultDiffOptions().CountTol,
		"compare/benchdiff: allowed absolute drift on count metrics (0 = counts must match exactly)")
	flag.Parse()

	diffOpt := bench.DiffOptions{CyclesTolPct: *cyclesTol, CountTol: *countTol}
	if *benchdiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: phloembench -benchdiff [-cycles-tol P] [-count-tol N] old.json new.json")
			os.Exit(2)
		}
		findings, err := bench.DiffReportFiles(os.Stdout, flag.Arg(0), flag.Arg(1), diffOpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloembench:", err)
			os.Exit(1)
		}
		if len(bench.Regressions(findings)) > 0 {
			os.Exit(3)
		}
		return
	}

	cfg := bench.Config{Scale: workloads.ScaleTest, Out: os.Stdout, Verbose: *verbose,
		Parallelism: *parallel, TopK: *topK}
	if *scale == "full" {
		cfg.Scale = workloads.ScaleFull
	}

	run := func() error {
		switch *exp {
		case "table3":
			bench.Table3(cfg)
		case "table4":
			bench.Table4(cfg)
		case "table5":
			bench.Table5(cfg)
		case "fig6":
			return bench.Fig6(cfg)
		case "fig9", "fig10", "fig11":
			var results []*bench.BenchResult
			for _, b := range workloads.Benchmarks(cfg.Scale) {
				fmt.Fprintf(os.Stderr, "running %s...\n", b.Name)
				r, err := bench.RunBenchmark(cfg, b)
				if err != nil {
					return err
				}
				results = append(results, r)
			}
			switch *exp {
			case "fig9":
				bench.Fig9(cfg, results)
			case "fig10":
				bench.Fig10(cfg, results)
			case "fig11":
				bench.Fig11(cfg, results)
			}
		case "fig12":
			return bench.Fig12(cfg)
		case "fig13":
			return bench.Fig13(cfg)
		case "fig14":
			return bench.Fig14(cfg)
		case "ablations":
			return bench.Ablations(cfg)
		case "interrupt":
			return bench.InterruptResume(cfg)
		case "telemetry":
			return bench.Telemetry(cfg)
		case "search":
			if err := bench.SearchPerfJSON(cfg, *searchOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *searchOut)
		case "commopt":
			if err := bench.CommOptJSON(cfg, *commOptOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *commOptOut)
		case "native":
			if err := bench.NativeJSON(cfg, *nativeOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *nativeOut)
		case "compare":
			findings, err := bench.Compare(cfg, []string{*searchOut, *commOptOut, *nativeOut}, diffOpt)
			if err != nil {
				return err
			}
			if n := len(bench.Regressions(findings)); n > 0 {
				fmt.Fprintf(os.Stderr, "phloembench: %d metric(s) regressed beyond threshold\n", n)
				os.Exit(3)
			}
		case "all":
			return bench.All(cfg)
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		return nil
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "phloembench:", err)
		os.Exit(1)
	}
}
