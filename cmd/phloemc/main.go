// Command phloemc compiles a serial C-subset kernel into a pipeline and
// prints its structure (stages, queues, reference accelerators) and,
// with -dump, the generated per-stage IR.
//
// With -lint it instead runs the static pipeline verifier over the
// compiled pipeline and prints every diagnostic (warnings included, which
// a normal compile does not reject), exiting non-zero if any are errors.
//
// With -effects it stops after the frontend and prints the memory-effects
// analysis: per-parameter points-to sets, the MOD/REF summary of every
// array access, and the alias verdict for each parameter pair. Exits 1
// when the kernel has a may-alias conflict the analysis cannot prove safe.
//
// With -cost it compiles the kernel and prints the static cost model's
// report: per-entity cycle estimates (abstract units), the predicted
// bottleneck, per-core issue load, and per-queue token traffic with the
// recommended capacity. This is the same model the autotuner's -topk
// pruning ranks candidates with.
//
// With -commopt it compiles the kernel, applies the static
// queue-communication optimization pass (internal/commopt), and prints its
// plan: per-queue class, burst, commitment floor, before/after capacity,
// and predicted occupancy, plus any multicast fan-out rewrites. The
// printed pipeline below the plan reflects the applied assignments.
//
// Exit codes: 0 clean (warnings allowed), 1 compile or verifier errors,
// 2 usage errors, 4 search cancelled by -timeout (the partial best-so-far
// result is still printed).
//
// With -autotune <bench> it runs the profile-guided search for one of the
// built-in workload benchmarks on its training inputs (no kernel argument)
// and prints the chosen pipeline plus search statistics; -j sets the search
// worker parallelism (results are identical at every level), and -topk N
// restricts measurement to the N best candidates by static predicted cost.
// -timeout bounds the search in wall-clock time: on expiry the best
// pipeline measured so far is printed and the process exits 4. -checkpoint
// journals every completed measurement to a file, and -resume replays a
// journal left by an interrupted run, reproducing the uninterrupted result
// byte-identically without re-simulating finished candidates.
//
// The search itself is observable (internal/obs), strictly opt-in:
// -progress draws a live measured/remaining/ETA line on stderr, -search-stats
// prints per-phase wall-time and candidate-lifecycle metrics after the run,
// and -search-trace writes the whole search as Chrome trace_event JSON (one
// track per worker, per-candidate phase spans). With none of these flags the
// Observer stays nil and the search output is bit-identical.
//
// Usage:
//
//	phloemc kernel.c
//	phloemc -threads 4 -passes Q,R,CV -dump kernel.c
//	phloemc -lint kernel.c
//	phloemc -effects kernel.c
//	phloemc -cost kernel.c
//	phloemc -autotune BFS -j 4 -topk 5
//	phloemc -autotune BFS -progress -search-stats -search-trace search.json
//	phloemc -autotune BFS -timeout 30s -checkpoint bfs.ckpt
//	phloemc -autotune BFS -checkpoint bfs.ckpt -resume
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
	"phloem/internal/bench"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/effects"
	"phloem/internal/ir"
	"phloem/internal/obs"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/source"
	"phloem/internal/verify"
	"phloem/internal/workloads"
)

// injectRogueCode plants a control code no consumer dispatches next to the
// first control enqueue it finds. Used by -lint-inject to demonstrate what
// a verifier failure looks like on otherwise-clean source.
func injectRogueCode(pl *pipeline.Pipeline) {
	for _, st := range pl.Stages {
		for i, s := range st.Body {
			if ec, ok := s.(*ir.EnqCtrl); ok {
				rogue := &ir.EnqCtrl{Q: ec.Q, Code: arch.CtrlUser + 7}
				st.Body = append(st.Body[:i:i], append([]ir.Stmt{rogue}, st.Body[i:]...)...)
				return
			}
		}
	}
}

// autotuneFlags carries the -autotune run configuration.
type autotuneFlags struct {
	parallelism, threads, topK int
	timeout                    time.Duration
	checkpoint                 string
	resume                     bool
	progress                   bool
	searchTrace                string
	searchStats                bool
}

// runAutotune searches the candidate space of one built-in workload
// benchmark on its training inputs and prints the winning pipeline plus
// search statistics. Returns cancelled=true when the -timeout expired and
// the printed result is the partial best-so-far.
func runAutotune(name string, f autotuneFlags) (cancelled bool, err error) {
	wl, err := workloads.ByName(workloads.ScaleTest, name)
	if err != nil {
		return false, err
	}
	prog, err := workloads.CompileSerial(wl.SerialSource)
	if err != nil {
		return false, err
	}
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.MaxThreads = f.threads
	opt.Training = bench.Trainers(wl)
	opt.Parallelism = f.parallelism
	opt.TopK = f.topK
	if f.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
		defer cancel()
		opt.Ctx = ctx
	}
	opt.Checkpoint = f.checkpoint
	opt.Resume = f.resume
	// Observability is strictly opt-in: with none of the flags set the
	// Observer stays nil and the search output is bit-identical.
	var observers obs.Tee
	var col *obs.SearchCollector
	if f.progress {
		observers = append(observers, obs.NewProgress(os.Stderr))
	}
	if f.searchTrace != "" || f.searchStats {
		col = obs.NewSearchCollector()
		observers = append(observers, col)
	}
	if len(observers) > 0 {
		opt.Observer = observers
	}
	start := time.Now()
	res, err := core.Compile(prog, opt)
	if err != nil {
		return false, err
	}
	elapsed := time.Since(start)
	fmt.Print(res.Pipeline.Describe())
	fmt.Printf("\nsearch: enumerated %d candidates, measured %d, deduplicated %d, skipped %d\n",
		res.Enumerated, res.Searched, res.Deduped, len(res.Skips))
	if f.topK > 0 {
		fmt.Printf("static rank: pruned %d candidates outside top-%d (rank phase took %dms)\n",
			res.Pruned, f.topK, res.RankMillis)
	}
	if res.Replayed > 0 {
		fmt.Printf("checkpoint: replayed %d measurements from %s\n", res.Replayed, f.checkpoint)
	}
	fmt.Printf("best training run: %d cycles; search took %s (parallelism %d)\n",
		res.TrainCycles, elapsed.Round(time.Millisecond), f.parallelism)
	if res.Cancelled {
		fmt.Printf("search cancelled (%v): result is the best of the candidates measured before the cut\n",
			res.CancelCause)
	}
	if col != nil {
		if f.searchStats {
			fmt.Printf("\n%s", col.Metrics().String())
		}
		if f.searchTrace != "" {
			if err := obs.WriteFile(f.searchTrace, col.WriteChromeTrace); err != nil {
				return res.Cancelled, err
			}
			fmt.Printf("search trace: wrote %s (%d events; open in chrome://tracing or Perfetto)\n",
				f.searchTrace, col.Len())
		}
	}
	return res.Cancelled, nil
}

func main() {
	threads := flag.Int("threads", 4, "maximum pipeline threads (SMT width)")
	passList := flag.String("passes", "all",
		"comma-separated passes: Q (always on), R, RA, CV, CH, DCE, or 'all'")
	dump := flag.Bool("dump", false, "print per-stage IR")
	lint := flag.Bool("lint", false, "run the static pipeline verifier and print its report")
	effDump := flag.Bool("effects", false,
		"print the frontend memory-effects analysis (points-to, MOD/REF, alias verdicts) and stop")
	lintInject := flag.Bool("lint-inject", false,
		"with -lint: inject a control-protocol violation first (demonstration)")
	costDump := flag.Bool("cost", false,
		"print the static cost model's report (bottleneck, per-entity estimates, queue capacity plan)")
	commOpt := flag.Bool("commopt", false,
		"apply the static queue-communication optimization pass and print its capacity/fan-out plan")
	autotuneBench := flag.String("autotune", "",
		"run the profile-guided search for a built-in benchmark (e.g. BFS) instead of compiling a kernel file")
	parallel := flag.Int("j", 0,
		"with -autotune: search worker parallelism (0 = GOMAXPROCS, 1 = serial; results are identical for every value)")
	topK := flag.Int("topk", 0,
		"with -autotune: measure only the K best candidates by static predicted cost (0 = measure all)")
	timeout := flag.Duration("timeout", 0,
		"with -autotune: wall-clock search budget; on expiry the best-so-far pipeline is printed and the exit code is 4 (0 = unbounded)")
	checkpoint := flag.String("checkpoint", "",
		"with -autotune: journal completed measurements to this file so an interrupted search can be resumed")
	resume := flag.Bool("resume", false,
		"with -autotune: replay measurements from the -checkpoint journal instead of re-simulating them")
	progress := flag.Bool("progress", false,
		"with -autotune: live search progress on stderr (measured/remaining/ETA)")
	searchTrace := flag.String("search-trace", "",
		"with -autotune: write the search itself as Chrome trace_event JSON (one track per worker, per-candidate phase spans; \"-\" = stdout)")
	searchStats := flag.Bool("search-stats", false,
		"with -autotune: print per-phase wall-time and candidate-lifecycle metrics after the search")
	flag.Parse()
	if *autotuneBench != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: phloemc -autotune <bench> [-j N] [-topk K] [-timeout D] [-checkpoint F [-resume]] (no kernel argument)")
			os.Exit(2)
		}
		if *resume && *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "phloemc: -resume requires -checkpoint")
			os.Exit(2)
		}
		cancelled, err := runAutotune(*autotuneBench, autotuneFlags{
			parallelism: *parallel, threads: *threads, topK: *topK,
			timeout: *timeout, checkpoint: *checkpoint, resume: *resume,
			progress: *progress, searchTrace: *searchTrace, searchStats: *searchStats,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			// A deadline so tight the search never got started still honors
			// the cancellation exit code, it just has no partial result.
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				os.Exit(4)
			}
			os.Exit(1)
		}
		if cancelled {
			os.Exit(4)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: phloemc [flags] kernel.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "phloemc:", err)
		os.Exit(1)
	}

	opt := core.DefaultOptions()
	opt.MaxThreads = *threads
	if *passList != "all" {
		opt.EnableAblation = true
		var p passes.Options
		for _, name := range strings.Split(*passList, ",") {
			switch strings.TrimSpace(strings.ToUpper(name)) {
			case "Q", "":
				// decouple + add queues is always on
			case "R":
				p.Recompute = true
			case "RA":
				p.RAs = true
			case "CV":
				p.CtrlValues = true
			case "CH":
				p.Handlers = true
			case "DCE":
				p.InterstageDCE = true
			default:
				fmt.Fprintf(os.Stderr, "phloemc: unknown pass %q\n", name)
				os.Exit(2)
			}
		}
		opt.Passes = p
	}

	if *effDump {
		fn, err := source.Parse(string(src))
		if err == nil {
			err = source.Check(fn)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			os.Exit(1)
		}
		eff := effects.Analyze(fn)
		fmt.Print(eff.Dump())
		for _, w := range eff.Warnings() {
			fmt.Println(w)
		}
		if err := eff.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			os.Exit(1)
		}
		return
	}

	if *lint {
		// Lint compiles with verification deferred so the full report —
		// warnings included — can be printed, rather than just the first
		// batch of errors a rejected Compile would surface.
		opt.SkipVerify = true
		if *lintInject {
			opt.PostBuild = injectRogueCode
		}
		res, err := core.CompileSource(string(src), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			os.Exit(1)
		}
		for _, w := range res.SourceWarnings {
			fmt.Println(w)
		}
		rep := verify.Check(res.Pipeline)
		if len(rep.Diags) == 0 {
			fmt.Printf("%s: pipeline %s verifies clean\n", flag.Arg(0), rep.Pipeline)
			return
		}
		fmt.Print(rep.String())
		if rep.HasErrors() {
			os.Exit(1)
		}
		return
	}

	res, err := core.CompileSource(string(src), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phloemc:", err)
		os.Exit(1)
	}
	if *costDump {
		rep, err := costmodel.Analyze(res.Pipeline, arch.DefaultConfig(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		return
	}
	if *commOpt {
		plan, err := commopt.Apply(res.Pipeline, arch.DefaultConfig(1),
			commopt.Options{Capacities: true, Multicast: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "phloemc:", err)
			os.Exit(1)
		}
		fmt.Print(plan.String())
		fmt.Println(plan.Summary())
		fmt.Println()
	}
	fmt.Print(res.Pipeline.Describe())
	if *dump {
		fmt.Printf("\nalias: %s\n\n", res.AliasStats)
		fmt.Print(res.Pipeline.DumpStages())
	}
}
