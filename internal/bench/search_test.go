package bench

// Suite-wide checks of the parallel search engine: for every benchmark in
// the workload suite, autotune and Search must return identical results at
// every parallelism level (run under -race by CI), and dedup must fold the
// static configuration into the enumeration on at least one benchmark.
//
// The suite sweeps train on a single input per benchmark to keep the
// full-matrix runtime tractable (the candidate enumeration, dedup, and
// bound-tightening structure they exercise is input-count independent);
// TestAutotuneMultiInputDeterminism covers the cumulative multi-input
// budget path on the cheapest benchmark, and TestSearchPerfReport runs the
// real full-training generator against the committed report.

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"phloem/internal/core"
	"phloem/internal/workloads"
)

func testConfig() Config {
	return Config{Scale: workloads.ScaleTest, Out: io.Discard}
}

// sweepParallelisms returns the non-serial parallelism levels the suite
// sweeps compare against serial. The GOMAXPROCS leg is dropped under -race
// (its ~10x slowdown would blow the package time budget) where the fixed
// leg already exercises the same merge machinery.
func sweepParallelisms() []int {
	if raceEnabled {
		return []int{4}
	}
	return []int{4, 0}
}

func TestParallelAutotuneMatchesSerialAllBenchmarks(t *testing.T) {
	dedupSomewhere := false
	for _, bench := range workloads.Benchmarks(workloads.ScaleTest) {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			prog, err := workloads.CompileSerial(bench.SerialSource)
			if err != nil {
				t.Fatal(err)
			}
			run := func(par int) *core.Result {
				opt := autotuneOptions(testConfig(), bench)
				opt.Training = opt.Training[:1]
				opt.Parallelism = par
				res, err := core.Compile(prog, opt)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				return res
			}
			serial := run(1)
			want := searchSignature(serial)
			for _, par := range sweepParallelisms() {
				if got := searchSignature(run(par)); got != want {
					t.Errorf("parallelism %d diverged:\nserial:   %s\nparallel: %s", par, want, got)
				}
			}
			if serial.Deduped > 0 {
				dedupSomewhere = true
			}
			t.Logf("enumerated=%d searched=%d deduped=%d skipped=%d",
				serial.Enumerated, serial.Searched, serial.Deduped, len(serial.Skips))
		})
	}
	if !dedupSomewhere {
		t.Error("no benchmark deduplicated a candidate; the static configuration should coincide with an enumerated subset somewhere in the suite")
	}
}

// TestAutotuneMultiInputDeterminism pins the cumulative budget path — one
// shared cycle budget charged across several training inputs — which the
// single-input suite sweep cannot reach. BFS is the cheapest benchmark with
// multiple training inputs.
func TestAutotuneMultiInputDeterminism(t *testing.T) {
	bench, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Trainers(bench)); n < 2 {
		t.Fatalf("BFS has %d training inputs; need at least 2", n)
	}
	run := func(par int) string {
		opt := autotuneOptions(testConfig(), bench)
		opt.Parallelism = par
		res, err := core.Compile(prog, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return searchSignature(res)
	}
	want := run(1)
	for _, par := range sweepParallelisms() {
		if got := run(par); got != want {
			t.Errorf("parallelism %d diverged:\nserial:   %s\nparallel: %s", par, want, got)
		}
	}
}

func renderSearchPoints(points []core.SearchPoint) string {
	var b strings.Builder
	for _, pt := range points {
		fmt.Fprintf(&b, "stages=%d cycles=%d subset=%v", pt.TotalStages, pt.Cycles, pt.Subset)
		if pt.Skip != nil {
			fmt.Fprintf(&b, " skip=%s err=%v", pt.Skip.Reason, pt.Skip.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestParallelSearchMatchesSerialAllBenchmarks(t *testing.T) {
	for _, bench := range workloads.Benchmarks(workloads.ScaleTest) {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			prog, err := workloads.CompileSerial(bench.SerialSource)
			if err != nil {
				t.Fatal(err)
			}
			run := func(par int) string {
				opt := core.DefaultOptions()
				opt.Training = Trainers(bench)[:1]
				opt.Parallelism = par
				points, err := core.Search(prog, opt)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				return renderSearchPoints(points)
			}
			want := run(1)
			for _, par := range sweepParallelisms() {
				if got := run(par); got != want {
					t.Errorf("parallelism %d diverged:\n--- serial\n%s--- parallel\n%s", par, want, got)
				}
			}
		})
	}
}

// TestSearchPerfReport regenerates BENCH_search.json with the real (full)
// training inputs at parallelism 4 and diffs it against the committed
// report through the regression gate, so the committed counts and winners
// also pin parallel-equals-serial when the report was recorded at -j 1. It
// is the long pole of the package and is skipped under -short and -race.
func TestSearchPerfReport(t *testing.T) {
	if testing.Short() {
		t.Skip("search perf sweep is long under -short")
	}
	if raceEnabled {
		t.Skip("search perf sweep is long under the race detector")
	}
	var out strings.Builder
	cfg := testConfig()
	cfg.Out = &out
	cfg.Parallelism = 4
	findings, err := Compare(cfg, []string{"../../BENCH_search.json"}, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 || len(Regressions(findings)) != 0 {
		t.Errorf("fresh search report vs committed:\n%s", out.String())
	}
	t.Log(out.String())
}

func benchmarkAutotune(b *testing.B, parallelism int) {
	bench, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		b.Fatal(err)
	}
	opt := autotuneOptions(testConfig(), bench)
	opt.Parallelism = parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(prog, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutotuneSerial(b *testing.B)   { benchmarkAutotune(b, 1) }
func BenchmarkAutotuneParallel(b *testing.B) { benchmarkAutotune(b, 4) }

func BenchmarkSearch(b *testing.B) {
	bench, err := workloads.ByName(workloads.ScaleTest, "BFS")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workloads.CompileSerial(bench.SerialSource)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Training = Trainers(bench)
	opt.Parallelism = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(prog, opt); err != nil {
			b.Fatal(err)
		}
	}
}
