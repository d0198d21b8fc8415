package costmodel_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// staticReport compiles src with the static flow and renders its cost report.
func staticReport(t *testing.T, src string) string {
	t.Helper()
	res, err := core.CompileSource(src, core.Options{Mode: core.Static})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := costmodel.Analyze(res.Pipeline, arch.DefaultConfig(1))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep.String()
}

// goldenSources returns the kernels covered by golden reports: the five
// benchmark families plus one Taco-emitted kernel.
func goldenSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, wl := range workloads.Benchmarks(workloads.ScaleTest) {
		out[strings.ToLower(wl.Name)] = wl.SerialSource
	}
	src, err := taco.Emit(taco.SpMV)
	if err != nil {
		t.Fatalf("taco emit: %v", err)
	}
	out["taco_spmv"] = src
	return out
}

func TestGoldenReports(t *testing.T) {
	for name, src := range goldenSources(t) {
		t.Run(name, func(t *testing.T) {
			got := staticReport(t, src)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestReportDeterminism re-analyzes the same pipelines repeatedly and demands
// byte-identical reports.
func TestReportDeterminism(t *testing.T) {
	for name, src := range goldenSources(t) {
		first := staticReport(t, src)
		for i := 0; i < 3; i++ {
			if got := staticReport(t, src); got != first {
				t.Fatalf("%s: report changed between runs:\n%s\nvs\n%s", name, first, got)
			}
		}
	}
}

// TestScratchPredictMatchesAnalyze: one Scratch, reused across every golden
// kernel's static and serial pipelines in turn and then in reverse, and on
// machines of one and two cores, predicts exactly what Analyze reports.
func TestScratchPredictMatchesAnalyze(t *testing.T) {
	var pipes []*pipeline.Pipeline
	for _, src := range goldenSources(t) {
		res, err := core.CompileSource(src, core.Options{Mode: core.Static})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		p, err := workloads.CompileSerial(src)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		pipes = append(pipes, res.Pipeline, pipeline.NewSerial(p))
	}
	reversed := slices.Clone(pipes)
	slices.Reverse(reversed)
	var s costmodel.Scratch
	for _, cores := range []int{1, 2} {
		cfg := arch.DefaultConfig(cores)
		for _, order := range [][]*pipeline.Pipeline{pipes, reversed} {
			for _, pl := range order {
				rep, err := costmodel.Analyze(pl, cfg)
				if err != nil {
					t.Fatalf("analyze %s: %v", pl.Description, err)
				}
				got, err := s.Predict(pl, cfg)
				if err != nil {
					t.Fatalf("predict %s: %v", pl.Description, err)
				}
				if got != rep.Predicted {
					t.Errorf("%s %s on %d cores: Predict = %d, Analyze reports %d", pl.Prog.Name, pl.Description, cores, got, rep.Predicted)
				}
			}
		}
	}
}
