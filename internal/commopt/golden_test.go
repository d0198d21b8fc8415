package commopt_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// planReport compiles src with the default flow and renders the commopt
// plan (analysis only; the compiled pipeline is not mutated).
func planReport(t *testing.T, src string) string {
	t.Helper()
	prog, err := workloads.CompileSerial(src)
	if err != nil {
		t.Fatalf("compile serial: %v", err)
	}
	res, err := core.Compile(prog, core.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan, err := commopt.Analyze(res.Pipeline, arch.DefaultConfig(1))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return plan.String()
}

// goldenSources returns the kernels covered by golden capacity plans: the
// five benchmark families plus one Taco-emitted kernel — the same corpus
// the cost model's golden reports pin.
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

func TestGoldenPlans(t *testing.T) {
	for name, src := range goldenSources(t) {
		t.Run(name, func(t *testing.T) {
			got := planReport(t, src)
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
				t.Errorf("plan drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestPlanDeterminism re-analyzes the same pipelines repeatedly and demands
// byte-identical plans.
func TestPlanDeterminism(t *testing.T) {
	for name, src := range goldenSources(t) {
		first := planReport(t, src)
		for i := 0; i < 3; i++ {
			if got := planReport(t, src); got != first {
				t.Fatalf("%s: plan changed between runs:\n%s\nvs\n%s", name, first, got)
			}
		}
	}
}

// TestAnalyzeDoesNotMutate pins Analyze's contract: the pipeline handed in
// is left untouched (capacities unassigned), even though the returned plan
// reflects the full optimization.
func TestAnalyzeDoesNotMutate(t *testing.T) {
	for _, wl := range workloads.Benchmarks(workloads.ScaleTest) {
		prog, err := workloads.CompileSerial(wl.SerialSource)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compile(prog, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := res.Pipeline.Describe()
		if _, err := commopt.Analyze(res.Pipeline, arch.DefaultConfig(1)); err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if after := res.Pipeline.Describe(); after != before {
			t.Errorf("%s: Analyze mutated the pipeline:\n--- before ---\n%s--- after ---\n%s",
				wl.Name, before, after)
		}
		for q, spec := range res.Pipeline.Queues {
			if spec.DepthByPass {
				t.Errorf("%s: Analyze marked q%d DepthByPass", wl.Name, q)
			}
		}
	}
}
