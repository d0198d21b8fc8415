// Package cmd_test smoke-tests the command-line tools end to end: each
// binary is built once and driven the way a user would.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	binDir string
	// srcs lists the non-test Go files the four CLIs are built from.
	srcs     []string
	readSrcs sync.Once
)

var tools = []string{"phloemc", "phloemsim", "phloembench", "tacoc"}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "phloem-cmds")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "phloem/cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + string(out))
		}
	}
	args := []string{"list", "-deps", "-f", `{{if not .Standard}}{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}{{end}}`}
	for _, tool := range tools {
		args = append(args, "phloem/cmd/"+tool)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		panic("go list: " + err.Error())
	}
	srcs = strings.Split(strings.TrimSpace(string(out)), "\n")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// bin returns the path of a built CLI. The first call reads every source
// file the CLIs are built from: go test caches a result against the files
// the test process opened (from m.Run on), and the CLIs are built by a child
// process it does not watch, so without these reads an edit under internal/
// or cmd/ would be answered with a stale cached pass.
func bin(tool string) string {
	readSrcs.Do(func() {
		for _, f := range srcs {
			if _, err := os.ReadFile(f); err != nil {
				panic(err)
			}
		}
	})
	return filepath.Join(binDir, tool)
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin(tool), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestPhloemcCompilesKernel(t *testing.T) {
	src := `
#pragma phloem
void k(int* restrict a, int* restrict b, int* restrict out, int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    int idx = a[i];
    int v = b[idx];
    acc = acc + v;
  }
  out[0] = acc;
}
`
	f := filepath.Join(t.TempDir(), "k.c")
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "phloemc", "-dump", f)
	for _, want := range []string{"pipeline k:", "stage", "RA", "deq"} {
		if !strings.Contains(out, want) {
			t.Errorf("phloemc output missing %q:\n%s", want, out)
		}
	}
	// Ablation flags change the pipeline.
	out2 := run(t, "phloemc", "-passes", "Q,R,CV", f)
	if strings.Contains(out2, "RA ") {
		t.Errorf("passes without RA should not place accelerators:\n%s", out2)
	}
}

func TestPhloemcLint(t *testing.T) {
	src := `
#pragma phloem
void k(int* restrict a, int* restrict b, int* restrict out, int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    int idx = a[i];
    int v = b[idx];
    acc = acc + v;
  }
  out[0] = acc;
}
`
	f := filepath.Join(t.TempDir(), "k.c")
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "phloemc", "-lint", f)
	if !strings.Contains(out, "verifies clean") {
		t.Errorf("clean kernel should lint clean:\n%s", out)
	}
	// With an injected protocol violation, lint must report the rule and
	// exit non-zero.
	cmd := exec.Command(bin("phloemc"), "-lint", "-lint-inject", f)
	broken, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-lint-inject should exit non-zero:\n%s", broken)
	}
	if !strings.Contains(string(broken), "[C2]") {
		t.Errorf("injected violation should report rule C2:\n%s", broken)
	}
}

// TestPhloemcLintExitCodes asserts the documented contract: 0 clean (or
// warnings only), 1 compile failure or verifier errors, 2 usage errors.
// It also requires -lint output to be byte-identical across runs.
func TestPhloemcLintExitCodes(t *testing.T) {
	exitCode := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin("phloemc"), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("phloemc %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}

	clean := filepath.Join(t.TempDir(), "clean.c")
	os.WriteFile(clean, []byte(`
#pragma phloem
void k(int* restrict a, int* restrict out, int n) {
  for (int i = 0; i < n; i = i + 1) {
    out[i] = a[i] + 1;
  }
}
`), 0o644)
	if code, out := exitCode("-lint", clean); code != 0 {
		t.Errorf("clean kernel: exit %d, want 0:\n%s", code, out)
	}

	// Warnings (non-restrict params proven safe) still exit 0.
	warn := filepath.Join(t.TempDir(), "warn.c")
	os.WriteFile(warn, []byte(`
#pragma phloem
void k(int* a, int* b, int* restrict out, int n) {
  for (int i = 0; i < n; i = i + 1) {
    out[i] = a[i] + b[i];
  }
}
`), 0o644)
	code, out := exitCode("-lint", warn)
	if code != 0 {
		t.Errorf("warnings-only kernel: exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "[E0]") || !strings.Contains(out, "proved its accesses safe") {
		t.Errorf("lint should surface the E0 warnings:\n%s", out)
	}

	// Determinism: two runs render byte-identical output.
	_, out2 := exitCode("-lint", warn)
	if out != out2 {
		t.Errorf("lint output differs between runs:\n--- first ---\n%s--- second ---\n%s", out, out2)
	}

	bad := filepath.Join(t.TempDir(), "bad.c")
	os.WriteFile(bad, []byte("void k(int n) { undefined_thing; }"), 0o644)
	if code, out := exitCode("-lint", bad); code != 1 {
		t.Errorf("compile failure: exit %d, want 1:\n%s", code, out)
	}
	if code, out := exitCode("-lint", clean, "extra-arg"); code != 2 {
		t.Errorf("usage error: exit %d, want 2:\n%s", code, out)
	}
	if code, _ := exitCode("-lint", filepath.Join(t.TempDir(), "missing.c")); code != 1 {
		t.Errorf("unreadable file: exit %d, want 1", code)
	}
}

// TestPhloemcEffects drives the -effects report on a provably-safe kernel
// and on one the analysis must reject.
func TestPhloemcEffects(t *testing.T) {
	safe := filepath.Join(t.TempDir(), "safe.c")
	os.WriteFile(safe, []byte(`
#pragma phloem
void spmv(int* rows, int* cols, float* restrict vals,
          float* restrict x, float* restrict y, int n) {
  for (int i = 0; i < n; i = i + 1) {
    float acc = 0.0;
    int kEnd = rows[i + 1];
    for (int k = rows[i]; k < kEnd; k = k + 1) {
      int c = cols[k];
      acc = acc + vals[k] * x[c];
    }
    y[i] = acc;
  }
}
`), 0o644)
	out := run(t, "phloemc", "-effects", safe)
	for _, want := range []string{"effects spmv:", "cols/rows", "no-conflict", "stats: pairs="} {
		if !strings.Contains(out, want) {
			t.Errorf("-effects output missing %q:\n%s", want, out)
		}
	}

	aliased := filepath.Join(t.TempDir(), "aliased.c")
	os.WriteFile(aliased, []byte(`
#pragma phloem
void k(int* idx, int* data, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = idx[i];
    data[j] = i;
  }
}
`), 0o644)
	cmd := exec.Command(bin("phloemc"), "-effects", aliased)
	broken, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-effects on a may-alias kernel should exit non-zero:\n%s", broken)
	}
	if !strings.Contains(string(broken), "[E0]") || !strings.Contains(string(broken), "may-alias") {
		t.Errorf("-effects should show the may-alias verdict and E0 error:\n%s", broken)
	}
}

func TestPhloemcRejectsBadInput(t *testing.T) {
	f := filepath.Join(t.TempDir(), "bad.c")
	os.WriteFile(f, []byte("void k(int n) { undefined_thing; }"), 0o644)
	cmd := exec.Command(bin("phloemc"), f)
	if err := cmd.Run(); err == nil {
		t.Error("phloemc should fail on a bad kernel")
	}
}

// TestPhloemcAutotune drives the -autotune mode: the profile-guided search
// over a built-in benchmark must print the winning pipeline and its search
// statistics, and serial and parallel runs must agree on everything except
// wall-clock time.
func TestPhloemcAutotune(t *testing.T) {
	stripTiming := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "search took") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	parallel := run(t, "phloemc", "-autotune", "BFS", "-j", "4")
	for _, want := range []string{"pipeline bfs", "enumerated", "deduplicated", "cycles"} {
		if !strings.Contains(parallel, want) {
			t.Errorf("-autotune output missing %q:\n%s", want, parallel)
		}
	}
	serial := run(t, "phloemc", "-autotune", "BFS", "-j", "1")
	if stripTiming(serial) != stripTiming(parallel) {
		t.Errorf("-j 1 and -j 4 diverged:\n--- serial\n%s--- parallel\n%s", serial, parallel)
	}

	// A kernel argument alongside -autotune is a usage error (exit 2).
	cmd := exec.Command(bin("phloemc"), "-autotune", "BFS", "extra.c")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("-autotune with a kernel argument should exit 2: %v\n%s", err, out)
	}
	// An unknown benchmark is a runtime error (exit 1).
	cmd = exec.Command(bin("phloemc"), "-autotune", "no-such-bench")
	out, err = cmd.CombinedOutput()
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("-autotune with an unknown benchmark should exit 1: %v\n%s", err, out)
	}
}

// TestPhloemcCost drives the -cost dump mode: the static cost model's
// report must name the bottleneck, price every stage and RA, and plan queue
// capacities — and reproduce byte-identically across runs.
func TestPhloemcCost(t *testing.T) {
	src := `
#pragma phloem
void k(int* restrict a, int* restrict b, int* restrict out, int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    int idx = a[i];
    int v = b[idx];
    acc = acc + v;
  }
  out[0] = acc;
}
`
	f := filepath.Join(t.TempDir(), "k.c")
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "phloemc", "-cost", f)
	for _, want := range []string{"cost k:", "predicted", "bottleneck", "stage", "util", "depth default rec"} {
		if !strings.Contains(out, want) {
			t.Errorf("-cost output missing %q:\n%s", want, out)
		}
	}
	if out2 := run(t, "phloemc", "-cost", f); out2 != out {
		t.Errorf("-cost output differs between runs:\n--- first ---\n%s--- second ---\n%s", out, out2)
	}
	// A bad kernel still exits 1.
	bad := filepath.Join(t.TempDir(), "bad.c")
	os.WriteFile(bad, []byte("void k(int n) { undefined_thing; }"), 0o644)
	cmd := exec.Command(bin("phloemc"), "-cost", bad)
	if err := cmd.Run(); err == nil {
		t.Error("-cost on a bad kernel should exit non-zero")
	}
}

// TestPhloemcAutotuneTopK drives -autotune with -topk: the run must report
// the rank phase's pruning and still print a winning pipeline, and -topk 0
// must not print a rank line at all.
func TestPhloemcAutotuneTopK(t *testing.T) {
	out := run(t, "phloemc", "-autotune", "BFS", "-topk", "5")
	for _, want := range []string{"pipeline bfs", "static rank: pruned", "outside top-5", "best training run"} {
		if !strings.Contains(out, want) {
			t.Errorf("-autotune -topk output missing %q:\n%s", want, out)
		}
	}
	full := run(t, "phloemc", "-autotune", "BFS")
	if strings.Contains(full, "static rank") {
		t.Errorf("-autotune without -topk should not report a rank phase:\n%s", full)
	}
}

// TestPhloemcCheckpointResume drives the interrupt/resume surface end to
// end: a checkpointed run leaves a journal, and a -resume run replays every
// measurement and reproduces the search result byte-identically.
func TestPhloemcCheckpointResume(t *testing.T) {
	stripVariant := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "search took") ||
				strings.HasPrefix(line, "checkpoint: replayed") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	ckpt := filepath.Join(t.TempDir(), "bfs.ckpt")
	first := run(t, "phloemc", "-autotune", "BFS", "-checkpoint", ckpt)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint journal not written: %v", err)
	}
	resumed := run(t, "phloemc", "-autotune", "BFS", "-checkpoint", ckpt, "-resume")
	if !strings.Contains(resumed, "checkpoint: replayed") {
		t.Errorf("-resume should report replayed measurements:\n%s", resumed)
	}
	if stripVariant(first) != stripVariant(resumed) {
		t.Errorf("resumed run diverged from original:\n--- first\n%s--- resumed\n%s",
			first, resumed)
	}
	// -resume without -checkpoint is a usage error.
	cmd := exec.Command(bin("phloemc"), "-autotune", "BFS", "-resume")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("-resume without -checkpoint should exit 2: %v\n%s", err, out)
	}
}

// TestTimeoutExitCodes asserts the cancellation exit-code contract (4)
// across the binaries that accept -timeout.
func TestTimeoutExitCodes(t *testing.T) {
	exitCode := func(tool string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin(tool), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return ee.ExitCode(), string(out)
	}
	// An expired search deadline exits 4 whether it fires before the search
	// starts or mid-flight; a generous one leaves the run untouched.
	if code, out := exitCode("phloemc", "-autotune", "BFS", "-timeout", "1ns"); code != 4 {
		t.Errorf("phloemc expired -timeout: exit %d, want 4:\n%s", code, out)
	}
	if code, out := exitCode("phloemc", "-autotune", "BFS", "-timeout", "1h"); code != 0 {
		t.Errorf("phloemc generous -timeout: exit %d, want 0:\n%s", code, out)
	}
	if code, out := exitCode("phloemsim", "-bench", "BFS", "-input", "road-ny", "-timeout", "1ns"); code != 4 {
		t.Errorf("phloemsim expired -timeout: exit %d, want 4:\n%s", code, out)
	}
	if code, out := exitCode("tacoc", "-pipeline", "-timeout", "1ns", "spmv"); code != 4 {
		t.Errorf("tacoc expired -timeout: exit %d, want 4:\n%s", code, out)
	}
}

func TestTacocEmitsAndPipelines(t *testing.T) {
	out := run(t, "tacoc", "-pipeline", "spmv")
	for _, want := range []string{"y(i) = A(i,j) * x(j)", "taco_spmv", "pipeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("tacoc output missing %q:\n%s", want, out)
		}
	}
}

func TestPhloemsimRunsBFS(t *testing.T) {
	out := run(t, "phloemsim", "-bench", "BFS", "-input", "road-ny")
	for _, want := range []string{"serial", "phloem", "speedup", "cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("phloemsim output missing %q:\n%s", want, out)
		}
	}
}

// TestPhloemsimExitCodes drives the guardrail demo flags and asserts the
// documented exit-code contract: 0 success, 1 deadlock/other, 2 budget
// exceeded, 3 functional trap.
func TestPhloemsimExitCodes(t *testing.T) {
	exitCode := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin("phloemsim"), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("phloemsim %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}

	if code, out := exitCode("-bench", "BFS", "-input", "road-ny", "-cycle-budget", "1000"); code != 2 {
		t.Errorf("budget abort: exit %d, want 2:\n%s", code, out)
	}
	code, out := exitCode("-bench", "BFS", "-input", "road-ny", "-inject", "deadlock")
	if code != 1 {
		t.Errorf("deadlock: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "injected_dead") {
		t.Errorf("deadlock report should name the blocking queue:\n%s", out)
	}
	if code, out := exitCode("-bench", "BFS", "-input", "road-ny", "-inject", "trap"); code != 3 {
		t.Errorf("trap: exit %d, want 3:\n%s", code, out)
	}
	if code, _ := exitCode("-bench", "BFS", "-inject", "no-such-mode"); code != 1 {
		t.Errorf("unknown -inject mode: exit %d, want 1", code)
	}
}

// TestPhloemsimNativeBackend drives `-backend native` end to end and
// asserts the exit-code contract is backend-independent: the native engine
// fails with the same sentinel classes the simulator does, so 0/1/2/3/4
// mean the same thing under both backends. It also pins the flag-gating:
// simulator-only observability flags are rejected up front.
func TestPhloemsimNativeBackend(t *testing.T) {
	exitCode := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin("phloemsim"), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("phloemsim %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}
	native := func(extra ...string) []string {
		return append([]string{"-bench", "BFS", "-input", "road-ny", "-backend", "native"}, extra...)
	}

	code, out := exitCode(native()...)
	if code != 0 {
		t.Fatalf("native run: exit %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{"(native)", "wall on", "not simulated cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("native output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "speedup") {
		t.Errorf("native run must not claim a cycle speedup:\n%s", out)
	}

	// Same guardrail demos, same exit codes as the simulator.
	code, out = exitCode(native("-inject", "deadlock")...)
	if code != 1 {
		t.Errorf("native deadlock: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "injected_dead") {
		t.Errorf("native deadlock report should name the blocking queue:\n%s", out)
	}
	if code, out := exitCode(native("-inject", "trap")...); code != 3 {
		t.Errorf("native trap: exit %d, want 3:\n%s", code, out)
	}
	if code, out := exitCode(native("-timeout", "1ns")...); code != 4 {
		t.Errorf("native expired -timeout: exit %d, want 4:\n%s", code, out)
	}
	// -trace-limit is the budget mechanism shared by both backends.
	if code, out := exitCode(native("-trace-limit", "100")...); code != 2 {
		t.Errorf("native trace limit: exit %d, want 2:\n%s", code, out)
	}
	if code, out := exitCode("-bench", "BFS", "-input", "road-ny", "-trace-limit", "100"); code != 2 {
		t.Errorf("sim trace limit: exit %d, want 2:\n%s", code, out)
	}

	// Simulator-only flags are rejected before any run starts.
	csv := filepath.Join(t.TempDir(), "series.csv")
	code, out = exitCode(native("-telemetry", csv)...)
	if code != 1 || !strings.Contains(out, "requires -backend sim") {
		t.Errorf("-telemetry under native should exit 1 with a gating message, got %d:\n%s", code, out)
	}
	if code, out := exitCode(native("-cycle-budget", "1000")...); code != 1 ||
		!strings.Contains(out, "requires -backend sim") {
		t.Errorf("-cycle-budget under native should exit 1, got %d:\n%s", code, out)
	}
	if code, _ := exitCode("-bench", "BFS", "-input", "road-ny", "-backend", "gpu"); code != 1 {
		t.Errorf("unknown backend: exit %d, want 1", code)
	}
}

// TestPhloembenchBenchdiffNative drives the regression gate against the
// committed native report: self-diff is clean, tampering with a gated
// column (instructions) regresses, and a report of another kind, or with a
// missing or unknown kind, is a usage error.
func TestPhloembenchBenchdiffNative(t *testing.T) {
	committed := "../BENCH_native.json"
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	write := func(rep map[string]any) string {
		t.Helper()
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(t.TempDir(), "native.json")
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}

	exitCode := func(args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin("phloembench"), args...).CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("phloembench %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}

	if code, out := exitCode("-benchdiff", committed, committed); code != 0 ||
		!strings.Contains(out, "ok: no metric changes") {
		t.Errorf("native self-diff should exit 0 clean, got %d:\n%s", code, out)
	}

	row := rep["benchmarks"].([]any)[0].(map[string]any)
	row["instructions"] = float64(int64(row["instructions"].(float64) * 2))
	code, out := exitCode("-benchdiff", committed, write(rep))
	if code != 3 || !strings.Contains(out, "REGRESSION") {
		t.Errorf("doubled instructions should exit 3 with a REGRESSION line, got %d:\n%s", code, out)
	}

	// A report whose kind is missing or unknown is a usage error (1).
	for _, kind := range []string{"", "bogus"} {
		rep["kind"] = kind
		if kind == "" {
			delete(rep, "kind")
		}
		if code, out := exitCode("-benchdiff", committed, write(rep)); code != 1 {
			t.Errorf("kind %q should exit 1, got %d:\n%s", kind, code, out)
		}
	}

	// Mixed report kinds are a usage-level error (1).
	if code, _ := exitCode("-benchdiff", committed, "../BENCH_search.json"); code != 1 {
		t.Errorf("native-vs-search diff should exit 1, got %d", code)
	}
}

// TestPhloemsimTelemetry drives the observability flags end to end: the
// stall profile prints, the series and Chrome trace land on disk well-formed,
// and a second identical run reproduces both files byte for byte.
func TestPhloemsimTelemetry(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "series.csv")
	tracePath := filepath.Join(dir, "trace.json")
	args := []string{"-bench", "BFS", "-input", "road-ny",
		"-profile", "-interval", "1000",
		"-telemetry", csvPath, "-chrome-trace", tracePath}
	out := run(t, "phloemsim", args...)
	for _, want := range []string{"stall profile", "hot lines:", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("phloemsim output missing %q:\n%s", want, out)
		}
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("series CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(csv), "cycle,dcycles,dissued,") {
		t.Errorf("series CSV header:\n%.120s", csv)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome trace does not parse as JSON: %v", err)
	}
	tracks := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks++
		}
	}
	// The compiled BFS pipeline has multiple stage threads and RAs; each gets
	// a named track.
	if tracks < 4 {
		t.Errorf("chrome trace has %d named tracks, want several:\n%.200s", tracks, raw)
	}

	// Determinism: the same run must reproduce both artifacts exactly.
	csv2Path := filepath.Join(dir, "series2.csv")
	trace2Path := filepath.Join(dir, "trace2.json")
	run(t, "phloemsim", "-bench", "BFS", "-input", "road-ny",
		"-profile", "-interval", "1000",
		"-telemetry", csv2Path, "-chrome-trace", trace2Path)
	csv2, _ := os.ReadFile(csv2Path)
	raw2, _ := os.ReadFile(trace2Path)
	if !bytes.Equal(csv, csv2) {
		t.Error("series CSV differs between identical runs")
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("chrome trace differs between identical runs")
	}
}

func TestPhloembenchTelemetry(t *testing.T) {
	out := run(t, "phloembench", "-exp", "telemetry")
	for _, want := range []string{"telemetry", "BFS", "hottest stall site", "avg="} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry summary missing %q:\n%s", want, out)
		}
	}
}

func TestPhloembenchTables(t *testing.T) {
	out := run(t, "phloembench", "-exp", "table3")
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "L3 cache") {
		t.Errorf("table3 output:\n%s", out)
	}
	out4 := run(t, "phloembench", "-exp", "table4")
	if !strings.Contains(out4, "road-usa") {
		t.Errorf("table4 output:\n%s", out4)
	}
	out5 := run(t, "phloembench", "-exp", "table5")
	if !strings.Contains(out5, "pwtk") {
		t.Errorf("table5 output:\n%s", out5)
	}
}

// TestPhloemcSearchObservability drives the opt-in search observability
// flags: -search-stats prints the metrics table, -search-trace writes
// well-formed Chrome trace JSON whose candidate spans carry fingerprints,
// and -progress draws a live line ending in a summary. With no flags set,
// none of that output appears.
func TestPhloemcSearchObservability(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "search.json")
	cmd := exec.Command(bin("phloemc"),
		"-autotune", "BFS", "-j", "4", "-topk", "5",
		"-progress", "-search-stats", "-search-trace", trace)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("phloemc observability run: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	for _, want := range []string{
		"search metrics (autotune)",
		"candidates:", "verdicts:", "phase", "train",
		"search trace: wrote",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-search-stats output missing %q:\n%s", want, stdout.String())
		}
	}
	for _, want := range []string{"serial baseline", "done —", "measured"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-progress stderr missing %q:\n%s", want, stderr.String())
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("search trace is not valid JSON: %v", err)
	}
	workers, cands := 0, 0
	for _, e := range tr.TraceEvents {
		if e.Pid != 1 {
			t.Fatalf("search trace event outside pid 1: %+v", e)
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			workers++
		}
		if e.Cat == "candidate" {
			cands++
			if _, ok := e.Args["fp"]; !ok {
				t.Errorf("candidate span without fp args: %+v", e)
			}
		}
	}
	if workers < 5 { // merger + 4 pool workers
		t.Errorf("want >=5 worker tracks, got %d", workers)
	}
	if cands == 0 {
		t.Error("no candidate spans in search trace")
	}

	// The plain run carries none of the observability output.
	plain := run(t, "phloemc", "-autotune", "BFS", "-topk", "5")
	if strings.Contains(plain, "search metrics") || strings.Contains(plain, "search trace") {
		t.Errorf("observability output without its flags:\n%s", plain)
	}
}

// TestTacocStats: -stats on the static flow prints the compile-phase
// metrics table.
func TestTacocStats(t *testing.T) {
	out := run(t, "tacoc", "-pipeline", "-stats", "spmv")
	for _, want := range []string{"search metrics (static)", "build", "verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("tacoc -stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(run(t, "tacoc", "-pipeline", "spmv"), "search metrics") {
		t.Error("tacoc without -stats should not print metrics")
	}
}

// TestPhloembenchBenchdiff drives the regression gate's file mode against
// the committed search report: self-diff passes, an injected cycles
// regression beyond threshold exits 3, and widening the threshold
// clears it.
func TestPhloembenchBenchdiff(t *testing.T) {
	committed := "../BENCH_search.json"
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	row := rep["benchmarks"].([]any)[0].(map[string]any)
	row["best_train_cycles"] = float64(int64(row["best_train_cycles"].(float64) * 1.5))
	tampered, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	tf := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tf, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	exitCode := func(args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin("phloembench"), args...).CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("phloembench %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}

	if code, out := exitCode("-benchdiff", committed, committed); code != 0 ||
		!strings.Contains(out, "ok: no metric changes") {
		t.Errorf("self-diff should exit 0 clean, got %d:\n%s", code, out)
	}
	code, out := exitCode("-benchdiff", committed, tf)
	if code != 3 || !strings.Contains(out, "REGRESSION") {
		t.Errorf("+50%% cycles should exit 3 with a REGRESSION line, got %d:\n%s", code, out)
	}
	if code, out := exitCode("-benchdiff", "-cycles-tol", "60", committed, tf); code != 0 {
		t.Errorf("+50%% within -cycles-tol 60 should exit 0, got %d:\n%s", code, out)
	}
	// Mixed report kinds are a usage-level error (1), not a regression.
	if code, _ := exitCode("-benchdiff", committed, "../BENCH_native.json"); code != 1 {
		t.Errorf("mixed-kind diff should exit 1, got %d", code)
	}
	if code, _ := exitCode("-benchdiff", committed); code != 2 {
		t.Errorf("-benchdiff with one argument should exit 2, got %d", code)
	}
}
