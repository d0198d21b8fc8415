package passes_test

import (
	"math/rand"
	"strings"
	"testing"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// scatterKernel updates a read-write array through an indirection: the x
// accesses are pinned to the consuming stage by the race rule, but the
// producer that sends idx can still prefetch x[idx] (Sec. IV-A / Fig. 4).
const scatterKernel = `
#pragma phloem
void scatter(int* restrict a, int* restrict trace, int* restrict x, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int idx = a[i];
    trace[i] = idx;
    int old = x[idx];
    x[idx] = old + 1;
  }
}
`

func TestRaceRulePinnedLoadGetsPrefetch(t *testing.T) {
	serialProg, err := workloads.CompileSerial(scatterKernel)
	if err != nil {
		t.Fatal(err)
	}
	// Force the prefetch-only boundary at the x load (the autotuner would
	// find it; the static flow skips race-pinned points).
	an := analysis.New(serialProg)
	cands := an.Candidates(analysis.ProgramPhases(serialProg.Body)[0])
	var pts []*analysis.Candidate
	for _, c := range cands {
		name := serialProg.Slots[c.Load.Slot].Name
		if name == "a" || (name == "x" && c.PrefetchOnly) {
			pts = append(pts, c)
		}
	}
	if len(pts) != 2 {
		t.Fatalf("expected the a load and the prefetch-only x load as candidates, got %d", len(pts))
	}
	pipe, err := passes.Build(serialProg, [][]*analysis.Candidate{analysis.OrderPoints(pts)},
		passes.Default(), defaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Pipeline: pipe, Prog: serialProg}
	dump := res.Pipeline.DumpStages()
	if !strings.Contains(dump, "prefetch x[") {
		t.Errorf("expected a producer-side prefetch of x:\n%s", dump)
	}
	// x loads and stores must have stayed in one stage.
	stages := strings.Split(dump, "--- stage")
	xOwners := 0
	for _, st := range stages {
		if strings.Contains(st, "load x[") || strings.Contains(st, "= x[") || strings.Contains(st, "store#1 x[") {
			xOwners++
			if !strings.Contains(st, " x[idx") {
				t.Errorf("x load and store split across stages:\n%s", st)
			}
		}
	}
	if xOwners != 1 {
		t.Errorf("x accessed in %d stages, want 1", xOwners)
	}

	// Functional correctness and a performance sanity check on a large,
	// cache-hostile indirection.
	const n = 60000
	rng := rand.New(rand.NewSource(3))
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(n))
	}
	bind := func() pipeline.Bindings {
		return pipeline.Bindings{
			Ints: map[string][]int64{
				"a":     append([]int64(nil), a...),
				"trace": make([]int64, n),
				"x":     make([]int64, n),
			},
			Scalars: map[string]int64{"n": n},
		}
	}
	run := func(pl *pipeline.Pipeline) (uint64, []int64) {
		inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), bind())
		if err != nil {
			t.Fatal(err)
		}
		st, err := inst.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, inst.Arrays["x"].Ints()
	}
	sc, want := run(pipeline.NewSerial(serialProg))
	pc, got := run(res.Pipeline)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	t.Logf("scatter: serial=%d pipeline=%d (%.2fx)", sc, pc, float64(sc)/float64(pc))
}
