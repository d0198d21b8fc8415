package passes_test

import (
	"strings"
	"testing"

	"phloem/internal/analysis"
	"phloem/internal/passes"
	"phloem/internal/workloads"
)

// TestRaceRuleRejectsSplitAccesses: a point set that separates a read-write
// array's load from its store must be rejected at build time, not silently
// produce racy code.
func TestRaceRuleRejectsSplitAccesses(t *testing.T) {
	src := `
#pragma phloem
void k(int* restrict a, int* restrict x, int* restrict y, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int idx = a[i];
    int old = x[idx];
    int t = y[old];
    x[idx] = t;
  }
}
`
	p, err := workloads.CompileSerial(src)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.New(p)
	cands := an.Candidates(analysis.ProgramPhases(p.Body)[0])
	// Force a boundary at the y load: it sits between x's load and store,
	// splitting them across stages.
	var pts []*analysis.Candidate
	for _, c := range cands {
		if p.Slots[c.Load.Slot].Name == "y" {
			pts = append(pts, c)
		}
	}
	if len(pts) != 1 {
		t.Fatalf("expected the y load as a candidate, got %d", len(pts))
	}
	_, err = passes.Build(p, [][]*analysis.Candidate{pts}, passes.Default(),
		defaultBuildConfig())
	if err == nil {
		t.Fatal("expected a race-rule rejection")
	}
	if !strings.Contains(err.Error(), "race rule") {
		t.Errorf("error should name the race rule: %v", err)
	}
}

// TestPointsOutOfOrderRejected: the builder requires traversal order.
func TestPointsOutOfOrderRejected(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.New(p)
	cands := an.Candidates(analysis.ProgramPhases(p.Body)[0])
	var movable []*analysis.Candidate
	for _, c := range cands {
		if !c.PrefetchOnly {
			movable = append(movable, c)
		}
	}
	if len(movable) < 2 {
		t.Skip("not enough candidates")
	}
	ordered := analysis.OrderPoints(movable[:2])
	reversed := []*analysis.Candidate{ordered[1], ordered[0]}
	if _, err := passes.Build(p, [][]*analysis.Candidate{reversed},
		passes.Default(), defaultBuildConfig()); err == nil {
		t.Error("out-of-order points should be rejected")
	}
}

// TestRABudgetRespected: with zero accelerators allowed, the pipeline must
// fall back to thread-only stages (never exceed the budget).
func TestRABudgetRespected(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.New(p)
	cands := an.Candidates(analysis.ProgramPhases(p.Body)[0])
	var movable []*analysis.Candidate
	for _, c := range cands {
		if !c.PrefetchOnly {
			movable = append(movable, c)
		}
	}
	bc := defaultBuildConfig()
	bc.MaxRAs = 1
	pipe, err := passes.Build(p, [][]*analysis.Candidate{analysis.OrderPoints(movable)},
		passes.Default(), bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.RAs) > 1 {
		t.Errorf("RA budget 1 exceeded: %d RAs", len(pipe.RAs))
	}
}

// TestOptionsString covers the ablation-label formatting used in reports.
func TestOptionsString(t *testing.T) {
	if got := (passes.Options{}).String(); got != "Q" {
		t.Errorf("zero options: %q", got)
	}
	full := passes.Default().String()
	for _, want := range []string{"Q", "R", "RA", "CV", "CH", "DCE"} {
		if !strings.Contains(full, want) {
			t.Errorf("default options string %q missing %s", full, want)
		}
	}
}

// TestWrongPhaseCountRejected: Build demands one point list per phase.
func TestWrongPhaseCountRejected(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Build(p, nil, passes.Default(), defaultBuildConfig()); err == nil {
		t.Error("zero point lists for a one-phase program should be rejected")
	}
}
