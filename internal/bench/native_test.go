package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNativePerfSmoke runs the experiment end to end at reduced scope (one
// family, tiny sweep) and checks the report's internal invariants: the
// differential contract held on every row (NativePerf fails otherwise),
// and the report self-diffs clean through the JSON roundtrip — the same
// path `phloembench -benchdiff` takes.
func TestNativePerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timing simulator")
	}
	defer func(s []int) { nativeSweepSides = s }(nativeSweepSides)
	nativeSweepSides = []int{16, 24}

	var out bytes.Buffer
	cfg := Config{Scale: 0, Out: &out}
	rep, err := NativePerf(cfg, "BFS")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BFS" {
		t.Fatalf("families filter ignored: %+v", rep.Benchmarks)
	}
	r := rep.Benchmarks[0]
	if r.Instructions == 0 || r.Cycles == 0 {
		t.Errorf("degenerate seed row: %+v", r)
	}
	if len(rep.Sweep) != 2 {
		t.Fatalf("want 2 sweep rows, got %+v", rep.Sweep)
	}
	for _, s := range rep.Sweep {
		if s.Instructions == 0 {
			t.Errorf("degenerate sweep row: %+v", s)
		}
		// Tiny grids finish well inside the budget.
		if !s.SimOK || s.SimStatus != "ok" {
			t.Errorf("tiny sweep size DNFed: %+v", s)
		}
	}
	if rep.SimDNF != 0 {
		t.Errorf("SimDNF = %d on tiny sweep", rep.SimDNF)
	}
	if !strings.Contains(rep.Note, "not parallel speedup") {
		t.Errorf("report note lost the single-core disclaimer: %q", rep.Note)
	}
	if !strings.Contains(out.String(), "instructions") {
		t.Errorf("no human-readable table rendered:\n%s", out.String())
	}

	// JSON roundtrip + self-diff must be clean.
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back NativeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if r := Regressions(Diff(rep, &back, DefaultDiffOptions())); len(r) != 0 {
		t.Errorf("roundtripped report regressed against itself: %+v", r)
	}
}
