package main

import (
	"encoding/json"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and holds
// what it prints against what BENCHMARK.json declares: the same workloads,
// and on the result line exactly the declared metrics with their units.
func TestSmoke(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, def := range workloadDefs {
		have = append(have, def.name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, have)
	}
	checkDeclared(t, "end_to_end", man.EndToEnd, endToEnd)
	checkDeclared(t, "per_layer", man.PerLayer, perLayer)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(def, config{workload: def.name, seed: 7, seconds: 0.2, trace: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(rep.resultLine()), &res); err != nil {
				t.Fatalf("%s traced=%v: result line does not parse: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					def.name, traced, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			want := man.EndToEnd
			if traced {
				want = man.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the result line, %d declared", def.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is declared and not printed", def.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, declared %q", def.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", def.name, m.Name, got.Value)
				}
			}
		}
	}
}

func checkDeclared(t *testing.T, kind string, declared []manifestMetric, have []metricDef) {
	t.Helper()
	var a, b []string
	for _, m := range declared {
		a = append(a, m.Name+" "+m.Unit)
	}
	for _, m := range have {
		b = append(b, m.name+" "+m.unit)
	}
	sort.Strings(a)
	sort.Strings(b)
	if !slices.Equal(a, b) {
		t.Errorf("%s: BENCHMARK.json declares %v, the benchmark prints %v", kind, a, b)
	}
}
