package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/fault"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/taco"
	"phloem/internal/telemetry"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/timing_golden.json (only ever on an engine whose timing is the reference)")

const goldenPath = "testdata/timing_golden.json"

// goldenConfig is one machine variation every golden case is replayed under.
// The window sizes are chosen for the issue scan's bitsets: 16 wraps inside
// one 64-bit word, 128 (the default) is two words, 256 is four.
type goldenConfig struct {
	name string
	mod  func(*arch.Config)
}

var goldenConfigs = []goldenConfig{
	{"default", func(*arch.Config) {}},
	{"win16", func(c *arch.Config) { c.WindowSize = 16 }},
	{"win256", func(c *arch.Config) { c.WindowSize = 256 }},
	{"issue2", func(c *arch.Config) { c.IssueWidth = 2 }},
	{"mshr0", func(c *arch.Config) { c.MSHRs = 0 }},
}

// goldenCase is one pipeline on one input: the functional phase runs once,
// then the timing phase replays the same traces under each config.
type goldenCase struct {
	name  string
	build func(t *testing.T) *pipeline.Instance
	// configs restricts the case to a subset of goldenConfigs (nil: all).
	configs []string
	// prep adjusts the machine before each replay (fault plans, budgets).
	prep func(m *sim.Machine)
	// partial marks a case whose replay must abort with partial Stats.
	partial bool
}

// goldenRecord is one replay's result as stored in the golden file.
type goldenRecord struct {
	Name  string
	Error string `json:",omitempty"`
	Stats *sim.Stats
}

func compileStatic(t *testing.T, src string, commOpt bool) *pipeline.Pipeline {
	t.Helper()
	opt := core.DefaultOptions()
	opt.CommOpt = commOpt
	res, err := core.CompileSource(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Pipeline
}

func compileSerial(t *testing.T, src string) *pipeline.Pipeline {
	t.Helper()
	p, err := workloads.CompileSerial(src)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.NewSerial(p)
}

func instantiate(t *testing.T, pl *pipeline.Pipeline, cores int, b pipeline.Bindings) *pipeline.Instance {
	t.Helper()
	inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(cores), b)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// countdownCtx is a context that reports cancellation from its n-th Err
// poll on. The timing engine polls at fixed simulated-cycle intervals, so
// the abort lands on the same cycle in every run.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	// SpMM is the queue-bound worst case for replay speed (a token every few
	// instructions); its test-scale training matrix alone would take longer
	// than the rest of the set together, so it gets a smaller one.
	a := matrix.PowerLawRows("golden-a", 40, 3, 9)
	spmm := func() pipeline.Bindings { return workloads.SpMMBindings(a, a.Transpose("golden-aT")) }
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		b := b
		bind := b.Train[0].Bind
		if b.Name == "SpMM" {
			bind = spmm
		}
		cases = append(cases,
			goldenCase{name: b.Name + "/pipe", build: func(t *testing.T) *pipeline.Instance {
				return instantiate(t, compileStatic(t, b.SerialSource, false), 1, bind())
			}},
			goldenCase{name: b.Name + "/serial", build: func(t *testing.T) *pipeline.Instance {
				return instantiate(t, compileSerial(t, b.SerialSource), 1, bind())
			}})
	}
	m := matrix.PowerLawRows("golden", 120, 5, 7)
	g := graph.PowerLaw("golden", 300, 3, 5)
	bfs := func(t *testing.T) *pipeline.Instance {
		return instantiate(t, compileStatic(t, workloads.BFSSource, false), 1, workloads.BFSBindings(g, 0))
	}
	cases = append(cases,
		goldenCase{name: "PRDApply/pipe", build: func(t *testing.T) *pipeline.Instance {
			return instantiate(t, compileStatic(t, workloads.PRDApplySource, false), 1, workloads.PRDApplyBindings(2000, 3))
		}},
		goldenCase{name: "taco-spmv/pipe", build: func(t *testing.T) *pipeline.Instance {
			src, err := taco.Emit(taco.SpMV)
			if err != nil {
				t.Fatal(err)
			}
			return instantiate(t, compileStatic(t, src, false), 1, taco.Bindings(taco.SpMV, m, 5))
		}},
		// SpMM with commopt on carries the compiled multicast fan-out.
		goldenCase{name: "SpMM/commopt-fanout", configs: []string{"default", "win16"},
			build: func(t *testing.T) *pipeline.Instance {
				pl := compileStatic(t, workloads.SpMMSource, true)
				if len(pl.FanOuts) == 0 {
					t.Fatal("SpMM commopt pipeline has no fan-out")
				}
				return instantiate(t, pl, 1, spmm())
			}},
		// Data-parallel CC: four SMT threads on one core meeting at barriers.
		goldenCase{name: "CC/data-parallel", configs: []string{"default", "win16", "issue2"},
			build: func(t *testing.T) *pipeline.Instance {
				dp, err := workloads.BuildDataParallel(workloads.CCDPSource, 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				b := workloads.CCBindings(g)
				b.Ints["changed"] = make([]int64, 4)
				b.Scalars["tid"] = 0
				b.Scalars["nthreads"] = 4
				return instantiate(t, dp, 1, b)
			}},
		// BFS replicated onto two cores: cross-core barrier release.
		goldenCase{name: "BFS/replicated-x2", configs: []string{"default", "win16"},
			build: func(t *testing.T) *pipeline.Instance {
				const R = 2
				repl, err := pipeline.Replicate(compileStatic(t, workloads.BFSSource, false), R, []string{"nodes", "edges"}, nil)
				if err != nil {
					t.Fatal(err)
				}
				base := workloads.BFSBindings(g, 0)
				b := pipeline.Bindings{
					Ints:    map[string][]int64{"nodes": g.Nodes, "edges": g.Edges},
					Scalars: base.Scalars,
				}
				for r := 0; r < R; r++ {
					for _, name := range []string{"distances", "cur_fringe", "next_fringe"} {
						b.Ints[fmt.Sprintf("r%d.%s", r, name)] = append([]int64(nil), base.Ints[name]...)
					}
				}
				return instantiate(t, repl, R, b)
			}},
	)
	// Fault plans: every timing hook at once, and the three that reach into
	// the issue scan (ThreadStall), load completion (MemLatency) and queue
	// token visibility (CtrlDelay) on their own.
	for _, name := range []string{"kitchen-sink", "smt-stall", "mem-spikes", "ctrl-delay"} {
		plan, err := fault.ByName(name)
		if err != nil {
			panic(err)
		}
		cases = append(cases, goldenCase{name: "BFS/fault-" + name, configs: []string{"default", "win16"},
			build: bfs, prep: func(m *sim.Machine) { plan.Apply(m) }})
	}
	cases = append(cases,
		goldenCase{name: "BFS/budget-abort", configs: []string{"default", "win16"}, partial: true,
			build: bfs, prep: func(m *sim.Machine) { m.Cfg.CycleBudget = 5000 }},
		goldenCase{name: "BFS/cancel-mid-run", configs: []string{"default", "win16"}, partial: true,
			build: bfs, prep: func(m *sim.Machine) { m.Ctx = &countdownCtx{Context: context.Background(), polls: 2} }},
	)
	return cases
}

func (gc *goldenCase) runs(cfg string) bool {
	return gc.configs == nil || slices.Contains(gc.configs, cfg)
}

// partialStats extracts the Stats an aborted replay attached to its error.
func partialStats(err error) *sim.Stats {
	var be *sim.CycleBudgetError
	if errors.As(err, &be) {
		return be.Stats
	}
	var ce *sim.CancelledError
	if errors.As(err, &ce) {
		return ce.Stats
	}
	return nil
}

// replayGolden runs every case under every config. With a probe factory it
// installs a fresh probe per replay and hands it to check afterwards.
func replayGolden(t *testing.T, probe func() sim.Probe, check func(name string, p sim.Probe, st *sim.Stats)) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	for _, gc := range goldenCases() {
		inst := gc.build(t)
		m := inst.Machine
		ts, err := m.RunFunctional()
		if err != nil {
			t.Fatalf("%s: functional: %v", gc.name, err)
		}
		base := m.Cfg
		for _, cfg := range goldenConfigs {
			if !gc.runs(cfg.name) {
				continue
			}
			name := gc.name + "@" + cfg.name
			m.Cfg, m.Faults, m.Ctx, m.Probe = base, nil, nil, nil
			cfg.mod(&m.Cfg)
			if gc.prep != nil {
				gc.prep(m)
			}
			var p sim.Probe
			if probe != nil {
				p = probe()
				m.Probe = p
			}
			st, err := m.RunTiming(ts)
			rec := goldenRecord{Name: name, Stats: st}
			switch {
			case gc.partial:
				if err == nil {
					t.Fatalf("%s: expected an abort, run completed", name)
				}
				rec.Error = err.Error()
				rec.Stats = partialStats(err)
				if rec.Stats == nil {
					t.Fatalf("%s: abort carries no partial stats: %v", name, err)
				}
			case err != nil:
				t.Fatalf("%s: timing: %v", name, err)
			}
			if check != nil {
				check(name, p, rec.Stats)
			}
			out = append(out, rec)
		}
	}
	return out
}

// TestTimingGolden pins the timing engine cycle for cycle: the full Stats of
// every golden case under every config must match the committed file byte
// for byte. The file was generated by the engine as it stood before the
// issue scan became wakeup-driven; an engine change that moves any number in
// it has changed the machine model, not just its speed.
func TestTimingGolden(t *testing.T) {
	got, err := json.MarshalIndent(replayGolden(t, nil, nil), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w []goldenRecord
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	var g []goldenRecord
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if len(g) != len(w) {
		t.Fatalf("golden has %d records, run produced %d", len(w), len(g))
	}
	for i := range w {
		if !reflect.DeepEqual(g[i], w[i]) {
			a, _ := json.Marshal(g[i])
			b, _ := json.Marshal(w[i])
			t.Errorf("%s differs from golden:\n got  %s\n want %s", w[i].Name, a, b)
		}
	}
	if !t.Failed() {
		t.Error("golden bytes differ but records compare equal (formatting drift)")
	}
}

// tallyProbe is a telemetry collector that also sums the CoreCycles stream
// per core, so the attribution can be checked against Stats.PerCore core by
// core and not only in total.
type tallyProbe struct {
	*telemetry.Collector
	perCore []sim.Breakdown
}

func (p *tallyProbe) BeginTiming(m *sim.Machine) {
	p.perCore = make([]sim.Breakdown, m.Cfg.Cores)
	p.Collector.BeginTiming(m)
}

func (p *tallyProbe) CoreCycles(core int, class sim.StallClass, thread, pc int, weight uint64) {
	b := &p.perCore[core]
	switch class {
	case sim.ClassIssue:
		b.Issue += weight
	case sim.ClassBackend:
		b.Backend += weight
	case sim.ClassQueue:
		b.Queue += weight
	default:
		b.Other += weight
	}
	p.Collector.CoreCycles(core, class, thread, pc, weight)
}

// TestTimingGoldenProbed replays the golden set with a telemetry collector
// installed: Stats must equal the probe-off golden, and the CoreCycles
// attribution must reconcile exactly with Stats.PerCore.
func TestTimingGoldenProbed(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenRecord
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*sim.Stats{}
	for _, r := range golden {
		byName[r.Name] = r.Stats
	}
	replayGolden(t, func() sim.Probe { return &tallyProbe{Collector: telemetry.NewCollector()} },
		func(name string, p sim.Probe, st *sim.Stats) {
			if !reflect.DeepEqual(st, byName[name]) {
				t.Errorf("%s: probe-on Stats differ from the probe-off golden", name)
			}
			tp := p.(*tallyProbe)
			if !reflect.DeepEqual(tp.perCore, st.PerCore) {
				t.Errorf("%s: CoreCycles per core %+v, Stats.PerCore %+v", name, tp.perCore, st.PerCore)
			}
			if got, want := tp.Profile().Total, st.TotalBreakdown(); got != want {
				t.Errorf("%s: profile total %+v, Stats total %+v", name, got, want)
			}
		})
}
