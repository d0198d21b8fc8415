package pipeline_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

func TestInstantiateRejectsMissingBindings(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.NewSerial(p)
	_, err = pipeline.Instantiate(pl, arch.DefaultConfig(1), pipeline.Bindings{})
	if err == nil {
		t.Fatal("expected an error for missing array bindings")
	}
}

func TestReplicateStructure(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := res.Pipeline
	repl, err := pipeline.Replicate(base, 3, []string{"nodes", "edges"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(repl.Stages) != 3*len(base.Stages) {
		t.Errorf("stages: %d, want %d", len(repl.Stages), 3*len(base.Stages))
	}
	if len(repl.RAs) != 3*len(base.RAs) {
		t.Errorf("RAs: %d, want %d", len(repl.RAs), 3*len(base.RAs))
	}
	if len(repl.Queues) != 3*len(base.Queues) {
		t.Errorf("queues: %d, want %d", len(repl.Queues), 3*len(base.Queues))
	}
	// Shared slots appear once; private ones per replica.
	wantSlots := 2 + 3*(len(base.Prog.Slots)-2)
	if len(repl.Prog.Slots) != wantSlots {
		t.Errorf("slots: %d, want %d", len(repl.Prog.Slots), wantSlots)
	}
	// Replica r's stages sit on core r.
	for i, st := range repl.Stages {
		if st.Thread.Core != i/len(base.Stages) {
			t.Errorf("stage %d on core %d", i, st.Thread.Core)
		}
	}
}

func TestReplicatedBFSCorrectEachReplica(t *testing.T) {
	g := graph.Grid("g", 16, 16, 3)
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const R = 2
	repl, err := pipeline.Replicate(res.Pipeline, R, []string{"nodes", "edges"}, nil)
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
	inst, err := pipeline.Instantiate(repl, arch.DefaultConfig(R), b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	want := workloads.BFSRef(g, 0)
	for r := 0; r < R; r++ {
		got := inst.Arrays[fmt.Sprintf("r%d.distances", r)].Ints()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %d distances[%d] = %d, want %d", r, i, got[i], want[i])
			}
		}
	}
}

func TestReplicatePerReplicaOverrides(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.NewSerial(p)
	repl, err := pipeline.Replicate(pl, 2, nil, map[string][]int64{"root": {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if repl.Stages[0].Overrides["root"] != 0 || repl.Stages[1].Overrides["root"] != 5 {
		t.Error("per-replica overrides not applied")
	}
	if _, err := pipeline.Replicate(pl, 2, nil, map[string][]int64{"root": {1}}); err == nil {
		t.Error("wrong-length overrides must error")
	}
}

// TestReplicateRejectsWrittenShared: a shared slot is one array for every
// replica, so one that a stage stores to would be raced on. BFS writes its
// distances.
func TestReplicateRejectsWrittenShared(t *testing.T) {
	res, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Replicate(res.Pipeline, 2, []string{"nodes", "edges", "distances"}, nil)
	if err == nil || !strings.Contains(err.Error(), `"distances"`) {
		t.Fatalf("Replicate with distances shared: %v, want an error naming the slot", err)
	}
}

// TestFanOutsRejected: the machine has no multicast, so a hand-built
// pipeline that lists a fan-out is refused by Instantiate and Replicate
// rather than run without it.
func TestFanOutsRejected(t *testing.T) {
	res, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Pipeline
	pl.FanOuts = []arch.FanOut{{Src: 0, Dst: []int{1}}}
	if _, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), workloads.BFSBindings(graph.Grid("g", 4, 4, 1), 0)); err == nil || !strings.Contains(err.Error(), "fan-out") {
		t.Errorf("Instantiate with a fan-out: %v, want a fan-out error", err)
	}
	if _, err := pipeline.Replicate(pl, 2, []string{"nodes", "edges"}, nil); err == nil || !strings.Contains(err.Error(), "fan-out") {
		t.Errorf("Replicate with a fan-out: %v, want a fan-out error", err)
	}
}

// TestInstantiateAllocatesWritten: Instantiate copies only the arrays some
// stage writes and binds the read-only graph to the caller's slices. BFS on
// a 100x100 grid writes distances and both fringes; nodes and edges are
// most of its input bytes.
func TestInstantiateAllocatesWritten(t *testing.T) {
	res, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid("g", 100, 100, 3)
	b := workloads.BFSBindings(g, 0)
	written := 0
	for _, name := range []string{"distances", "cur_fringe", "next_fringe"} {
		written += 8 * len(b.Ints[name])
	}
	limit := uint64(written + 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst, err := pipeline.Instantiate(res.Pipeline, arch.DefaultConfig(1), b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Instantiate allocated %d bytes; written arrays %d, read-only %d", alloc, written, 8*(len(g.Nodes)+len(g.Edges)))
	if alloc >= limit {
		t.Errorf("Instantiate allocated %d bytes, not under %d (written arrays plus 64 KiB)", alloc, limit)
	}
	if &inst.Arrays["edges"].Ints()[0] != &g.Edges[0] {
		t.Error("edges, which no stage writes, was copied")
	}
	if &inst.Arrays["distances"].Ints()[0] == &b.Ints["distances"][0] {
		t.Error("distances, which BFS writes, shares the caller's slice")
	}
}
