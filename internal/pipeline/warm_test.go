package pipeline_test

import (
	"runtime"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// TestWarmRunAllocatesWritten: once two runs have warmed the free lists, an
// Instantiate + Run of a lowered pipeline allocates the arrays its program
// writes and at most 16 KiB more. The machine, its traces, the engines'
// rings, register files, decoded programs and replay threads, and the cache
// hierarchy all come back from earlier runs. BFS on PowerLaw(200,6) and
// SpMM on Banded(24,8,12), each as the static pipeline and as the serial
// baseline.
func TestWarmRunAllocatesWritten(t *testing.T) {
	g := graph.PowerLaw("g", 200, 6, 1)
	a := matrix.Banded("a", 24, 8, 12, 1)
	bt := a.Transpose("bt")
	cases := []struct {
		name    string
		src     string
		b       pipeline.Bindings
		written []string
	}{
		{"BFS", workloads.BFSSource, workloads.BFSBindings(g, 0), []string{"distances", "cur_fringe", "next_fringe"}},
		{"SpMM", workloads.SpMMSource, workloads.SpMMBindings(a, bt), []string{"out"}},
	}
	for _, c := range cases {
		res, err := core.CompileSource(c.src, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		serial, err := workloads.CompileSerial(c.src)
		if err != nil {
			t.Fatal(err)
		}
		written := 0
		for _, name := range c.written {
			written += 8 * (len(c.b.Ints[name]) + len(c.b.Floats[name]))
		}
		for _, pl := range []*pipeline.Pipeline{res.Pipeline, pipeline.NewSerial(serial)} {
			var alloc uint64
			for run := 0; run < 3; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				inst, err := pipeline.Instantiate(pl, arch.DefaultConfig(1), c.b)
				if err == nil {
					_, err = inst.Run()
				}
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: %v", pl.Description, err)
				}
				alloc = after.TotalAlloc - before.TotalAlloc
			}
			t.Logf("%s %s: third Instantiate + Run allocated %d bytes, written arrays %d, %d beyond them",
				c.name, pl.Description, alloc, written, int(alloc)-written)
			if limit := uint64(written + 16<<10); alloc > limit {
				t.Errorf("%s %s: third Instantiate + Run allocated %d bytes, over the written arrays' %d plus 16 KiB",
					c.name, pl.Description, alloc, written)
			}
		}
	}
}
