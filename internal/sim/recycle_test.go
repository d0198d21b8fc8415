package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"phloem/internal/cache"
)

// traceHash hashes every stage and RA trace entry of ts.
func traceHash(ts *TraceSet) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, tr := range ts.Threads {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(tr)))
		h.Write(buf)
		for _, e := range tr {
			buf = binary.LittleEndian.AppendUint64(buf[:0], e.Addr)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.PC))
			h.Write(append(buf, e.Flags))
		}
	}
	for _, tr := range ts.RA {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(tr)))
		h.Write(buf)
		for _, e := range tr {
			buf = binary.LittleEndian.AppendUint64(buf[:0], e.Addr)
			h.Write(append(buf, e.Kind))
		}
	}
	return h.Sum64()
}

// TestRunTraceOwnership: a TraceSet that RunFunctional returned belongs to
// its caller. Many Runs of other machines on four goroutines, drawing on the
// same free lists, must neither write into it nor share a buffer or a cache
// hierarchy between two runs: the caller's traces keep their hash and replay
// to the same Stats, and every concurrent run's Stats equal those of the
// same run done alone.
func TestRunTraceOwnership(t *testing.T) {
	a, bv := introData(t, 3000)
	owner, _ := introPipeline(a, bv)
	ts, err := owner.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	want := traceHash(ts)
	first, err := owner.RunTiming(ts)
	if err != nil {
		t.Fatal(err)
	}

	// Different sizes put the runs' traces in different capacity classes.
	sizes := []int{400, 1500, 3000, 6000}
	serial := make([]*Stats, len(sizes))
	for i, n := range sizes {
		a, bv := introData(t, n)
		m, _ := introPipeline(a, bv)
		if serial[i], err = m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const workers, runs = 4, 12
	errs := make(chan error, workers*runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := (w + r) % len(sizes)
				a, bv := introData(t, sizes[i])
				m, _ := introPipeline(a, bv)
				st, err := m.Run()
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(st, serial[i]):
					errs <- fmt.Errorf("worker %d run %d (n=%d): Stats differ from the run done alone:\n%+v\n%+v",
						w, r, sizes[i], st, serial[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := traceHash(ts); got != want {
		t.Fatalf("the caller's TraceSet changed under other runs: hash %016x, was %016x", got, want)
	}
	again, err := owner.RunTiming(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("a second replay of the caller's TraceSet differs:\n%+v\n%+v", again, first)
	}
}

// TestRunRecyclesBuffers: once one Run has warmed the free lists, a Run of
// a fresh instance of the same machine takes its traces, queue rings and
// cache hierarchy from them, and allocates under an eighth of its trace
// bytes. A Run that fails on its trace limit in between hands back what it
// took, and garbage collections between the runs empty nothing.
func TestRunRecyclesBuffers(t *testing.T) {
	a, bv := introData(t, 20000)
	m, _ := introPipeline(a, bv)
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, tr := range ts.Threads {
		entries += len(tr)
	}
	for _, tr := range ts.RA {
		entries += len(tr)
	}
	traceBytes := uint64(16 * entries)

	warm, _ := introPipeline(a, bv)
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	limited, _ := introPipeline(a, bv)
	limited.MaxTraceEntries = entries / 2
	if _, err := limited.Run(); !errors.Is(err, ErrTraceLimit) {
		t.Fatalf("a Run with half the trace it needs: %v, want %v", err, ErrTraceLimit)
	}
	runtime.GC()
	runtime.GC()
	hiers := hierarchyPool(m.Cfg.Mem)
	held := append([]*cache.Hierarchy(nil), hiers.items...)
	if len(held) == 0 {
		t.Fatal("no cache hierarchy was handed back")
	}

	fresh, _ := introPipeline(a, bv)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Run allocated %d bytes against %d trace bytes (%d entries)", alloc, traceBytes, entries)
	if alloc >= traceBytes/8 {
		t.Errorf("Run allocated %d bytes, not under 1/8 of its %d trace bytes", alloc, traceBytes)
	}
	if !slices.Equal(hiers.items, held) {
		t.Errorf("Run did not replay on a recycled cache hierarchy: the free list held %v, now %v", held, hiers.items)
	}
}

// TestRecycleSkipsCallerTraces: the buffers of a TraceSet that
// RunFunctional hands to its caller neither come from the trace free lists
// nor go back to them, so a process that only collects traces (a functional
// oracle) keeps nothing in the lists, and a caller's traces never drain
// what Run recycles.
func TestRecycleSkipsCallerTraces(t *testing.T) {
	a, bv := introData(t, 20000)
	warm, _ := introPipeline(a, bv)
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	before := traceListLens()
	m, _ := introPipeline(a, bv)
	if _, err := m.RunFunctional(); err != nil {
		t.Fatal(err)
	}
	if after := traceListLens(); after != before {
		t.Errorf("RunFunctional changed the trace free lists:\n%v\n%v", before, after)
	}
}

// traceListLens returns the length of every stage and RA trace free list.
func traceListLens() (n [2][poolClasses]int) {
	for k := range n[0] {
		n[0][k] = len(stageTraces[k].items)
		n[1][k] = len(raTraces[k].items)
	}
	return n
}
