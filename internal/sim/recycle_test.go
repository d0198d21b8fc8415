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

	"phloem/internal/arch"
	"phloem/internal/cache"
	"phloem/internal/mem"
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

// shapedMachine builds one of the machine shapes the recycling tests mix:
// the intro pipeline (3 threads, 2 RAs) or the serial intro loop (1
// thread, no RA) over n elements, on a window of win entries.
func shapedMachine(t *testing.T, n int, serial bool, win int) *Machine {
	a, bv := introData(t, n)
	var m *Machine
	if serial {
		m = NewMachine(arch.DefaultConfig(1))
		sa := m.AddSlot("A", m.Space.AllocInts("A", a))
		sb := m.AddSlot("B", m.Space.AllocInts("B", bv))
		so := m.AddSlot("out", m.Space.Alloc("out", mem.I64, 1))
		m.AddStage(&Stage{Prog: buildIntroSerial(int64(n), sa, sb, so), Thread: arch.ThreadID{}})
	} else {
		m, _ = introPipeline(a, bv)
	}
	m.Cfg.WindowSize = win
	return m
}

// runShape is one shape of TestRunTraceOwnership's concurrent runs.
type runShape struct {
	n      int
	serial bool
	win    int
}

// TestRunTraceOwnership: a TraceSet that RunFunctional returned belongs to
// its caller. Many Runs of other machines on four goroutines, drawing on the
// same free lists, must neither write into it nor share a buffer, a replay
// thread or a cache hierarchy between two runs: the caller's traces keep
// their hash and replay to the same Stats, and every concurrent run's Stats
// equal those of the same run done alone. The runs mix shapes: pipeline and
// serial, windows of 16 and 128 entries, traces in different capacity
// classes. Then two workers run candidates one after another on the warm
// lists, as a Parallelism-2 search does, and every trace they write equals
// the fresh one.
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
	shapes := []runShape{{400, false, 128}, {1500, true, 16}, {3000, false, 16}, {6000, false, 128}, {3000, true, 128}}
	alone := make([]*Stats, len(shapes))
	for i, sh := range shapes {
		if alone[i], err = shapedMachine(t, sh.n, sh.serial, sh.win).Run(); err != nil {
			t.Fatal(err)
		}
	}
	const workers, runs = 4, 15
	errs := make(chan error, workers*runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := (w + r) % len(shapes)
				st, err := shapedMachine(t, shapes[i].n, shapes[i].serial, shapes[i].win).Run()
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(st, alone[i]):
					errs <- fmt.Errorf("worker %d run %d (%+v): Stats differ from the run done alone:\n%+v\n%+v",
						w, r, shapes[i], st, alone[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A warm Parallelism-2 search: two workers, each simulating one
	// candidate after another on the lists the runs above left, the way the
	// autotuner's workers call Run. Every trace a worker's functional phase
	// writes into recycled buffers must equal the fresh trace of the same
	// machine, and its replay the run done alone.
	fresh := make([]uint64, len(shapes))
	for i, sh := range shapes {
		fts, err := shapedMachine(t, sh.n, sh.serial, sh.win).RunFunctional()
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = traceHash(fts)
	}
	const searchWorkers, candidates = 2, 12
	errs = make(chan error, searchWorkers*candidates)
	for w := 0; w < searchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < candidates; c++ {
				i := (3*w + c) % len(shapes)
				m := shapedMachine(t, shapes[i].n, shapes[i].serial, shapes[i].win)
				rts, err := m.runFunctional(funcQuantum, true)
				if err != nil {
					errs <- err
					continue
				}
				if got := traceHash(rts); got != fresh[i] {
					errs <- fmt.Errorf("search worker %d candidate %d (%+v): recycled traces hash %016x, fresh %016x", w, c, shapes[i], got, fresh[i])
				}
				st, err := m.RunTiming(rts)
				rts.recycle()
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(st, alone[i]):
					errs <- fmt.Errorf("search worker %d candidate %d (%+v): Stats differ from the run done alone", w, c, shapes[i])
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

// TestRecycledReplayMatchesFresh: a replay on threads an earlier replay
// handed back gives exactly what a replay on threads built from nothing
// does. The replays interleave shapes (windows of 16 and 128 entries, 1 and
// 3 threads, with and without RAs) and, in between, a replay aborted by its
// cycle budget and one that deadlocks, both of which stop with windows,
// due lists, link tables and predictors mid-flight. Each replay's Stats, or
// its error with the partial Stats or snapshot it carries, must equal the
// fresh replay's.
func TestRecycledReplayMatchesFresh(t *testing.T) {
	type replay struct {
		name string
		m    *Machine
		ts   *TraceSet
	}
	traced := func(name string, m *Machine) replay {
		ts, err := m.RunFunctional()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return replay{name, m, ts}
	}
	pipe128 := traced("pipeline/128", shapedMachine(t, 3000, false, 128))
	pipe16 := traced("pipeline/16", shapedMachine(t, 3000, false, 16))
	serial16 := traced("serial/16", shapedMachine(t, 2000, true, 16))
	serial128 := traced("serial/128", shapedMachine(t, 2000, true, 128))
	// Both budgets stop the replay with entries on a due list.
	aborted := traced("aborted", shapedMachine(t, 3000, false, 128))
	aborted.m.Cfg.CycleBudget = 1000
	abortedSerial := traced("aborted serial", shapedMachine(t, 2000, true, 16))
	abortedSerial.m.Cfg.CycleBudget = 4000
	deadlocked := replay{"deadlocked", timingDeadlockMachine(100, 0), nil}
	deadlocked.ts = traced("deadlock trace", timingDeadlockMachine(100, 128)).ts
	deadlocked.m.Cfg.IdleLimit = 5000

	// outcome is what a replay leaves its caller.
	outcome := func(r replay) any {
		st, err := r.m.RunTiming(r.ts)
		var be *CycleBudgetError
		var de *DeadlockError
		switch {
		case err == nil:
			return st
		case errors.As(err, &be):
			return be
		case errors.As(err, &de):
			return de
		}
		t.Fatalf("%s: %v", r.name, err)
		return nil
	}
	all := []replay{pipe128, pipe16, serial16, serial128, aborted, abortedSerial, deadlocked}
	fresh := map[string]any{}
	for _, r := range all {
		for {
			if _, ok := threadList.get(); !ok {
				break
			}
		}
		fresh[r.name] = outcome(r)
	}
	for _, name := range []string{"aborted", "aborted serial"} {
		if _, ok := fresh[name].(*CycleBudgetError); !ok {
			t.Fatalf("the %s replay gave %v, want a cycle budget error", name, fresh[name])
		}
	}
	if _, ok := fresh["deadlocked"].(*DeadlockError); !ok {
		t.Fatalf("the deadlocked replay gave %v, want a deadlock", fresh["deadlocked"])
	}
	order := []replay{pipe128, aborted, pipe128, serial16, deadlocked, serial16, pipe16,
		abortedSerial, serial128, aborted, pipe16, deadlocked, pipe128, abortedSerial, serial16,
		serial128, pipe128}
	for i, r := range order {
		if got := outcome(r); !reflect.DeepEqual(got, fresh[r.name]) {
			t.Errorf("replay %d (%s) on recycled threads differs from a fresh replay:\n%+v\n%+v", i, r.name, got, fresh[r.name])
		}
	}

	// Some of a thread's cold state (its due list, a store chain that no
	// load meets) only costs rescans when stale, so the Stats above need
	// not show it: a thread taken from what an aborted replay left must
	// also be, field for field, one built from nothing.
	for _, win := range []int{128, 16} {
		outcome(aborted)
		var left []*tThread
		due := 0
		for {
			x, ok := threadList.get()
			if !ok {
				break
			}
			left = append(left, x)
			due += len(x.due)
		}
		if due == 0 {
			t.Fatal("the aborted replay left no due entries to reset")
		}
		var want []*tThread
		for i, st := range pipe16.m.Stages {
			want = append(want, newThread(i, st, pipe16.ts.Threads[i], win))
		}
		for _, x := range left {
			threadList.put(x)
		}
		for i, st := range pipe16.m.Stages {
			if got := newThread(i, st, pipe16.ts.Threads[i], win); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("window %d, stage %d: a recycled thread is not a fresh one:\n%+v\n%+v", win, i, got, want[i])
			}
		}
	}
}
