package core_test

// The search worker pool must terminate on every exit path of both front
// doors — success, a context cancelled before the search, a cancel in the
// middle of it, a context deadline expiring with workers in flight, and
// panics inside worker builds — without leaving a goroutine behind.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"phloem/internal/core"
	"phloem/internal/fault"
	"phloem/internal/graph"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// noLeak runs f and fails if more goroutines are alive afterwards than
// before, allowing exiting workers a grace period to unwind.
func noLeak(t *testing.T, name string, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%s: %d goroutines before the search, %d after\n%s", name, before, n, buf[:runtime.Stack(buf, true)])
	}
}

// namedPlan looks up one of fault.NamedSearch's plans.
func namedPlan(t *testing.T, name string) fault.SearchPlan {
	t.Helper()
	for _, p := range fault.NamedSearch() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no search plan %q", name)
	return fault.SearchPlan{}
}

// outcome is what one search exit path returned, reduced to what the leak
// test checks about it.
type outcome struct {
	err       error
	cancelled bool // autotune: Result.Cancelled; Search: some SkipCancelled point
	panics    int  // SkipPanic records
}

func TestSearchNoGoroutineLeak(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	train := graph.Grid("t", 12, 12, 3)
	entries := []struct {
		name string
		run  func(core.Options) outcome
	}{
		{"autotune", func(opt core.Options) outcome {
			opt.Mode = core.Autotune
			res, err := core.Compile(p, opt)
			if err != nil {
				return outcome{err: err}
			}
			o := outcome{cancelled: res.Cancelled}
			for _, s := range res.Skips {
				if s.Reason == core.SkipPanic {
					o.panics++
				}
			}
			return o
		}},
		{"search", func(opt core.Options) outcome {
			points, err := core.Search(p, opt)
			o := outcome{err: err}
			for _, pt := range points {
				if pt.Skip != nil && pt.Skip.Reason == core.SkipCancelled {
					o.cancelled = true
				}
				if pt.Skip != nil && pt.Skip.Reason == core.SkipPanic {
					o.panics++
				}
			}
			return o
		}},
	}
	base := func() core.Options {
		opt := core.DefaultOptions()
		opt.Training = []core.TrainFunc{bfsTrainer(train)}
		opt.Parallelism = 4
		return opt
	}
	for _, entry := range entries {
		run := func(name string, opt core.Options, check func(outcome) bool) {
			t.Helper()
			name = entry.name + "/" + name
			noLeak(t, name, func() {
				if o := entry.run(opt); !check(o) {
					t.Errorf("%s: unexpected outcome %+v", name, o)
				}
			})
		}

		run("success", base(), func(o outcome) bool { return o.err == nil && !o.cancelled })

		opt := base()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opt.Ctx = ctx
		run("pre-cancelled", opt, func(o outcome) bool { return errors.Is(o.err, context.Canceled) })

		opt = base()
		release := namedPlan(t, "search-cancel").Arm(&opt) // cancels after 3 measurements
		run("mid-search-cancel", opt, func(o outcome) bool { return o.err == nil && o.cancelled })
		release()

		// The serial baseline and the inline head start return at once; every
		// later measurement parks until the deadline fires, so it expires
		// with pool workers mid-measurement.
		opt = base()
		var calls atomic.Int32
		opt.Training = []core.TrainFunc{func(_ *pipeline.Pipeline, b core.Budget) (uint64, error) {
			if calls.Add(1) <= 2 {
				return 1000, nil
			}
			<-b.Ctx.Done()
			return 0, sim.ErrCancelled
		}}
		ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
		opt.Ctx = ctx
		run("deadline", opt, func(o outcome) bool { return o.err == nil && o.cancelled })
		cancel()

		// Worker builds panic inside PostBuild; the seeded plan mixes panics
		// with verifier sabotage and a mid-search cancel.
		opt = base()
		release = namedPlan(t, "search-panic").Arm(&opt)
		run("worker-panic", opt, func(o outcome) bool { return o.err == nil && o.panics > 0 })
		release()
		opt = base()
		release = fault.NewSearch(1).Arm(&opt)
		run("panic-sabotage-cancel", opt, func(o outcome) bool { return o.err == nil })
		release()
	}
}
