package core_test

// Checkpoint/resume and cancellation: an interrupted autotune leaves its
// completed measurements in the Options.Checkpoint journal, and the resumed
// search replays them to reproduce the uninterrupted winner, counters,
// skips, and SearchPoint order byte-identically — at every Parallelism
// level, across journal corruption, and across key mismatches (which
// degrade to a fresh search, never a wrong answer).

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// cancelAfter wraps a trainer so the context is cancelled once n training
// measurements have completed — a deterministic interruption point at
// Parallelism 1, and a valid (if racy) one at any level.
func cancelAfter(train core.TrainFunc, n int32, cancel context.CancelFunc) core.TrainFunc {
	var done int32
	return func(p *pipeline.Pipeline, b core.Budget) (uint64, error) {
		c, err := train(p, b)
		if atomic.AddInt32(&done, 1) == n {
			cancel()
		}
		return c, err
	}
}

func render(res *core.Result) string {
	return renderResult(res) + renderPoints(res.Points)
}

func autotuneBFSOptions(train *graph.CSR) core.Options {
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Training = []core.TrainFunc{bfsTrainer(train)}
	return opt
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)

	// Uninterrupted reference, no checkpoint involved.
	refOpt := autotuneBFSOptions(train)
	refOpt.Parallelism = 1
	ref, err := core.CompileSource(workloads.BFSSource, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := render(ref)

	for _, par := range []int{1, 4, 0} {
		journal := filepath.Join(t.TempDir(), "ckpt.jsonl")

		// Interrupt: cancel after three completed measurements (the serial
		// baseline plus two candidates), leaving a partial journal behind.
		ctx, cancel := context.WithCancel(context.Background())
		opt := autotuneBFSOptions(train)
		opt.Parallelism = par
		opt.Training = []core.TrainFunc{cancelAfter(bfsTrainer(train), 3, cancel)}
		opt.Ctx = ctx
		opt.Checkpoint = journal
		partial, err := core.CompileSource(workloads.BFSSource, opt)
		cancel()
		if err != nil {
			t.Fatalf("par %d interrupted run: %v", par, err)
		}
		if !partial.Cancelled {
			t.Fatalf("par %d: interruption did not mark the result cancelled", par)
		}
		if partial.Pipeline == nil {
			t.Fatalf("par %d: cancelled result has no best-so-far pipeline", par)
		}

		// Resume: same search, no cancellation, replaying the journal.
		opt = autotuneBFSOptions(train)
		opt.Parallelism = par
		opt.Checkpoint = journal
		opt.Resume = true
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatalf("par %d resumed run: %v", par, err)
		}
		if res.Cancelled {
			t.Errorf("par %d: resumed run still cancelled", par)
		}
		if res.Replayed == 0 {
			t.Errorf("par %d: resumed run replayed nothing from the journal", par)
		}
		if got := render(res); got != want {
			t.Errorf("par %d: resumed result differs from uninterrupted:\n--- uninterrupted\n%s--- resumed\n%s",
				par, want, got)
		}
	}
}

func TestCheckpointResumeSearchPoints(t *testing.T) {
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid("s", 16, 16, 4)

	refOpt := core.DefaultOptions()
	refOpt.Training = []core.TrainFunc{bfsTrainer(g)}
	refOpt.Parallelism = 1
	refPoints, err := core.Search(p, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPoints(refPoints)

	journal := filepath.Join(t.TempDir(), "search.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	opt := core.DefaultOptions()
	opt.Training = []core.TrainFunc{cancelAfter(bfsTrainer(g), 3, cancel)}
	opt.Parallelism = 1
	opt.Ctx = ctx
	opt.Checkpoint = journal
	if _, err := core.Search(p, opt); err != nil {
		t.Fatalf("interrupted search: %v", err)
	}
	cancel()

	opt = core.DefaultOptions()
	opt.Training = []core.TrainFunc{bfsTrainer(g)}
	opt.Parallelism = 1
	opt.Checkpoint = journal
	opt.Resume = true
	points, err := core.Search(p, opt)
	if err != nil {
		t.Fatalf("resumed search: %v", err)
	}
	if got := renderPoints(points); got != want {
		t.Errorf("resumed search points differ:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}

func TestCheckpointCorruptionDegradesToReMeasurement(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	journal := filepath.Join(t.TempDir(), "ckpt.jsonl")

	run := func(resume bool) *core.Result {
		opt := autotuneBFSOptions(train)
		opt.Parallelism = 1
		opt.Checkpoint = journal
		opt.Resume = resume
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := render(run(false)) // full run, journal now complete

	corrupt := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-7] }},
		{"bit-flip-mid-entry", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x20
			return c
		}},
		{"garbage-line", func(b []byte) []byte {
			lines := strings.SplitAfter(string(b), "\n")
			lines[1] = "{not json\n"
			return []byte(strings.Join(lines, ""))
		}},
		{"empty-file", func(b []byte) []byte { return nil }},
	}
	pristine, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corrupt {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(journal, c.mut(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			res := run(true)
			if got := render(res); got != want {
				t.Errorf("result after corruption differs:\n--- pristine\n%s--- corrupted\n%s", want, got)
			}
		})
	}
	// A corrupt journal must also be healed: after the runs above the file
	// is a fully valid journal again, replaying everything.
	res := run(true)
	if res.Replayed != res.Searched {
		t.Errorf("healed journal replayed %d of %d measurements", res.Replayed, res.Searched)
	}
}

func TestCheckpointKeyMismatchStartsFresh(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	journal := filepath.Join(t.TempDir(), "ckpt.jsonl")

	opt := autotuneBFSOptions(train)
	opt.Parallelism = 1
	opt.Checkpoint = journal
	if _, err := core.CompileSource(workloads.BFSSource, opt); err != nil {
		t.Fatal(err)
	}

	// Same journal, different search shape: nothing may replay.
	opt = autotuneBFSOptions(train)
	opt.Parallelism = 1
	opt.Checkpoint = journal
	opt.Resume = true
	opt.MaxCandidates = 3
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 0 {
		t.Errorf("key-mismatched journal replayed %d measurements", res.Replayed)
	}
	if res.Pipeline == nil || res.Searched == 0 {
		t.Errorf("fresh search after key mismatch produced no result: %+v", res)
	}
}

func TestCancelledAutotuneDeterministicPartialResult(t *testing.T) {
	train := graph.Grid("t", 20, 20, 7)
	run := func() *core.Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := autotuneBFSOptions(train)
		opt.Parallelism = 1 // deterministic interruption point
		opt.Training = []core.TrainFunc{cancelAfter(bfsTrainer(train), 2, cancel)}
		opt.Ctx = ctx
		res, err := core.CompileSource(workloads.BFSSource, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if !res.Cancelled {
		t.Fatal("result not marked cancelled")
	}
	if !errors.Is(res.CancelCause, context.Canceled) {
		t.Errorf("CancelCause = %v, want context.Canceled", res.CancelCause)
	}
	if res.Pipeline == nil {
		t.Fatal("cancelled result lost the best-so-far pipeline")
	}
	cancelled := 0
	for _, s := range res.Skips {
		if s.Reason == core.SkipCancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Errorf("no candidate recorded as SkipCancelled; skips: %v", res.Skips)
	}
	// Every enumerated candidate is accounted for: measured, deduplicated,
	// or skipped (the serial baseline is Searched's extra 1).
	if got := res.Searched - 1 + res.Deduped + len(res.Skips); got < res.Enumerated {
		t.Errorf("cancelled result accounts for %d of %d enumerated candidates", got, res.Enumerated)
	}
	if a, b := render(res), render(run()); a != b {
		t.Errorf("cancelled partial result not deterministic:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestPreCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	train := graph.Grid("t", 8, 8, 3)
	opt := autotuneBFSOptions(train)
	opt.Ctx = ctx
	if _, err := core.CompileSource(workloads.BFSSource, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("CompileSource on a cancelled context: %v, want context.Canceled", err)
	}
	p, err := workloads.CompileSerial(workloads.BFSSource)
	if err != nil {
		t.Fatal(err)
	}
	sopt := core.DefaultOptions()
	sopt.Training = []core.TrainFunc{bfsTrainer(train)}
	sopt.Ctx = ctx
	if _, err := core.Search(p, sopt); !errors.Is(err, context.Canceled) {
		t.Errorf("Search on a cancelled context: %v, want context.Canceled", err)
	}
}

func TestDeadlineGenerousMatchesUnbounded(t *testing.T) {
	train := graph.Grid("t", 16, 16, 5)
	opt := autotuneBFSOptions(train)
	opt.Parallelism = 1
	ref, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt = autotuneBFSOptions(train)
	opt.Parallelism = 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour) // never expires, must change nothing
	defer cancel()
	opt.Ctx = ctx
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("generous deadline marked the result cancelled")
	}
	if a, b := render(ref), render(res); a != b {
		t.Errorf("deadline-bounded run differs from unbounded:\n--- unbounded\n%s--- bounded\n%s", a, b)
	}
}
