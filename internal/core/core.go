// Package core is the Phloem compiler driver: it takes serial C-subset
// source, finds decoupling points with the static cost model (Sec. V), runs
// the pipelining passes (Sec. IV-B), and — in profile-guided mode —
// enumerates candidate pipelines, measures them on training inputs, and
// selects the best (Fig. 8).
package core

import (
	"context"
	"fmt"
	"sort"

	"phloem/internal/analysis"
	"phloem/internal/arch"
	"phloem/internal/effects"
	"phloem/internal/ir"
	"phloem/internal/lower"
	"phloem/internal/passes"
	"phloem/internal/pipeline"
	"phloem/internal/source"
	"phloem/internal/verify"
)

// Mode selects the compilation flow of Fig. 8.
type Mode int

const (
	// Static uses the cost model's top-ranked points directly.
	Static Mode = iota
	// Autotune profiles candidate pipelines on training inputs.
	Autotune
)

// Options configures a compilation.
type Options struct {
	// Mode selects static or profile-guided point selection.
	Mode Mode
	// MaxThreads bounds the stage count (SMT width, default 4).
	MaxThreads int
	// Passes selects the pipelining passes (Fig. 6 ablations). Defaults to
	// all passes when zero-valued and EnableAblation is false.
	Passes passes.Options
	// EnableAblation uses Passes exactly as given (otherwise all passes run).
	EnableAblation bool
	// Machine is the build-target configuration.
	Machine arch.Config
	// Training supplies inputs for Autotune mode: each function receives a
	// candidate pipeline and a measurement budget and returns its cycle
	// count (or an error to skip).
	Training []TrainFunc
	// BudgetFactor scales the per-candidate budget relative to the serial
	// baseline: a candidate is aborted once it runs past factor x the serial
	// cycle count (0 = DefaultBudgetFactor; negative disables budgeting).
	BudgetFactor int
	// MaxCandidates bounds the candidate points considered per phase during
	// the search (default 5).
	MaxCandidates int
	// Parallelism bounds the candidate-search worker pool: up to this many
	// candidates build, verify, and measure concurrently, each on private
	// machines (0 = runtime.GOMAXPROCS(0), 1 = fully serial). Results merge
	// in enumeration order, so Result and Search output are identical for
	// every value.
	Parallelism int
	// Exhaustive disables branch-and-bound budget tightening: every
	// candidate is measured under the full BudgetFactor budget even after a
	// faster best is known. Landscape experiments (Fig. 13) set this to see
	// true cycle counts for slow candidates; the default search aborts them
	// with SkipBudget instead.
	Exhaustive bool
	// TopK, when > 0, statically ranks every unique candidate with the
	// internal/costmodel throughput predictor before any simulation and
	// measures only the TopK best-predicted configurations; the rest are
	// recorded as SkipPruned with their predicted rank and cycles. The
	// static pipeline is always retained as a fallback. 0 measures every
	// candidate; Exhaustive overrides TopK (the escape hatch really does
	// measure everything).
	TopK int
	// CommOpt is dead: it has no effect and is not part of the journal
	// key. The queue-capacity pass it enabled was measured to gain nothing
	// on either backend and deleted (DESIGN.md §14); every queue runs at
	// its author Depth or at Machine.QueueDepth. It stays only because
	// benchmark/ still sets it (ROADMAP item 2 deletes it).
	CommOpt bool
	// SkipVerify disables the static pipeline verifier that otherwise
	// rejects structurally broken pipelines before they reach a simulator
	// (use it to inspect or lint a deliberately broken build).
	SkipVerify bool
	// PostBuild, when set, is applied to every built pipeline before it is
	// verified or measured. It exists for fault injection in tests and for
	// `phloemc -lint` demonstrations; production callers leave it nil. With
	// Parallelism > 1 it is called from concurrent search workers (each on
	// its own candidate pipeline), so implementations must not touch shared
	// mutable state.
	PostBuild func(*pipeline.Pipeline)
	// Observer, when set, receives typed search-lifecycle events — one per
	// candidate state transition (enumerated, deduped, pruned, build,
	// verify, train, replay, accept, skip, cancel) plus the
	// search-level spans — with monotonic wall-time offsets and per-worker
	// attribution (see observer.go). Mirrors the sim.Probe contract: with a
	// nil Observer no timestamps are taken and every search output (winner,
	// counters, skips, SearchPoints, journal bytes) is bit-identical; with
	// one installed the stream is purely additive. Implementations must be
	// safe for concurrent use when Parallelism > 1 and must not block.
	// internal/obs provides the standard collector/progress observers.
	Observer Observer
	// Ctx, when non-nil, cancels compilation and the autotune search
	// cooperatively: the simulator polls it at amortized intervals, and in
	// Autotune mode a cancelled search returns a structured partial Result
	// — best-so-far incumbent, full counters, and every unmeasured
	// candidate tagged SkipCancelled — with a nil error. It is also the
	// only wall-clock bound: wrap it in context.WithTimeout, and expiry
	// behaves exactly like cancellation. A nil or background context
	// leaves results and Stats bit-identical.
	Ctx context.Context
	// Checkpoint, when non-empty, is the path of an append-only JSONL
	// journal recording each measured candidate's training outcome, keyed
	// by candidate fingerprint under a program/arch/options hash. An
	// interrupted search leaves its completed measurements behind; see
	// Resume.
	Checkpoint string
	// Resume replays measurements recorded in the Checkpoint journal
	// instead of re-simulating them, so an interrupted-then-resumed search
	// reproduces the uninterrupted winner, counters, skips, and
	// SearchPoint order byte-identically. A journal whose key does not
	// match the current program/arch/options — or whose tail is corrupt —
	// degrades gracefully to re-measurement; without Resume an existing
	// journal is truncated and rewritten.
	Resume bool

	// obsw is the resolved Observer emission state (nil = disabled),
	// threaded on the Options copy so build/verify sites deep in the flow
	// can emit spans; obsC is the candidate identity those sites attribute
	// their spans to. Both are set by resolve and the search engine, never
	// by callers.
	obsw *obsWriter
	obsC obsCand
}

// obsCand is the candidate identity (plus worker attribution) carried on an
// Options copy into buildCandidate/finishPipeline span emission.
type obsCand struct {
	seq    int
	phase  int
	subset []int
	fp     string
	worker int
}

// obsEvent seeds an event with the carried candidate identity.
func (o *Options) obsEvent(kind EventKind) SearchEvent {
	return SearchEvent{Kind: kind, Seq: o.obsC.seq, Phase: o.obsC.phase,
		Subset: o.obsC.subset, FP: o.obsC.fp, Worker: o.obsC.worker}
}

// resolve prepares an Options copy for one Compile or Search call: it fills
// the defaults and anchors the Observer clock. The error is the context's
// when Ctx is already done.
func (o *Options) resolve() error {
	if o.MaxThreads <= 0 {
		o.MaxThreads = 4
	}
	if o.Machine.Cores == 0 {
		o.Machine = arch.DefaultConfig(1)
	}
	if !o.EnableAblation {
		o.Passes = passes.Default()
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 5
	}
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return err
		}
	}
	// The obsWriter rides every Options copy so build/verify/measure sites
	// emit against one shared clock anchor.
	o.obsw = newObsWriter(o.Observer)
	o.obsC = obsCand{seq: -1, phase: -1}
	return nil
}

// candidates ranks every program phase's decoupling points with the static
// cost model (Sec. V).
func candidates(p *ir.Prog) ([]*analysis.Phase, [][]*analysis.Candidate) {
	an := analysis.New(p)
	phases := analysis.ProgramPhases(p.Body)
	cands := make([][]*analysis.Candidate, len(phases))
	for i, ph := range phases {
		cands[i] = an.Candidates(ph)
	}
	return phases, cands
}

// DefaultOptions returns an all-passes static compilation for the Table III
// machine.
func DefaultOptions() Options {
	return Options{
		MaxThreads: 4,
		Machine:    arch.DefaultConfig(1),
	}
}

// Result is a compiled pipeline plus how it was chosen.
type Result struct {
	Pipeline *pipeline.Pipeline
	Prog     *ir.Prog
	// Searched reports how many distinct pipelines the autotuner measured:
	// the serial baseline plus every unique candidate that built cleanly and
	// entered training (including ones the budget aborted mid-measurement).
	// Deduplicated candidates are never re-measured and do not count.
	Searched int
	// Deduped counts enumerated candidates whose configuration coincided
	// with an earlier candidate's (canonical fingerprint match) and reused
	// its memoized result instead of being rebuilt and re-measured.
	Deduped int
	// Enumerated is the total number of candidate configurations the search
	// walked (the static pipeline plus every per-phase subset, duplicates
	// included; the serial baseline is not a candidate).
	Enumerated int
	// Pruned counts unique candidates the Options.TopK rank phase excluded
	// from simulation (autotune mode only).
	Pruned int
	// RankMillis is the wall-clock time the TopK rank phase spent building
	// and statically pricing candidates, in milliseconds. Timing, not a
	// search result: it varies run to run and is excluded from determinism
	// comparisons.
	RankMillis int64
	// TrainCycles is the selected pipeline's summed training cycle count
	// (autotune mode only).
	TrainCycles uint64
	// ReplicateRequested carries the `#pragma replicate(N)` count; apply it
	// with pipeline.Replicate, supplying the shared arrays and per-replica
	// scalars (the replicate_arguments() analogue of Sec. IV-C).
	ReplicateRequested int
	// Skips records every candidate the autotuner dropped and why
	// (autotune mode only).
	Skips []CandidateSkip
	// Points records every unique candidate's outcome in enumeration order
	// (autotune mode only): measured training cycles or the skip, next to
	// the static cost model's prediction — so prediction error is auditable
	// from any autotune run without a separate Search pass. Deduplicated
	// occurrences are not repeated.
	Points []SearchPoint
	// Cancelled reports that the autotune search stopped early because
	// Options.Ctx was cancelled or its deadline expired. The Result is
	// still structurally complete: Pipeline is the best candidate measured
	// before the cut (at worst the serial fallback), counters cover every
	// enumerated candidate, and each unmeasured candidate is recorded in
	// Skips and Points with SkipCancelled.
	Cancelled bool
	// CancelCause is the context error behind a cancellation
	// (context.Canceled or context.DeadlineExceeded; nil otherwise).
	CancelCause error
	// Replayed counts measurements restored from the Options.Checkpoint
	// journal instead of simulated (the serial baseline counts too). Like
	// RankMillis this is execution metadata, not a search result, and is
	// excluded from determinism comparisons.
	Replayed int
	// AliasStats counts the effects analysis's parameter-pair verdicts
	// (CompileSource only; zero for hand-built programs).
	AliasStats effects.Stats
	// SourceWarnings carries non-fatal frontend diagnostics, e.g. array
	// parameters compiled without restrict because the effects analysis
	// proved them safe.
	SourceWarnings []effects.Warning
}

// CompileSource parses, checks, and lowers source, then builds a pipeline.
// Between Check and lowering it runs the memory-effects analysis: kernels
// whose array parameters may alias with an unprovable dependence are
// rejected here with a positioned E0 error; unannotated-but-proven-safe
// parameters compile with a warning on Result.SourceWarnings.
func CompileSource(src string, opt Options) (*Result, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: compile cancelled: %w", err)
		}
	}
	fn, err := source.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	if err := source.Check(fn); err != nil {
		return nil, fmt.Errorf("core: check: %w", err)
	}
	eff := effects.Analyze(fn)
	if err := eff.Err(); err != nil {
		return nil, fmt.Errorf("core: effects: %w", err)
	}
	p, err := lower.FromAnalysis(fn, eff)
	if err != nil {
		return nil, fmt.Errorf("core: lower: %w", err)
	}
	res, err := Compile(p, opt)
	if err != nil {
		return nil, err
	}
	res.AliasStats = eff.Stats
	res.SourceWarnings = eff.Warnings()
	return res, nil
}

// Compile builds a pipeline from an already-lowered program. No panic from
// the pass pipeline, verifier, or training runs escapes: anything recovered
// becomes an error.
func Compile(p *ir.Prog, opt Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: compile panicked: %v", r)
		}
	}()
	if err := opt.resolve(); err != nil {
		return nil, fmt.Errorf("core: compile cancelled: %w", err)
	}
	phases, cands := candidates(p)
	if opt.Mode == Autotune && len(opt.Training) > 0 {
		return autotune(p, phases, cands, opt)
	}
	return buildStatic(p, phases, cands, opt)
}

func buildCfg(opt Options) passes.BuildConfig {
	return passes.BuildConfig{
		MaxRAs:         opt.Machine.MaxRAs,
		ThreadsPerCore: opt.Machine.ThreadsPerCore,
	}
}

// staticCut selects the (N-1) highest-ranked points, dropping points whose
// predicted profit is negligible next to the top one (decoupling a nearly
// free access only adds queue traffic).
func staticCut(cs []*analysis.Candidate, maxThreads int) []*analysis.Candidate {
	// The static flow only decouples at freely movable loads; prefetch-only
	// boundaries (race-pinned loads) are left to the autotuner.
	var movable []*analysis.Candidate
	for _, c := range cs {
		if !c.PrefetchOnly {
			movable = append(movable, c)
		}
	}
	k := maxThreads - 1
	if k > len(movable) {
		k = len(movable)
	}
	cut := movable[:k]
	if len(cut) > 0 {
		thresh := cut[0].Rank / 100
		for len(cut) > 1 && cut[len(cut)-1].Rank < thresh {
			cut = cut[:len(cut)-1]
		}
	}
	return analysis.OrderPoints(cut)
}

// buildStatic picks the (N-1) highest-ranked points per phase; phases with
// `#pragma decouple` marks use the programmer's points instead (Table II).
func buildStatic(p *ir.Prog, phases []*analysis.Phase, cands [][]*analysis.Candidate, opt Options) (*Result, error) {
	opt.obsw.instant(SearchEvent{Kind: EvSearchStart, Seq: -1, Phase: -1, Mode: "static"})
	points := staticFullPoints(p, phases, cands, opt.MaxThreads)
	t0 := opt.obsw.now()
	pipe, err := passes.Build(p, points, opt.Passes, buildCfg(opt))
	if err != nil {
		return nil, err
	}
	opt.obsw.span(opt.obsEvent(EvBuild), t0)
	if err := finishPipeline(pipe, opt, &verify.Scratch{}); err != nil {
		return nil, err
	}
	opt.obsw.instant(SearchEvent{Kind: EvSearchEnd, Seq: -1, Phase: -1, Mode: "static"})
	return &Result{Pipeline: pipe, Prog: p, ReplicateRequested: p.Replicate}, nil
}

// finishPipeline lowers the pipeline's stages, applies the PostBuild hook
// and lowers again after it, and, unless SkipVerify is set, rejects
// pipelines the static verifier finds broken, checking in vs.
func finishPipeline(pipe *pipeline.Pipeline, opt Options, vs *verify.Scratch) error {
	pipeline.Lower(pipe)
	if opt.PostBuild != nil {
		opt.PostBuild(pipe)
		pipeline.Lower(pipe)
	}
	if opt.SkipVerify {
		return nil
	}
	t0 := opt.obsw.now()
	errs := vs.CheckErrors(pipe)
	opt.obsw.span(opt.obsEvent(EvVerify), t0)
	if len(errs) > 0 {
		msg := ""
		for _, d := range errs {
			msg += "\n  " + d.String()
		}
		return fmt.Errorf("core: pipeline %q %w:%s", pipe.Prog.Name, ErrVerify, msg)
	}
	return nil
}

// autotune enumerates candidate point subsets per phase (from the
// MaxCandidates highest-ranked), builds each pipeline, runs it on the
// training inputs, and returns the fastest (Sec. V, "Autotuning decoupling
// points"). Phases are tuned jointly when there is one phase (the common
// case); multi-phase programs tune each phase greedily against the others'
// static choices to keep the search tractable.
//
// The search driver in search.go, shared with Search, deduplicates
// coinciding configurations (the static pipeline is candidate zero, so an
// enumerated subset equal to the static cut is never re-measured),
// measures candidates on Options.Parallelism workers, and tightens the cycle
// budget to the best total seen so far — slower candidates abort with
// SkipBudget since they cannot win (disable with Options.Exhaustive).
//
// The search is crash-proof: the serial pipeline (measured first, and the
// source of the per-candidate budget) is a guaranteed-valid fallback best,
// every candidate build+measure runs under panic recovery, and each dropped
// candidate is recorded on Result.Skips with a structured reason.
func autotune(p *ir.Prog, phases []*analysis.Phase, cands [][]*analysis.Candidate, opt Options) (*Result, error) {
	r, err := search(p, phases, cands, opt, "autotune")
	if err != nil {
		return nil, err
	}
	res := &Result{Prog: p, Searched: 1, TrainCycles: r.serial,
		ReplicateRequested: p.Replicate, Enumerated: len(r.tasks),
		Pruned: r.pruned, RankMillis: r.rankMS, Replayed: r.replayed,
		Cancelled: r.cancelled != nil, CancelCause: r.cancelled}
	for i, t := range r.tasks {
		f := r.finals[i]
		if !f.dup {
			pt := SearchPoint{TotalStages: f.stages, Cycles: f.cycles,
				Subset: t.subset, Skip: f.skip, PredictedRank: t.predRank}
			if t.predOK {
				pt.PredictedCycles = t.predCycles
			}
			res.Points = append(res.Points, pt)
		}
		switch {
		case f.dup:
			res.Deduped++
			if f.skip != nil {
				res.Skips = append(res.Skips, *f.skip)
			}
		case f.skip != nil:
			if f.pipe != nil && f.skip.Reason != SkipPruned {
				// Built cleanly and entered measurement before failing.
				// (Pruned candidates were built by the rank phase but
				// never measured.)
				res.Searched++
			}
			res.Skips = append(res.Skips, *f.skip)
		default:
			res.Searched++
			if f.cycles < res.TrainCycles {
				res.TrainCycles, res.Pipeline = f.cycles, f.pipe
			}
		}
	}
	if res.Pipeline == nil {
		res.Pipeline = pipeline.NewSerial(p) // no candidate beat the serial program
	}
	return res, nil
}

// emitEnumerated reports every walked candidate configuration to the
// Observer, in enumeration order, before any ranking or measurement.
func emitEnumerated(opt Options, tasks []*candTask) {
	if opt.obsw == nil {
		return
	}
	for _, t := range tasks {
		opt.obsw.instant(SearchEvent{Kind: EvEnumerated, Seq: t.seq, Phase: t.phase,
			Subset: t.subset, FP: t.fp, Dup: t.dupOf >= 0})
	}
}

// build builds, verifies and prices the task's candidate pipeline under
// panic recovery, on a private clone of p, with a search worker's scratch.
// It records the cost model's estimate on the task (predOK stays false when
// the model cannot price the pipeline): the one pricing of a candidate.
func (t *candTask) build(p *ir.Prog, opt Options, sc *scratch) (pipe *pipeline.Pipeline, skip *CandidateSkip) {
	defer func() {
		if r := recover(); r != nil {
			pipe = nil
			skip = &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: SkipPanic, Err: &panicError{val: r}}
		}
	}()
	pipe, err := sc.build.Build(cloneProg(p), t.points, opt.Passes, buildCfg(opt))
	if err != nil {
		return nil, &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: SkipBuild, Err: err}
	}
	if err := finishPipeline(pipe, opt, &sc.verify); err != nil {
		return nil, &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: SkipVerifier, Err: err}
	}
	pred, err := sc.cost.Predict(pipe, opt.Machine)
	t.predCycles, t.predOK = pred, err == nil
	return pipe, nil
}

// SearchPoint is one measured (or skipped) candidate pipeline — the raw
// data behind Fig. 13.
type SearchPoint struct {
	TotalStages int
	Cycles      uint64
	Subset      []int
	// Skip is non-nil when the candidate was dropped instead of measured
	// (Cycles is then meaningless). Plot consumers filter on Skip == nil.
	Skip *CandidateSkip
	// PredictedCycles is the static cost model's estimate for this
	// configuration (abstract units, not simulator cycles; 0 when the
	// candidate failed to build). Recorded next to the measured cycles so
	// prediction error is auditable.
	PredictedCycles uint64
	// PredictedRank is this configuration's 1-based position when unique
	// configurations are ordered by PredictedCycles (duplicates share the
	// original's rank; 0 when the candidate failed to build).
	PredictedRank int
}

// Search enumerates and measures all candidate pipelines of a single-phase
// program, returning every point (used by the Fig. 13 experiment). Skipped
// candidates are returned too, with SearchPoint.Skip recording the reason.
// Like Compile, Search never lets a candidate panic escape.
func Search(p *ir.Prog, opt Options) (out []SearchPoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("core: search panicked: %v", r)
		}
	}()
	if err := opt.resolve(); err != nil {
		return nil, fmt.Errorf("core: search cancelled: %w", err)
	}
	phases, cands := candidates(p)
	// The serial pipeline is not a search point, so branch-and-bound starts
	// with no incumbent: the first measured candidate sets the bound.
	// Duplicated configurations still yield one point each (the landscape
	// has one dot per subset), resolved from the memoized original.
	r, err := search(p, phases, cands, opt, "search")
	if err != nil {
		return nil, err
	}
	// Stamp static predictions: without TopK the workers priced each unique
	// candidate as they built it, so ranks are assigned here; duplicates
	// inherit their original's prediction.
	var unique []*candTask
	for _, t := range r.tasks {
		if t.dupOf < 0 {
			unique = append(unique, t)
		}
	}
	assignRanks(unique)
	for i, t := range r.tasks {
		f := r.finals[i]
		pt := SearchPoint{TotalStages: f.stages, Subset: t.subset, Skip: f.skip}
		if f.skip == nil {
			pt.Cycles = f.cycles
		}
		root := t
		if t.dupOf >= 0 {
			root = r.tasks[t.dupOf]
		}
		if root.predOK {
			pt.PredictedCycles, pt.PredictedRank = root.predCycles, root.predRank
		}
		out = append(out, pt)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalStages < out[j].TotalStages })
	return out, nil
}

// subsets enumerates all non-empty subsets of {0..n-1} with size <= maxSize,
// in deterministic order. The exact subset count and total element count are
// binomial sums, so both the outer slice and a shared element arena are
// sized up front: the whole enumeration is three allocations.
func subsets(n, maxSize int) [][]int {
	if maxSize > n {
		maxSize = n
	}
	count, elems := 0, 0
	for k, c := 1, 1; k <= maxSize; k++ {
		c = c * (n - k + 1) / k // C(n, k)
		count += c
		elems += c * k
	}
	out := make([][]int, 0, count)
	arena := make([]int, 0, elems)
	cur := make([]int, 0, maxSize)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			at := len(arena)
			arena = append(arena, cur...)
			out = append(out, arena[at:len(arena):len(arena)])
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < n; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
