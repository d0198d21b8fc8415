package core

// The candidate-search engine behind autotune and Search (Sec. V, Fig. 8).
// Both front doors resolve their Options the same way and run one driver,
// search: measure the serial baseline, enumerate, rank, then measure and
// merge. They differ only in whether the static pipeline leads the
// enumeration and the serial baseline seeds branch-and-bound (autotune), and
// in how they report the merged verdicts.
//
// Candidates are enumerated up front in a deterministic order, deduplicated
// by a canonical fingerprint, and measured by a pool of Options.Parallelism
// workers, each building and simulating its candidate on a private machine.
// Results are merged strictly in enumeration order, so best-pipeline
// selection, Result.Searched, Result.Skips, and Search's output are
// byte-identical to a serial run no matter how worker completions interleave.
//
// Three mechanisms cooperate:
//
//   - Dedup: a candidate's fingerprint is the canonical (phase,
//     ordered-points) key of its whole pipeline configuration. Coinciding
//     candidates (the static cut re-appearing in the enumeration, identical
//     subsets across phases) are built and measured once; later occurrences
//     resolve from the memo without touching a simulator.
//
//   - Branch-and-bound: each candidate's cycle budget starts at
//     serial x BudgetFactor but shrinks to the best total seen so far (a
//     candidate slower than the current best cannot win), so losing
//     candidates abort early with SkipBudget. Workers re-read the
//     best-so-far bound from an atomic before every training input; the
//     merger re-checks every result against the bound a strictly serial
//     search would have used at that candidate's enumeration index. Budget
//     verdicts are monotone in the bound and recorded canonically (see
//     errBudget), so completions and budget aborts finalize without
//     re-simulation; only a stale-bound deadlock/panic re-measures under
//     the exact bound. That keeps tightening deterministic.
//
//   - Isolation: pipeline construction appends fresh variables to the
//     program, so each worker builds against a shallow clone of the Prog
//     with its own Vars table. Clones share the (read-only) statement tree;
//     generated variable numbering is per-clone and therefore identical to a
//     serial run's for every candidate.
//
// The merger settles every candidate in enumeration order: its verdict
// event (Options.Observer) and its SearchPoint/skip record come out in the
// same order at every Parallelism.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"phloem/internal/analysis"
	"phloem/internal/costmodel"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
)

// searchRun is what one search leaves for its front door to report: every
// enumerated task with its merged verdict, index-aligned.
type searchRun struct {
	tasks     []*candTask
	finals    []*candFinal
	serial    uint64 // serial-baseline training cycles
	pruned    int
	rankMS    int64
	replayed  int   // journal entries replayed, the serial baseline included
	cancelled error // the context's error when Options.Ctx ended the search
}

// search runs the profile-guided flow shared by autotune and Search. mode
// ("autotune" or "search") names the flow in events and keys the journal:
// Search's bound sequence starts without an incumbent, so its entries never
// mix with autotune's.
func search(p *ir.Prog, phases []*analysis.Phase, cands [][]*analysis.Candidate, opt Options, mode string) (*searchRun, error) {
	opt.obsw.instant(SearchEvent{Kind: EvSearchStart, Seq: -1, Phase: -1, Mode: mode})
	jr, err := openJournal(p, opt, mode)
	if err != nil {
		return nil, err
	}
	defer jr.close()
	serial, err := baseline(p, opt, jr)
	if err != nil {
		return nil, err
	}
	tasks := &taskList{seen: map[string]int{}}
	best := noBest
	if mode == "autotune" {
		tasks.add(-1, nil, staticFullPoints(p, phases, cands, opt.MaxThreads))
		best = serial
	}
	tasks.enumerate(phases, cands, staticEnumPoints(cands, opt.MaxThreads),
		opt.MaxCandidates, opt.MaxThreads)
	emitEnumerated(opt, tasks.tasks)
	r := &searchRun{tasks: tasks.tasks, serial: serial}
	r.pruned, r.rankMS = rankAndPrune(p, opt, r.tasks)

	s := newSearcher(p, opt, candidateBudget(serial, opt.BudgetFactor), best, jr)
	r.finals = s.run(r.tasks)
	r.replayed = jr.replayCount()
	if opt.Ctx != nil {
		r.cancelled = opt.Ctx.Err()
	}
	end := SearchEvent{Kind: EvSearchEnd, Seq: -1, Phase: -1, Mode: mode, N: r.replayed}
	if s.best != noBest {
		end.Cycles = s.best
	}
	opt.obsw.instant(end)
	return r, nil
}

// baseline returns the serial program's summed training cycles, replayed
// from the journal when it holds them and measured (then journaled)
// otherwise.
func baseline(p *ir.Prog, opt Options, jr *journal) (uint64, error) {
	if c, ok := jr.serialCycles(); ok {
		opt.obsw.instant(SearchEvent{Kind: EvSerial, Seq: -1, Phase: -1, Cycles: c, Replayed: true})
		return c, nil
	}
	serial := pipeline.NewSerial(p)
	t0 := opt.obsw.now()
	var total uint64
	for _, train := range opt.Training {
		c, err := train(serial, Budget{Ctx: opt.Ctx})
		if err != nil {
			// The serial program itself fails (or the search was cancelled
			// before the baseline finished): nothing to tune against.
			return 0, fmt.Errorf("core: serial baseline failed training: %w", err)
		}
		total += c
	}
	jr.recordSerial(total)
	opt.obsw.span(SearchEvent{Kind: EvSerial, Seq: -1, Phase: -1, Cycles: total}, t0)
	return total, nil
}

// parallelism resolves Options.Parallelism: 0 defaults to GOMAXPROCS, 1 is
// the serial path.
func (o *Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// noBest marks "no finalized candidate yet" in the branch-and-bound state.
const noBest = ^uint64(0)

// candTask is one enumerated candidate pipeline configuration.
type candTask struct {
	seq    int   // enumeration index: the deterministic merge and tie-break key
	phase  int   // tuned phase (-1: the static pipeline)
	subset []int // indices into the phase's top candidates (nil for static)
	// points holds the full per-phase point configuration the build uses.
	points [][]*analysis.Candidate
	fp     string
	dupOf  int // seq of the first task with the same fingerprint (-1: unique)

	// Static-prediction state (filled by rankAndPrune for Options.TopK, or
	// lazily by runTask so SearchPoint predictions are always auditable).
	pipe       *pipeline.Pipeline // prebuilt by the rank phase (reused by runTask)
	buildSkip  *CandidateSkip     // rank-phase build/verify failure
	predCycles uint64             // costmodel estimate (meaningless when !predOK)
	predOK     bool
	predRank   int  // 1-based rank among unique tasks by prediction (0: unranked)
	pruned     bool // excluded from simulation by the TopK rank phase
}

// candOutcome is a worker's raw result for one unique task.
type candOutcome struct {
	seq  int
	pipe *pipeline.Pipeline
	skip *CandidateSkip // build/verify failure (pipe may be nil)
	// cycles is the summed training cycle count; on error it holds the
	// cycles accumulated before the failing input.
	cycles uint64
	merr   error  // measurement error (nil: measured to completion)
	bound  uint64 // budget bound the measurement ran under (0: unlimited)
	// replay is the checkpoint-journal entry this outcome was restored
	// from (nil: the candidate was actually simulated). A replayed entry
	// already holds a previous run's finalized verdict, so finalize takes
	// it verbatim.
	replay *journalEntry
}

// candFinal is a merged, deterministic per-candidate result.
type candFinal struct {
	pipe     *pipeline.Pipeline
	stages   int // pipe.TotalStages() when the build succeeded
	cycles   uint64
	skip     *CandidateSkip // non-nil: the candidate was dropped (cycles meaningless)
	dup      bool           // resolved from an earlier candidate's memoized result
	replayed bool           // verdict restored from the checkpoint journal
}

// fingerprint canonically identifies a pipeline configuration: for every
// phase, the ordered decoupling points by their stable load identity.
// Candidates enumerated from different directions (static cut, forced
// points, subset enumeration) that select the same loads get the same key.
func fingerprint(points [][]*analysis.Candidate) string {
	buf := make([]byte, 0, 16*len(points))
	for _, pts := range points {
		buf = append(buf, '|')
		for _, c := range pts {
			buf = strconv.AppendInt(buf, int64(c.Load.LoadID), 10)
			buf = append(buf, ',')
		}
	}
	return string(buf)
}

// cloneProg shallow-copies the program with a private Vars table. Pipeline
// construction appends temporaries via Prog.NewVar; giving every candidate
// its own copy (1) keeps concurrent builds race-free and (2) makes generated
// variable numbering independent of build order, so candidate pipelines are
// identical to a serial run's.
func cloneProg(p *ir.Prog) *ir.Prog {
	q := *p
	q.Vars = make([]ir.VarInfo, len(p.Vars))
	copy(q.Vars, p.Vars)
	return &q
}

// searcher runs candidate tasks and merges their results deterministically.
type searcher struct {
	p   *ir.Prog
	opt Options
	// base is the per-candidate budget derived from the serial baseline,
	// carrying opt.Ctx: once it is done, remaining candidates skip with
	// SkipCancelled instead of being measured.
	base    Budget
	tighten bool // branch-and-bound: shrink the bound to the best so far
	// best is the best finalized training cycle count (merger-owned).
	best uint64
	// bound is min(base.Cycles, best), republished after every finalize for
	// in-flight workers; it only ever decreases, and because the merger
	// finalizes in enumeration order, any value a worker reads is >= the
	// bound a strictly serial search would use for that candidate.
	bound atomic.Uint64
	// journal, when non-nil, replays previously recorded measurements and
	// records new ones (Options.Checkpoint/Resume).
	journal *journal
}

func newSearcher(p *ir.Prog, opt Options, base Budget, initialBest uint64, jr *journal) *searcher {
	base.Ctx = opt.Ctx
	s := &searcher{
		p:       p,
		opt:     opt,
		base:    base,
		tighten: opt.BudgetFactor >= 0 && !opt.Exhaustive,
		best:    initialBest,
		journal: jr,
	}
	s.bound.Store(s.exactBound())
	return s
}

// exactBound is the budget a strictly serial search would apply to the next
// candidate: the factor-derived base, tightened to the best finalized total.
func (s *searcher) exactBound() uint64 {
	b := s.base.Cycles
	if s.tighten && s.best != noBest && (b == 0 || s.best < b) {
		b = s.best
	}
	return b
}

// runTask builds, verifies, and measures one unique candidate on a private
// program clone. Safe to call from multiple goroutines concurrently. The
// bound is re-read from the atomic before every training input, so long
// measurements pick up tightening published mid-flight; o.bound records the
// first read — the loosest value any part of the measurement ran under.
func (s *searcher) runTask(t *candTask, worker int) *candOutcome {
	o := &candOutcome{seq: t.seq}
	opt := s.opt
	opt.obsC = obsCand{seq: t.seq, phase: t.phase, subset: t.subset, fp: t.fp, worker: worker}
	if ctx := s.base.Ctx; ctx != nil && ctx.Err() != nil {
		// Cancelled before this candidate was touched: skip without
		// building (pipe stays nil, so it never counts as searched).
		o.skip = &CandidateSkip{Phase: t.phase, Subset: t.subset,
			Reason: SkipCancelled, Err: errCancelled}
		return o
	}
	pipe, skip := t.pipe, t.buildSkip
	if pipe == nil && skip == nil {
		t0 := opt.obsw.now()
		pipe, skip = buildCandidate(cloneProg(s.p), t.phase, t.subset, t.points, opt)
		e := opt.obsEvent(EvBuild)
		if skip != nil {
			e.Err = skip.Err
		}
		opt.obsw.span(e, t0)
	}
	if skip != nil {
		o.skip = skip
		return o
	}
	o.pipe = pipe
	if !t.predOK {
		// No rank phase ran for this task: price it here so prediction
		// error stays auditable next to the measured cycles. Writing the
		// task is race-free — exactly one worker owns an unranked task, and
		// the channel send below orders the write before the merger reads.
		if rep, err := costmodel.Analyze(pipe, opt.Machine); err == nil {
			t.predCycles, t.predOK = rep.Predicted, true
		}
	}
	if e, ok := s.journal.lookup(t.fp); ok {
		// A previous run already finalized this candidate's measurement;
		// replay the verdict instead of simulating.
		o.replay = e
		re := opt.obsEvent(EvReplay)
		re.Cycles, re.Replayed = e.Cycles, true
		if e.Reason != "" {
			re.Err = replaySkip(t, e).Err
		}
		opt.obsw.instant(re)
		return o
	}
	o.bound = s.bound.Load()
	first := true
	t0 := opt.obsw.now()
	o.cycles, o.merr = tryMeasure(pipe, opt, s.base, func() uint64 {
		if first {
			first = false
			return o.bound
		}
		return s.bound.Load()
	})
	te := opt.obsEvent(EvTrain)
	te.Cycles, te.Err = o.cycles, o.merr
	opt.obsw.span(te, t0)
	return o
}

// skipFor builds a candidate's skip record, canonicalizing cycle-budget
// failures to errBudget (see its doc for why budget records carry no cycle
// counts).
func skipFor(t *candTask, err error) *CandidateSkip {
	r := classify(err)
	if r == SkipBudget && errors.Is(err, sim.ErrCycleBudget) {
		err = errBudget
	}
	if r == SkipCancelled {
		// Cancellation records are canonical too: where exactly a worker
		// observed the cancel is scheduling noise, not a search result.
		err = errCancelled
	}
	return &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: r, Err: err}
}

// finalize converts a raw outcome into the deterministic result for its
// enumeration slot. The worker may have measured under a looser bound than a
// serial search would have used (the bound tightens while candidates are in
// flight, and the merger's publishes always trail its finalize order), never
// a tighter one. Almost every outcome is decidable from that invariant
// without touching a simulator:
//
//   - A completion strictly under the exact bound is verbatim (a tighter
//     budget only aborts runs, and at cycles == bound the machine's
//     `now >= budget` check fires before the done check).
//   - A completion at or above the exact bound means the serial order would
//     have aborted it: record the canonical budget skip.
//   - A cycle-budget abort under any bound >= the exact one implies an abort
//     under the exact bound (monotone), and the record is canonical.
//   - Non-budget failures are verbatim when the bound was exact, or when the
//     failure is budget-independent (functional trap / trace limit) and
//     every earlier input fit under the exact bound.
//
// Only the remaining sliver — a timing-phase deadlock, panic, or verify
// mismatch observed under a stale bound — re-measures under the exact bound.
// That case never arises at Parallelism 1, where the observed bound is
// always exact.
func (s *searcher) finalize(t *candTask, o *candOutcome) *candFinal {
	if o.skip != nil {
		return &candFinal{skip: o.skip}
	}
	f := &candFinal{pipe: o.pipe, stages: o.pipe.TotalStages()}
	if o.replay != nil {
		// A journal entry is a previous run's *finalized* verdict for this
		// candidate, recorded under an identical key — same enumeration
		// order, same bound sequence — so it is taken verbatim.
		f.replayed = true
		if o.replay.Reason == "" {
			f.cycles = o.replay.Cycles
		} else {
			f.skip = replaySkip(t, o.replay)
		}
		return f
	}
	bound := s.exactBound()
	switch {
	case o.merr == nil && (bound == 0 || o.cycles < bound):
		f.cycles = o.cycles
	case o.merr == nil || errors.Is(o.merr, sim.ErrCycleBudget):
		f.skip = skipFor(t, errBudget)
	case o.bound == bound,
		errors.Is(o.merr, sim.ErrCancelled),
		timingIndependent(o.merr) && o.cycles < bound:
		f.skip = skipFor(t, o.merr)
	case bound > 0 && o.cycles >= bound:
		// The failing input is one a bound-exact run never reaches: the
		// inputs before it already exhaust the exact budget.
		f.skip = skipFor(t, errBudget)
	default:
		t0 := s.opt.obsw.now()
		cycles, err := tryMeasure(o.pipe, s.opt, s.base, func() uint64 { return bound })
		s.opt.obsw.span(SearchEvent{Kind: EvTrain, Seq: t.seq, Phase: t.phase,
			Subset: t.subset, FP: t.fp, Cycles: cycles, Err: err}, t0)
		if err != nil {
			f.skip = skipFor(t, err)
		} else {
			f.cycles = cycles
		}
	}
	return f
}

// merge updates the branch-and-bound state with a finalized result and
// journals its measurement verdict.
func (s *searcher) merge(t *candTask, f *candFinal) {
	if f.skip == nil && f.cycles < s.best {
		s.best = f.cycles
		s.bound.Store(s.exactBound())
	}
	s.journal.record(t.fp, f)
}

// dupFinal resolves a duplicate task from the original's memoized result:
// same measurement (or failure), flagged as deduplicated.
func dupFinal(t *candTask, orig *candFinal) *candFinal {
	f := *orig
	f.dup = true
	if orig.skip != nil {
		sk := *orig.skip
		sk.Phase, sk.Subset = t.phase, t.subset
		f.skip = &sk
	}
	return &f
}

// prunedFinal records a candidate the rank phase excluded from simulation:
// the prebuilt pipeline and static prediction survive for auditing, but no
// simulator ever ran.
func (s *searcher) prunedFinal(t *candTask) *candFinal {
	return &candFinal{
		pipe:   t.pipe,
		stages: t.pipe.TotalStages(),
		skip: &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: SkipPruned,
			Err: fmt.Errorf("statically pruned: predicted rank %d (%d predicted cycles) outside top-%d",
				t.predRank, t.predCycles, s.opt.TopK)},
	}
}

// run measures every task and settles each exactly once, strictly in
// enumeration order, returning the merged verdicts index-aligned with tasks.
// Duplicates and statically pruned candidates resolve without a worker. With
// parallelism 1 (or a single runnable task) every task settles inline on the
// calling goroutine — the serial path.
func (s *searcher) run(tasks []*candTask) []*candFinal {
	finals := make([]*candFinal, len(tasks))
	runnable := 0
	for _, t := range tasks {
		if t.dupOf < 0 && !t.pruned {
			runnable++
		}
	}
	// local resolves tasks that never reach a worker; nil means the task
	// must build and measure.
	local := func(t *candTask) *candFinal {
		if t.dupOf >= 0 {
			// The original has a lower seq and was finalized earlier.
			return dupFinal(t, finals[t.dupOf])
		}
		if t.pruned {
			return s.prunedFinal(t)
		}
		return nil
	}
	settle := func(t *candTask, f *candFinal) {
		if !f.dup {
			s.merge(t, f)
		}
		finals[t.seq] = f
		s.opt.obsw.instant(finalEvent(t, f))
	}

	// Head start: when a pool will run, measure the first runnable task
	// inline before it spins up. The merger finalizes it first anyway, so
	// this changes nothing observable — but its finalized cycles tighten the
	// shared bound (in autotune it is the static pipeline, usually close to
	// the eventual best) before any worker reads it, so the pool never burns
	// the loose initial budget on candidates the serial order prunes
	// cheaply.
	pool := min(s.opt.parallelism(), runnable) > 1
	i, measured := 0, false
	for ; i < len(tasks); i++ {
		t := tasks[i]
		f := local(t)
		if f == nil {
			if pool && measured {
				break
			}
			f, measured = s.finalize(t, s.runTask(t, 0)), true
		}
		settle(t, f)
	}
	rest := tasks[i:]
	if len(rest) == 0 {
		return finals
	}

	nw := min(s.opt.parallelism(), runnable-1)
	work := make(chan *candTask, len(rest))
	outs := make(chan *candOutcome, len(rest))
	for w := 1; w <= nw; w++ {
		go func(id int) {
			for t := range work {
				outs <- s.runTask(t, id)
			}
		}(w)
	}
	for _, t := range rest {
		if t.dupOf < 0 && !t.pruned {
			work <- t
		}
	}
	close(work)

	pending := make(map[int]*candOutcome)
	for _, t := range rest {
		f := local(t)
		if f == nil {
			o := pending[t.seq]
			for o == nil {
				got := <-outs
				if got.seq == t.seq {
					o = got
				} else {
					pending[got.seq] = got
				}
			}
			delete(pending, t.seq)
			f = s.finalize(t, o)
		}
		settle(t, f)
	}
	return finals
}

// assignRanks orders the unique tasks by static prediction (buildable
// before unbuildable, then predicted cycles, then enumeration order) and
// stamps each with its 1-based predicted rank. Returns the ordering.
func assignRanks(unique []*candTask) []*candTask {
	order := append([]*candTask(nil), unique...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.predOK != b.predOK {
			return a.predOK
		}
		if a.predCycles != b.predCycles {
			return a.predCycles < b.predCycles
		}
		return a.seq < b.seq
	})
	for i, t := range order {
		t.predRank = i + 1
	}
	return order
}

// rankAndPrune statically builds and prices every unique candidate with the
// cost model and, when Options.TopK is in effect, marks all but the TopK
// best-predicted as pruned. The first task (autotune's static pipeline, the
// search engine's head start) is always retained, displacing the worst
// retained candidate if necessary. Build/verify failures rank after every
// buildable candidate and are never marked pruned: their structured skip is
// more informative than a prune record, and they cost no simulation.
//
// Runs on one goroutine before the worker pool, so prune decisions — and
// therefore search results — are identical for every Options.Parallelism.
// The prebuilt pipelines are kept on the tasks and reused by runTask.
func rankAndPrune(p *ir.Prog, opt Options, tasks []*candTask) (pruned int, millis int64) {
	if opt.TopK <= 0 || opt.Exhaustive || len(tasks) == 0 {
		return 0, 0
	}
	start := time.Now()
	rank0 := opt.obsw.now()
	defer func() {
		e := SearchEvent{Kind: EvRank, Seq: -1, Phase: -1, N: pruned}
		opt.obsw.span(e, rank0)
	}()
	var unique []*candTask
	for _, t := range tasks {
		if t.dupOf < 0 {
			unique = append(unique, t)
		}
	}
	for _, t := range unique {
		opt.obsC = obsCand{seq: t.seq, phase: t.phase, subset: t.subset, fp: t.fp}
		t0 := opt.obsw.now()
		t.pipe, t.buildSkip = buildCandidate(cloneProg(p), t.phase, t.subset, t.points, opt)
		e := opt.obsEvent(EvBuild)
		if t.buildSkip != nil {
			e.Err = t.buildSkip.Err
		}
		opt.obsw.span(e, t0)
		if t.buildSkip != nil {
			continue
		}
		if rep, err := costmodel.Analyze(t.pipe, opt.Machine); err == nil {
			t.predCycles, t.predOK = rep.Predicted, true
		}
	}
	order := assignRanks(unique)
	if opt.TopK >= len(unique) {
		return 0, time.Since(start).Milliseconds()
	}
	for _, t := range order[opt.TopK:] {
		if t.buildSkip == nil {
			t.pruned = true
			pruned++
		}
	}
	if head := tasks[0]; head.pruned {
		head.pruned = false
		pruned--
		for i := opt.TopK - 1; i >= 0; i-- {
			if t := order[i]; t.buildSkip == nil {
				t.pruned = true
				pruned++
				break
			}
		}
	}
	return pruned, time.Since(start).Milliseconds()
}

// taskList accumulates candidate tasks, assigning sequence numbers and
// fingerprint-deduplicating (in enumeration order, on one goroutine).
type taskList struct {
	seen  map[string]int
	tasks []*candTask
}

func (l *taskList) add(phase int, subset []int, points [][]*analysis.Candidate) {
	t := &candTask{seq: len(l.tasks), phase: phase, subset: subset, points: points,
		fp: fingerprint(points), dupOf: -1}
	if orig, ok := l.seen[t.fp]; ok {
		t.dupOf = orig
	} else {
		l.seen[t.fp] = t.seq
	}
	l.tasks = append(l.tasks, t)
}

// enumerate appends the per-phase candidate subsets (the MaxCandidates
// highest-ranked points choose up to MaxThreads-1) with all other phases
// pinned to their static cut — the same walk autotune and Search share.
func (l *taskList) enumerate(phases []*analysis.Phase, cands, staticEnum [][]*analysis.Candidate, maxCandidates, maxThreads int) {
	for pi := range phases {
		top := cands[pi]
		if len(top) > maxCandidates {
			top = top[:maxCandidates]
		}
		pts := make([]*analysis.Candidate, 0, maxThreads-1)
		for _, subset := range subsets(len(top), maxThreads-1) {
			pts = pts[:0]
			for _, idx := range subset {
				pts = append(pts, top[idx])
			}
			points := make([][]*analysis.Candidate, len(cands))
			copy(points, staticEnum)
			points[pi] = analysis.OrderPoints(pts)
			l.add(pi, subset, points)
		}
	}
}

// staticEnumPoints is the per-phase static cut every enumerated candidate
// pins its non-tuned phases to, computed once per search.
func staticEnumPoints(cands [][]*analysis.Candidate, maxThreads int) [][]*analysis.Candidate {
	out := make([][]*analysis.Candidate, len(cands))
	for i, cs := range cands {
		out[i] = staticCut(cs, maxThreads)
	}
	return out
}

// staticFullPoints is the static pipeline's configuration — what
// buildStatic builds and autotune measures as candidate zero: forced
// (#pragma decouple) points where present, the static cut elsewhere.
func staticFullPoints(p *ir.Prog, phases []*analysis.Phase, cands [][]*analysis.Candidate, maxThreads int) [][]*analysis.Candidate {
	an := analysis.New(p)
	out := make([][]*analysis.Candidate, len(cands))
	for i, cs := range cands {
		if forced := an.ForcedPoints(phases[i]); len(forced) > 0 {
			out[i] = forced
			continue
		}
		out[i] = staticCut(cs, maxThreads)
	}
	return out
}
