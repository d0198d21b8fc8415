package core

// The search-observability hook behind Options.Observer: typed per-candidate
// lifecycle events with monotonic wall-time spans and per-worker attribution,
// mirroring the nil-probe-is-bit-identical design of sim.Probe. With no
// observer installed the search pays one nil test per emission site, takes no
// timestamps, and produces byte-identical results; with one installed the
// event stream is purely additive — observers receive copies of search state
// and can never change the winner, counters, skips, SearchPoints, or journal
// bytes (pinned by tests in internal/obs).
//
// Event taxonomy (one candidate's lifecycle, in causal order):
//
//	EvEnumerated -> [EvDeduped | EvPruned]                (never measured)
//	             -> EvBuild -> EvCommOpt? -> EvVerify     (worker spans)
//	             -> [EvReplay | EvTrain]                  (measure or journal)
//	             -> [EvAccept | EvSkip | EvCancel]        (merger verdict)
//
// plus the search-level events EvSearchStart, EvSerial, EvRank, and
// EvSearchEnd. Span events (EvSerial, EvRank, EvBuild, EvCommOpt, EvVerify,
// EvTrain) carry Start < End monotonic offsets from EvSearchStart; verdict
// events are instants (Start == End == emission time).
//
// Ordering contract: verdict events (EvDeduped, EvPruned, EvAccept, EvSkip,
// EvCancel) are emitted by the merger strictly in enumeration order at every
// Options.Parallelism. Worker spans are emitted as they complete, so their
// interleaving is scheduling-dependent when Parallelism > 1 — but at
// Parallelism 1 the whole stream is emitted from one goroutine in one
// canonical order, byte-identical across runs once timestamps are masked.
// Observers must be safe for concurrent use when Parallelism > 1.

import (
	"time"
)

// EventKind classifies one SearchEvent.
type EventKind int

const (
	// EvSearchStart opens a compile/search: Mode is "autotune", "search",
	// or "static". Always the first event.
	EvSearchStart EventKind = iota
	// EvSerial spans the serial-baseline measurement (Cycles; Replayed when
	// restored from a checkpoint journal instead of simulated).
	EvSerial
	// EvEnumerated records one walked candidate configuration (Seq, Phase,
	// Subset, FP; Dup when its fingerprint coincides with an earlier task).
	EvEnumerated
	// EvRank spans the Options.TopK static rank phase; N is the number of
	// candidates pruned.
	EvRank
	// EvBuild spans one candidate's pass-pipeline build (Worker attributes
	// it; rank-phase builds run on worker 0).
	EvBuild
	// EvCommOpt spans the candidate's queue-communication optimization pass
	// (only when Options.CommOpt is enabled).
	EvCommOpt
	// EvVerify spans the candidate's static verification.
	EvVerify
	// EvTrain spans one candidate measurement over every training input
	// (Cycles holds the accumulated count; Err the measurement failure, if
	// any — the merger's canonical verdict may still differ).
	EvTrain
	// EvReplay records a candidate verdict restored from the checkpoint
	// journal instead of simulated (Cycles, or Err for a journaled skip).
	EvReplay
	// EvDeduped is the merger's verdict for a fingerprint-duplicate
	// candidate: resolved from the original's memoized result.
	EvDeduped
	// EvPruned is the merger's verdict for a candidate the TopK rank phase
	// excluded from simulation (PredRank/Pred carry the static prediction).
	EvPruned
	// EvAccept is the merger's verdict for a measured candidate: Cycles is
	// the finalized training total (Replayed when it came from the journal).
	EvAccept
	// EvSkip is the merger's verdict for a dropped candidate (Skip holds the
	// structured reason; cancellations use EvCancel instead).
	EvSkip
	// EvCancel is the merger's verdict for a candidate the cancelled search
	// never finished (Options.Ctx / Deadline).
	EvCancel
	// EvSearchEnd closes the stream: Cycles is the winner's training total
	// (0 in static mode), N the number of journal-replayed measurements.
	EvSearchEnd
)

// String names the kind for rendering and aggregation keys.
func (k EventKind) String() string {
	switch k {
	case EvSearchStart:
		return "search-start"
	case EvSerial:
		return "serial"
	case EvEnumerated:
		return "enumerated"
	case EvRank:
		return "rank"
	case EvBuild:
		return "build"
	case EvCommOpt:
		return "commopt"
	case EvVerify:
		return "verify"
	case EvTrain:
		return "train"
	case EvReplay:
		return "replay"
	case EvDeduped:
		return "deduped"
	case EvPruned:
		return "pruned"
	case EvAccept:
		return "accept"
	case EvSkip:
		return "skip"
	case EvCancel:
		return "cancel"
	case EvSearchEnd:
		return "search-end"
	}
	return "unknown"
}

// SearchEvent is one observed search-lifecycle event. Field relevance
// depends on Kind (see the EventKind docs); Subset is shared with the search
// engine and must not be mutated.
type SearchEvent struct {
	Kind EventKind
	// Seq is the candidate's enumeration index (-1 for search-level events
	// and the static-compile flow).
	Seq int
	// Phase is the tuned phase (-1 for the static pipeline and search-level
	// events).
	Phase int
	// Subset indexes the phase's top-ranked points (nil for the static
	// pipeline).
	Subset []int
	// FP is the candidate's canonical configuration fingerprint — the same
	// key the dedup table and checkpoint journal use.
	FP string
	// Worker attributes the event to a search worker: 0 is the merger /
	// serial goroutine, 1..Parallelism are pool workers.
	Worker int
	// Start and End are monotonic offsets from EvSearchStart. Span events
	// have Start < End; instants have Start == End.
	Start, End time.Duration
	// Cycles is the measured (or replayed) training cycle count where the
	// Kind defines one.
	Cycles uint64
	// Skip is the structured verdict behind EvSkip/EvCancel.
	Skip *CandidateSkip
	// Dup marks an EvEnumerated configuration whose fingerprint coincides
	// with an earlier candidate's.
	Dup bool
	// Replayed marks verdicts restored from the checkpoint journal.
	Replayed bool
	// Pred and PredRank carry the static cost-model prediction where known.
	Pred     uint64
	PredRank int
	// N is a kind-specific count (EvRank: pruned candidates; EvSearchEnd:
	// journal-replayed measurements).
	N int
	// Mode is the flow on EvSearchStart/EvSearchEnd: "autotune", "search",
	// or "static".
	Mode string
	// Err is the raw failure behind EvTrain/EvReplay (the merger's
	// canonical verdict arrives separately on EvSkip).
	Err error
}

// Observer receives search-lifecycle events. Implementations must be safe
// for concurrent use when Options.Parallelism > 1 (worker spans are emitted
// from pool goroutines) and must not block: emission is synchronous on the
// search's critical path. internal/obs provides the standard implementations
// (Collector, Progress, Tee).
type Observer interface {
	Observe(SearchEvent)
}

// obsWriter is the resolved emission state: the installed observer plus the
// monotonic anchor every span offset is measured from. A nil *obsWriter is
// the disabled path — every method is safe and free on nil, so emission
// sites cost one pointer test when no observer is installed.
type obsWriter struct {
	obs    Observer
	anchor time.Time
}

// newObsWriter anchors the stream's clock; returns nil when obs is nil.
func newObsWriter(obs Observer) *obsWriter {
	if obs == nil {
		return nil
	}
	return &obsWriter{obs: obs, anchor: time.Now()}
}

// now is the current monotonic offset (0 when disabled — never call time.Now
// on the nil path).
func (o *obsWriter) now() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.anchor)
}

// instant emits a zero-width event stamped at the current offset.
func (o *obsWriter) instant(e SearchEvent) {
	if o == nil {
		return
	}
	t := o.now()
	e.Start, e.End = t, t
	o.obs.Observe(e)
}

// span emits a completed span from start to now.
func (o *obsWriter) span(e SearchEvent, start time.Duration) {
	if o == nil {
		return
	}
	e.Start, e.End = start, o.now()
	o.obs.Observe(e)
}

// finalEvent classifies a merged candidate verdict into its event kind.
func finalEvent(t *candTask, f *candFinal) SearchEvent {
	e := SearchEvent{Seq: t.seq, Phase: t.phase, Subset: t.subset, FP: t.fp,
		Pred: t.predCycles, PredRank: t.predRank}
	if !t.predOK {
		e.Pred = 0
	}
	switch {
	case f.dup:
		e.Kind = EvDeduped
	case f.skip != nil && f.skip.Reason == SkipPruned:
		e.Kind = EvPruned
	case f.skip != nil && f.skip.Reason == SkipCancelled:
		e.Kind = EvCancel
		e.Skip = f.skip
	case f.skip != nil:
		e.Kind = EvSkip
		e.Skip = f.skip
	default:
		e.Kind = EvAccept
		e.Cycles = f.cycles
	}
	e.Replayed = f.replayed
	return e
}
