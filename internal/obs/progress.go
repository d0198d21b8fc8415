package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"phloem/internal/core"
)

// Progress renders live search status to a terminal writer (one
// carriage-return-rewritten line, finalized with a summary on EvSearchEnd).
// The denominator is the number of candidates the search will actually
// measure — unique configurations minus the cost model's TopK prunes — so
// the ETA is honest about work the rank phase already discarded. Elapsed
// time and the ETA derive from event offsets (the search's own monotonic
// clock); Progress itself never reads a clock.
//
// Safe for concurrent use; install directly or Tee it with a SearchCollector.
type Progress struct {
	mu   sync.Mutex
	w    io.Writer
	mode string

	enumerated, unique int
	deduped, pruned    int
	measured, denom    int
	replays            int
	best               uint64
	serial             uint64

	ranked   bool // rank phase done: denom is final
	lastLine time.Duration
	width    int // widest line written, for clean rewrites
	done     bool
}

// NewProgress returns a Progress writing to w (typically os.Stderr).
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w}
}

// minRedraw throttles line rewrites to one per 50ms of search time.
const minRedraw = 50 * time.Millisecond

// Observe implements core.Observer.
func (p *Progress) Observe(e core.SearchEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case core.EvSearchStart:
		p.mode = e.Mode
	case core.EvSerial:
		p.serial = e.Cycles
		if e.Replayed {
			fmt.Fprintf(p.w, "%s: serial baseline %d cycles (replayed from checkpoint)\n",
				p.mode, e.Cycles)
		} else {
			fmt.Fprintf(p.w, "%s: serial baseline %d cycles\n", p.mode, e.Cycles)
		}
	case core.EvEnumerated:
		p.enumerated++
		if !e.Dup {
			p.unique++
		}
		p.denom = p.unique
	case core.EvRank:
		p.ranked = true
		p.denom = p.unique - e.N
	case core.EvReplay:
		p.replays++
	case core.EvDeduped:
		p.deduped++
	case core.EvPruned:
		p.pruned++
		if !p.ranked {
			p.denom--
		}
	case core.EvAccept:
		p.measured++
		if p.best == 0 || e.Cycles < p.best {
			p.best = e.Cycles
		}
		p.redraw(e.End, false)
	case core.EvSkip, core.EvCancel:
		p.measured++
		p.redraw(e.End, false)
	case core.EvSearchEnd:
		p.finish(e)
	}
}

// redraw rewrites the status line in place (throttled unless forced).
func (p *Progress) redraw(at time.Duration, force bool) {
	if p.done || (!force && at-p.lastLine < minRedraw && p.measured < p.denom) {
		return
	}
	p.lastLine = at
	line := fmt.Sprintf("%s: %d/%d measured", p.mode, p.measured, p.denom)
	if p.deduped > 0 {
		line += fmt.Sprintf(", %d deduped", p.deduped)
	}
	if p.pruned > 0 {
		line += fmt.Sprintf(", %d pruned", p.pruned)
	}
	if p.replays > 0 {
		line += fmt.Sprintf(", %d replayed", p.replays)
	}
	if p.best > 0 {
		line += fmt.Sprintf(", best %d cycles", p.best)
	}
	if eta := p.eta(at); eta >= 0 {
		line += fmt.Sprintf(", ETA %s", eta.Round(100*time.Millisecond))
	}
	pad := p.width - len(line)
	if pad < 0 {
		pad = 0
		p.width = len(line)
	}
	fmt.Fprintf(p.w, "\r%s%*s", line, pad, "")
}

// eta extrapolates remaining wall time from measured candidates so far
// (-1: not enough signal yet).
func (p *Progress) eta(at time.Duration) time.Duration {
	if p.measured == 0 || p.measured >= p.denom || at <= 0 {
		return -1
	}
	per := at / time.Duration(p.measured)
	return per * time.Duration(p.denom-p.measured)
}

// finish completes the status line with the search's outcome.
func (p *Progress) finish(e core.SearchEvent) {
	if p.done {
		return
	}
	p.done = true
	p.redrawFinal(e)
}

func (p *Progress) redrawFinal(e core.SearchEvent) {
	line := fmt.Sprintf("%s: done — %d/%d measured, %d deduped, %d pruned, best %d cycles in %s",
		p.mode, p.measured, p.denom, p.deduped, p.pruned, e.Cycles,
		e.End.Round(time.Millisecond))
	pad := p.width - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.w, "\r%s%*s\n", line, pad, "")
	if e.N > 0 {
		fmt.Fprintf(p.w, "%s: replayed %d measurement(s) from the checkpoint journal\n",
			p.mode, e.N)
	}
}
