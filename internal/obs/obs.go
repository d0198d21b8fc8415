// Package obs is the observability toolkit for both levels of the system.
//
// Search level, over core.Options.Observer: a SearchCollector recording the
// full search-lifecycle event stream for metrics aggregation and Chrome
// trace export, a Progress writer rendering live search status to a
// terminal, and a Tee multiplexing several observers. Observers receive
// copies of search state through core.SearchEvent and can never change the
// search's winner, counters, skips, SearchPoints, or journal bytes; with no
// observer installed, core takes no timestamps at all (pinned by
// TestObserverNilBitIdentity).
//
// Simulator level, over sim.Probe: a SimCollector turning timing-simulator
// events into interval time-series (queue occupancy, cycle-breakdown deltas,
// accelerator load pressure), source-attributed stall profiles ("which line
// burned the cycles"), and Chrome trace_event JSON for stage-overlap
// inspection. With no probe installed the simulator pays one nil test per
// hook and produces bit-identical Stats. Everything a SimCollector records
// is a pure function of the deterministic simulation, so its exports are
// byte-identical across runs.
//
// Both Chrome traces share one encoder (chrome.go), and WriteFile is the one
// way the command-line tools write an artifact.
package obs

import (
	"io"
	"os"
	"sync"

	"phloem/internal/core"
)

// SearchCollector records every search-lifecycle event it observes. It is
// safe for concurrent use (worker spans arrive from pool goroutines when
// core.Options.Parallelism > 1) and never blocks beyond a short mutex hold.
//
// A SearchCollector observes exactly one Compile/Search call; aggregate with
// Metrics, export with WriteChromeTrace, or inspect the raw stream with
// Events.
type SearchCollector struct {
	mu     sync.Mutex
	events []core.SearchEvent
}

// NewSearchCollector returns an empty SearchCollector ready to install on
// core.Options.Observer.
func NewSearchCollector() *SearchCollector {
	return &SearchCollector{}
}

// Observe implements core.Observer.
func (c *SearchCollector) Observe(e core.SearchEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded stream in arrival order. At
// Parallelism 1 the order is canonical (one emitting goroutine); above that,
// worker spans interleave nondeterministically but merger verdicts are still
// in enumeration order relative to each other.
func (c *SearchCollector) Events() []core.SearchEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.SearchEvent(nil), c.events...)
}

// Len reports the number of recorded events.
func (c *SearchCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Metrics aggregates the recorded stream (see Aggregate).
func (c *SearchCollector) Metrics() *Metrics {
	return Aggregate(c.Events())
}

// Tee multiplexes one event stream to several observers, in order. A nil
// entry is skipped.
type Tee []core.Observer

// Observe implements core.Observer.
func (t Tee) Observe(e core.SearchEvent) {
	for _, o := range t {
		if o != nil {
			o.Observe(e)
		}
	}
}

// WriteFile creates path and fills it with write; path "-" writes to
// stdout instead. The file is closed on every path, and the first error wins.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
