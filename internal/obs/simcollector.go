package obs

import (
	"phloem/internal/sim"
)

// stageInfo captures what the collector needs about one stage thread.
type stageInfo struct {
	name  string
	core  int
	slot  int
	lines []int32 // per-PC source lines (nil: untracked program)
}

// raInfo captures one reference accelerator.
type raInfo struct {
	name string
	core int
}

// span is a closed activity interval of one thread, in cycles.
type span struct {
	thread int
	state  sim.StallClass
	start  uint64
	end    uint64
}

// instant is a point event (handler fire) on one thread.
type instant struct {
	thread int
	pc     int
	at     uint64
}

// queueTrack integrates one queue's occupancy over the current sample
// window (time-weighted, so the average is exact, not event-weighted).
type queueTrack struct {
	cur      int
	min, max int
	lastAt   uint64
	winStart uint64
	integral uint64 // sum of len*cycles since winStart
}

func (qt *queueTrack) observe(ln int, now uint64) {
	if now > qt.lastAt {
		qt.integral += uint64(qt.cur) * (now - qt.lastAt)
		qt.lastAt = now
	}
	qt.cur = ln
	if ln < qt.min {
		qt.min = ln
	}
	if ln > qt.max {
		qt.max = ln
	}
}

// close finishes the window at cycle now and returns (min, max, avg).
func (qt *queueTrack) close(now uint64) (int, int, float64) {
	if now > qt.lastAt {
		qt.integral += uint64(qt.cur) * (now - qt.lastAt)
		qt.lastAt = now
	}
	mn, mx := qt.min, qt.max
	avg := float64(qt.cur)
	if width := now - qt.winStart; width > 0 {
		avg = float64(qt.integral) / float64(width)
	}
	qt.winStart = now
	qt.integral = 0
	qt.min, qt.max = qt.cur, qt.cur
	return mn, mx, avg
}

// siteKey identifies one attribution site: a stage-program PC, or the
// unattributed bucket (thread == -1).
type siteKey struct {
	thread int
	pc     int
}

// siteCount accumulates cycles and micro-ops at one site.
type siteCount struct {
	cycles sim.Breakdown
	uops   uint64
}

// SimCollector records one timing run as a sim.Probe: install it with
// Machine.Probe before the timing phase. Use one SimCollector per run; Reset
// is deliberately absent so stale state cannot leak between candidates.
type SimCollector struct {
	stages []stageInfo
	ras    []raInfo
	queues []string

	// time-series
	rows []SampleRow
	qt   []queueTrack
	raIn []int // current in-flight per RA
	prev sim.Stats

	// profile
	sites map[siteKey]*siteCount

	// chrome trace
	spans    []span
	instants []instant
	open     []openSpan
	handlerN uint64
	endCycle uint64
	meta     map[string]any
}

type openSpan struct {
	state sim.StallClass
	start uint64
	live  bool
}

// NewSimCollector returns an empty collector ready to install as a Probe.
func NewSimCollector() *SimCollector {
	return &SimCollector{sites: map[siteKey]*siteCount{}}
}

var _ sim.Probe = (*SimCollector)(nil)

// BeginTiming implements sim.Probe.
func (c *SimCollector) BeginTiming(m *sim.Machine) {
	c.stages = c.stages[:0]
	for _, st := range m.Stages {
		c.stages = append(c.stages, stageInfo{
			name:  st.Prog.Name,
			core:  st.Thread.Core,
			slot:  st.Thread.Thread,
			lines: st.Prog.Lines,
		})
	}
	for _, ra := range m.RAs {
		c.ras = append(c.ras, raInfo{name: ra.Name, core: ra.Core})
	}
	for _, q := range m.Queues {
		c.queues = append(c.queues, q.Name)
	}
	c.qt = make([]queueTrack, len(m.Queues))
	c.raIn = make([]int, len(m.RAs))
	c.open = make([]openSpan, len(m.Stages))
}

// Sample implements sim.Probe: it closes the current window into a row.
func (c *SimCollector) Sample(snap *sim.Stats) {
	now := snap.Cycles
	row := SampleRow{Cycle: now, Delta: snap.Delta(c.prev)}
	for q := range c.qt {
		mn, mx, avg := c.qt[q].close(now)
		row.Queues = append(row.Queues, QueueSample{Min: mn, Max: mx, Avg: avg, Len: c.qt[q].cur})
	}
	row.RAInflight = append(row.RAInflight, c.raIn...)
	c.rows = append(c.rows, row)
	c.prev = *snap
	c.prev.PerCore = append([]sim.Breakdown(nil), snap.PerCore...)
}

// QueueLen implements sim.Probe.
func (c *SimCollector) QueueLen(q, ln int, now uint64) {
	c.qt[q].observe(ln, now)
}

// ThreadState implements sim.Probe: consecutive identical states extend the
// open span; a change closes it.
func (c *SimCollector) ThreadState(thread int, state sim.StallClass, now uint64) {
	o := &c.open[thread]
	if !o.live {
		o.state, o.start, o.live = state, now, true
		return
	}
	if o.state == state {
		return
	}
	c.spans = append(c.spans, span{thread: thread, state: o.state, start: o.start, end: now})
	o.state, o.start = state, now
}

// ThreadDone implements sim.Probe.
func (c *SimCollector) ThreadDone(thread int, now uint64) {
	c.closeSpan(thread, now)
}

// closeSpan ends the thread's open span, if any, at cycle now.
func (c *SimCollector) closeSpan(thread int, now uint64) {
	if o := &c.open[thread]; o.live {
		c.spans = append(c.spans, span{thread: thread, state: o.state, start: o.start, end: now})
		o.live = false
	}
}

// Issued implements sim.Probe.
func (c *SimCollector) Issued(thread, pc int) {
	c.site(thread, pc).uops++
}

// CoreCycles implements sim.Probe. Unattributable cycles (thread == -1) land
// in a dedicated bucket so profile totals still reconcile with Stats.
func (c *SimCollector) CoreCycles(core int, class sim.StallClass, thread, pc int, weight uint64) {
	b := &c.site(thread, pc).cycles
	switch class {
	case sim.ClassIssue:
		b.Issue += weight
	case sim.ClassBackend:
		b.Backend += weight
	case sim.ClassQueue:
		b.Queue += weight
	default:
		b.Other += weight
	}
}

func (c *SimCollector) site(thread, pc int) *siteCount {
	k := siteKey{thread: thread, pc: pc}
	s := c.sites[k]
	if s == nil {
		s = &siteCount{}
		c.sites[k] = s
	}
	return s
}

// HandlerFire implements sim.Probe.
func (c *SimCollector) HandlerFire(thread, pc int, now uint64) {
	c.handlerN++
	c.instants = append(c.instants, instant{thread: thread, pc: pc, at: now})
}

// RAInflight implements sim.Probe.
func (c *SimCollector) RAInflight(ra, inflight int, now uint64) {
	c.raIn[ra] = inflight
}

// EndTiming implements sim.Probe: it closes open spans and the final partial
// sample window.
func (c *SimCollector) EndTiming(stats *sim.Stats) {
	c.endCycle = stats.Cycles
	for i := range c.open {
		c.closeSpan(i, stats.Cycles)
	}
	// Final partial window (also the only row when sampling is off).
	c.Sample(stats)
}

// SetMeta stamps a key into the Chrome trace's otherData block, labelling
// the run that produced the trace (phloemsim stamps the bench and input).
func (c *SimCollector) SetMeta(key string, value any) {
	if c.meta == nil {
		c.meta = map[string]any{}
	}
	c.meta[key] = value
}
