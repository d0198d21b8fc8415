package main

// Tracing for the traced run (-trace 1). Spans are recorded from this
// package's own files, around the calls into each layer, kept in memory and
// written as a Chrome trace_event file at exit. The untraced run never
// touches this file: a nil *opCtx tracer makes every method a no-op.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"phloem/internal/core"
)

// spanID indexes tracer.spans; noSpan is the parent of a root span.
type spanID int

const noSpan spanID = -1

type span struct {
	name       string
	op         int // operation id shared by every span of one operation
	parent     spanID
	lane       int // Chrome tid: 0 = the client, 1.. = search workers, 10.. = training runs
	start, end time.Duration
}

// tracer holds every span of a run. Search workers record concurrently.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	lanes []bool // training-run lanes in use
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now; lane < 0 allocates a training-run lane that end
// releases.
func (t *tracer) begin(parent spanID, op int, name string, lane int) spanID {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane < 0 {
		lane = -1
		for i, used := range t.lanes {
			if !used {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(t.lanes)
			t.lanes = append(t.lanes, false)
		}
		t.lanes[lane] = true
		lane += 10
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane, start: now, end: -1})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	if s.lane >= 10 {
		t.lanes[s.lane-10] = false
	}
}

// add records a span that has already ended (search events arrive complete).
func (t *tracer) add(parent spanID, op int, name string, lane int, start, end time.Time) spanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return spanID(len(t.spans) - 1)
}

// selfTimes attributes the spans recorded since index lo: a span's self time
// is its duration minus the part of it its child spans cover. It returns self
// time summed by span name, and the total of all self times less the time
// sibling spans ran in parallel, which equals the root span's duration when
// every span lies inside its parent.
func (t *tracer) selfTimes(lo int) (self map[string]time.Duration, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[spanID][]spanID{}
	for i := lo; i < len(t.spans); i++ {
		if p := t.spans[i].parent; int(p) >= lo {
			children[p] = append(children[p], spanID(i))
		}
	}
	self = map[string]time.Duration{}
	for i := lo; i < len(t.spans); i++ {
		s := t.spans[i]
		kids := children[spanID(i)]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		var covered, sum time.Duration
		edge := s.start
		for _, k := range kids {
			ks, ke := t.spans[k].start, t.spans[k].end
			if ks < s.start {
				ks = s.start
			}
			if ke > s.end {
				ke = s.end
			}
			if ke <= ks {
				continue
			}
			sum += ke - ks
			if ks < edge {
				ks = edge
			}
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		d := s.end - s.start - covered
		self[s.name] += d
		total += d - (sum - covered)
	}
	return self, total
}

// duration returns a finished span's length.
func (t *tracer) duration(id spanID) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].end - t.spans[id].start
}

// writeChrome writes every span as a Chrome trace_event "X" event.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i, "parent": int(s.parent), "op": s.op}})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opCtx is what one operation records into. On an untraced operation tr is
// nil: spans are not taken and the workloads use the one-call paths.
type opCtx struct {
	tr   *tracer
	op   int
	root spanID

	mu     sync.Mutex
	counts map[string]float64
}

func (c *opCtx) traced() bool { return c.tr != nil }

func (c *opCtx) begin(parent spanID, name string) spanID {
	if c.tr == nil {
		return noSpan
	}
	return c.tr.begin(parent, c.op, name, 0)
}

// beginRun opens a span on a training-run lane (search workers call
// concurrently).
func (c *opCtx) beginRun(parent spanID, name string) spanID {
	if c.tr == nil {
		return noSpan
	}
	return c.tr.begin(parent, c.op, name, -1)
}

func (c *opCtx) end(id spanID) {
	if c.tr != nil {
		c.tr.end(id)
	}
}

// timed runs f inside a span.
func (c *opCtx) timed(parent spanID, name string, f func()) {
	id := c.begin(parent, name)
	f()
	c.end(id)
}

// count adds v to a per-layer count of this operation.
func (c *opCtx) count(name string, v float64) {
	if c.tr == nil {
		return
	}
	c.mu.Lock()
	c.counts[name] += v
	c.mu.Unlock()
}

// searchObserver turns core's search-lifecycle events into spans under the
// span of the core.Compile call that emits them.
type searchObserver struct {
	c      *opCtx
	parent spanID
	names  map[core.EventKind]string

	mu     sync.Mutex
	anchor time.Time
	serial []spanID      // serial-baseline spans, for adoptRuns
	busy   time.Duration // time search workers spent building, verifying, training
}

var staticSpans = map[core.EventKind]string{
	core.EvBuild:   "passes.build",
	core.EvCommOpt: "commopt.apply",
	core.EvVerify:  "verify.check",
}

var searchSpans = map[core.EventKind]string{
	core.EvSerial:  "core.serial",
	core.EvRank:    "core.rank",
	core.EvBuild:   "core.build",
	core.EvCommOpt: "core.build",
	core.EvVerify:  "core.verify",
}

func (o *searchObserver) Observe(ev core.SearchEvent) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if ev.Kind == core.EvSearchStart {
		o.anchor = now.Add(-ev.Start)
		return
	}
	if ev.End <= ev.Start {
		return
	}
	if ev.Worker > 0 {
		o.busy += ev.End - ev.Start
	}
	name := o.names[ev.Kind]
	if name == "" {
		return
	}
	id := o.c.tr.add(o.parent, o.c.op, name, ev.Worker, o.anchor.Add(ev.Start), o.anchor.Add(ev.End))
	if ev.Kind == core.EvSerial {
		o.serial = append(o.serial, id)
	}
}

// adoptRuns re-parents the training runs recorded since index lo that ran
// inside the serial-baseline span: the event that names that span arrives
// only after the runs it contains.
func (o *searchObserver) adoptRuns(lo int) {
	t := o.c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sid := range o.serial {
		s := t.spans[sid]
		for i := lo; i < len(t.spans); i++ {
			r := &t.spans[i]
			if r.parent == o.parent && r.name == "core.train" && r.start >= s.start && r.end <= s.end {
				r.parent = sid
			}
		}
	}
}
