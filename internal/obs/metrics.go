package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"phloem/internal/core"
)

// histBuckets is the per-phase wall-millis histogram width: bucket 0 counts
// spans under 1ms, bucket i spans in [2^(i-1), 2^i) ms, and the last bucket
// is the >= 2^(histBuckets-2) ms overflow.
const histBuckets = 12

// PhaseMetrics aggregates every span of one event kind. Durations are kept
// in integer microseconds — the same unit (and the same per-span rounding)
// the Chrome trace export writes — so trace span totals reconcile exactly
// with these aggregates (pinned by TestTraceMetricsReconcile).
type PhaseMetrics struct {
	Name        string `json:"name"`
	Count       int    `json:"count"`
	TotalMicros int64  `json:"total_micros"`
	MinMicros   int64  `json:"min_micros"`
	MaxMicros   int64  `json:"max_micros"`
	// Hist is the log2-millis histogram of span durations (see histBuckets).
	Hist [histBuckets]int `json:"hist_log2ms"`
}

func (p *PhaseMetrics) add(micros int64) {
	if p.Count == 0 || micros < p.MinMicros {
		p.MinMicros = micros
	}
	if micros > p.MaxMicros {
		p.MaxMicros = micros
	}
	p.Count++
	p.TotalMicros += micros
	b := 0
	for ms := micros / 1000; ms > 0 && b < histBuckets-1; ms >>= 1 {
		b++
	}
	p.Hist[b]++
}

// histLabel names one histogram bucket.
func histLabel(i int) string {
	switch {
	case i == 0:
		return "<1ms"
	case i == histBuckets-1:
		return fmt.Sprintf(">=%dms", 1<<(histBuckets-2))
	default:
		return fmt.Sprintf("%d-%dms", 1<<(i-1), 1<<i)
	}
}

// Metrics is the aggregate view of one search's event stream: lifecycle
// counters, dedup/prune rates, per-phase wall-time aggregates, and simulator
// throughput. Wall-time fields vary run to run; everything else is
// deterministic for a fixed search.
type Metrics struct {
	// Mode is "autotune", "search", or "static" (from EvSearchStart).
	Mode string `json:"mode"`
	// Lifecycle counters (verdict events are counted once per candidate).
	Enumerated int `json:"enumerated"`
	Unique     int `json:"unique"`
	Deduped    int `json:"deduped"`
	Pruned     int `json:"pruned"`
	Accepted   int `json:"accepted"`
	Skipped    int `json:"skipped"`
	Cancelled  int `json:"cancelled"`
	// Trained counts training measurements actually simulated (EvTrain
	// spans, including bound-exact re-measurements); Replays counts verdicts
	// restored from the checkpoint journal instead (EvReplay), and
	// ReplayedTotal the journal's own count from EvSearchEnd (serial
	// baseline included).
	Trained       int `json:"trained"`
	Replays       int `json:"replays"`
	ReplayedTotal int `json:"replayed_total"`
	// DedupRate is Deduped/Enumerated; PruneRate is Pruned/Unique.
	DedupRate float64 `json:"dedup_rate"`
	PruneRate float64 `json:"prune_rate"`
	// SerialCycles and BestCycles are the baseline and winning training
	// totals (BestCycles 0 when nothing was measured).
	SerialCycles uint64 `json:"serial_cycles"`
	BestCycles   uint64 `json:"best_cycles"`
	// Workers is the highest worker ID seen plus one (1 = fully serial).
	Workers int `json:"workers"`
	// TotalMicros spans EvSearchStart to the last event's End offset.
	TotalMicros int64 `json:"total_micros"`
	// TrainCycles sums every EvTrain span's simulated cycles (partial counts
	// from aborted measurements included); CyclesPerMs is that total divided
	// by the train phase's wall-millis — the simulator throughput the search
	// sustained.
	TrainCycles uint64  `json:"train_cycles"`
	CyclesPerMs float64 `json:"cycles_per_ms"`
	// Phases aggregates span events in a fixed order: serial, rank, build,
	// verify, train (kinds with no spans are omitted).
	Phases []PhaseMetrics `json:"phases"`
}

// phaseOrder fixes the Phases rendering order.
var phaseOrder = []core.EventKind{
	core.EvSerial, core.EvRank, core.EvBuild, core.EvVerify, core.EvTrain,
}

// Aggregate folds an event stream into Metrics. The stream may come from a
// live SearchCollector or a synthetic fixture; order only matters for Mode and
// TotalMicros (first EvSearchStart / maximum End win).
func Aggregate(events []core.SearchEvent) *Metrics {
	m := &Metrics{}
	phases := map[core.EventKind]*PhaseMetrics{}
	for i := range events {
		e := &events[i]
		if phaseSpan(e) {
			p := phases[e.Kind]
			if p == nil {
				p = &PhaseMetrics{Name: e.Kind.String()}
				phases[e.Kind] = p
			}
			p.add(spanMicros(e))
		}
		if micros := e.End.Microseconds(); micros > m.TotalMicros {
			m.TotalMicros = micros
		}
		if e.Worker+1 > m.Workers {
			m.Workers = e.Worker + 1
		}
		switch e.Kind {
		case core.EvSearchStart:
			if m.Mode == "" {
				m.Mode = e.Mode
			}
		case core.EvSearchEnd:
			m.BestCycles = e.Cycles
			m.ReplayedTotal = e.N
		case core.EvSerial:
			m.SerialCycles = e.Cycles
		case core.EvEnumerated:
			m.Enumerated++
			if !e.Dup {
				m.Unique++
			}
		case core.EvDeduped:
			m.Deduped++
		case core.EvPruned:
			m.Pruned++
		case core.EvAccept:
			m.Accepted++
		case core.EvSkip:
			m.Skipped++
		case core.EvCancel:
			m.Cancelled++
		case core.EvTrain:
			m.Trained++
			m.TrainCycles += e.Cycles
		case core.EvReplay:
			m.Replays++
		}
	}
	if m.Enumerated > 0 {
		m.DedupRate = float64(m.Deduped) / float64(m.Enumerated)
	}
	if m.Unique > 0 {
		m.PruneRate = float64(m.Pruned) / float64(m.Unique)
	}
	for _, k := range phaseOrder {
		if p := phases[k]; p != nil {
			m.Phases = append(m.Phases, *p)
		}
	}
	if p := phases[core.EvTrain]; p != nil && p.TotalMicros > 0 {
		m.CyclesPerMs = float64(m.TrainCycles) / (float64(p.TotalMicros) / 1000)
	}
	return m
}

// spanMicros is the canonical span-duration rounding shared by Metrics and
// the Chrome trace export: integer microseconds, truncated.
func spanMicros(e *core.SearchEvent) int64 {
	return (e.End - e.Start).Microseconds()
}

// phaseSpan reports whether e folds into the per-phase wall-time aggregates.
// The predicate is shared with the Chrome trace export so trace span totals
// reconcile exactly with Metrics.Phases: every phase-span kind counts — even
// a sub-microsecond one — except a journal-replayed serial baseline, which
// is an instant, not a measurement.
func phaseSpan(e *core.SearchEvent) bool {
	switch e.Kind {
	case core.EvSerial, core.EvRank, core.EvBuild, core.EvVerify, core.EvTrain:
		return !(e.Kind == core.EvSerial && e.Replayed)
	}
	return false
}

// String renders the metrics as a deterministic text table (deterministic
// given the stream: wall-time columns vary run to run, counters never do).
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "search metrics (%s)\n", m.Mode)
	fmt.Fprintf(&b, "  candidates: %d enumerated, %d unique, %d deduped (%.1f%%), %d pruned (%.1f%%)\n",
		m.Enumerated, m.Unique, m.Deduped, 100*m.DedupRate, m.Pruned, 100*m.PruneRate)
	fmt.Fprintf(&b, "  verdicts:   %d accepted, %d skipped, %d cancelled; %d trained, %d replayed (journal total %d)\n",
		m.Accepted, m.Skipped, m.Cancelled, m.Trained, m.Replays, m.ReplayedTotal)
	fmt.Fprintf(&b, "  cycles:     serial %d, best %d", m.SerialCycles, m.BestCycles)
	if m.CyclesPerMs > 0 {
		fmt.Fprintf(&b, "; sim throughput %.0f cycles/ms", m.CyclesPerMs)
	}
	fmt.Fprintf(&b, "\n  wall:       %.1fms total, %d worker(s)\n",
		float64(m.TotalMicros)/1000, m.Workers)
	if len(m.Phases) > 0 {
		fmt.Fprintf(&b, "  %-8s %7s %10s %9s %9s  %s\n",
			"phase", "count", "total-ms", "min-ms", "max-ms", "hist")
		for i := range m.Phases {
			p := &m.Phases[i]
			fmt.Fprintf(&b, "  %-8s %7d %10.1f %9.1f %9.1f  %s\n",
				p.Name, p.Count, float64(p.TotalMicros)/1000,
				float64(p.MinMicros)/1000, float64(p.MaxMicros)/1000, histString(p))
		}
	}
	return b.String()
}

// histString renders a histogram's non-empty buckets ("<1ms:40 2-4ms:1").
func histString(p *PhaseMetrics) string {
	var parts []string
	for i, n := range p.Hist {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", histLabel(i), n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// WriteJSON writes the metrics as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
