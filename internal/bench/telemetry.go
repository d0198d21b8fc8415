package bench

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// Telemetry runs each benchmark's static-flow pipeline on its largest test
// input with a telemetry collector installed and prints a per-benchmark
// observability summary: where the cycles went, the hottest stall site, and
// the busiest queue. With Verbose set it also prints each benchmark's top-5
// hot-lines report. The probe never changes timing, so the cycle counts
// match an unobserved run exactly.
func Telemetry(cfg Config) error {
	cfg.printf("--- telemetry: per-benchmark pipeline observability (static flow)\n")
	cfg.printf("%-6s %-10s %10s %7s %6s  %-30s %s\n",
		"bench", "input", "cycles", "queue%", "hfires", "hottest stall site", "busiest queue (avg occupancy)")
	for _, b := range workloads.Benchmarks(cfg.Scale) {
		serialProg, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		res, err := core.Compile(serialProg, core.DefaultOptions())
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		in := b.Test[len(b.Test)-1]
		inst, err := pipeline.Instantiate(res.Pipeline, arch.DefaultConfig(1), in.Bind())
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		col := obs.NewSimCollector()
		inst.Machine.MaxTraceEntries = benchTraceCap
		inst.Machine.Probe = col
		st, err := inst.Run()
		if err == nil && in.Verify != nil {
			err = in.Verify(inst)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}

		prof := col.Profile()
		hottest := "(no stalls)"
		if len(prof.Lines) > 0 && prof.Lines[0].Stalls() > 0 {
			l := &prof.Lines[0]
			hottest = fmt.Sprintf("%s: %d cycles", l.Label(), l.Stalls())
		}

		// With no sampling interval the series has exactly one row covering
		// the whole run, so each queue's Avg is its run-wide time-weighted
		// mean occupancy.
		s := col.Series()
		busiest := "(no queues)"
		if len(s.Rows) > 0 && len(s.Queues) > 0 {
			row := s.Rows[len(s.Rows)-1]
			best := 0
			for q := range row.Queues {
				if row.Queues[q].Avg > row.Queues[best].Avg {
					best = q
				}
			}
			busiest = fmt.Sprintf("%s avg=%.1f max=%d", s.Queues[best],
				row.Queues[best].Avg, row.Queues[best].Max)
		}

		tb := st.TotalBreakdown()
		qpct := 0.0
		if t := tb.Total(); t > 0 {
			qpct = 100 * float64(tb.Queue) / float64(t)
		}
		cfg.printf("%-6s %-10s %10d %6.1f%% %6d  %-30s %s\n",
			b.Name, in.Name, st.Cycles, qpct, st.HandlerFires, hottest, busiest)
		if cfg.Verbose {
			cfg.printf("%s", prof.Render(5, b.SerialSource))
		}
	}
	return nil
}
