package bench

// The queue-communication optimization benchmark: every suite benchmark is
// compiled once per leg and simulated on its largest test input under four
// commopt configurations — the uniform machine default (every queue at the
// architectural capacity), inferred per-queue capacities only, the multicast
// fan-out rewrite only, and both together. Each leg reports total cycles and
// queue-full stalls with deltas against the default leg, plus how many
// capacities the pass assigned and how many fan-out edges it created.
// Functional results are verified on every leg, so the report doubles as an
// end-to-end correctness check of the rewrites. `phloembench -exp commopt`
// writes the report to BENCH_commopt.json.

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/workloads"
)

// CommOptLeg is one configuration's measurement for one benchmark.
type CommOptLeg struct {
	Name   string `json:"name"` // default|caps|multicast|both
	Cycles uint64 `json:"cycles"`
	// FullStalls counts producer cycles lost to a full queue.
	FullStalls uint64 `json:"queue_full_stalls"`
	// CyclesPct is the cycle delta vs the default leg in percent
	// (negative = faster).
	CyclesPct float64 `json:"cycles_pct"`
	// FullDelta is the queue-full-stall delta vs the default leg.
	FullDelta int64 `json:"full_stalls_delta"`
	// Assigned counts queues whose capacity the pass set; FanOuts counts
	// fan-out edges the multicast rewrite created.
	Assigned int `json:"assigned"`
	FanOuts  int `json:"fanouts"`
}

// CommOptRow is one benchmark's four-leg comparison.
type CommOptRow struct {
	Name   string       `json:"name"`
	Input  string       `json:"input"`
	Queues int          `json:"queues"`
	Legs   []CommOptLeg `json:"legs"`
	// Improved reports whether any non-default leg beat the default on
	// cycles or queue-full stalls without regressing the other.
	Improved bool `json:"improved"`
}

// CommOptReport is the BENCH_commopt.json schema.
type CommOptReport struct {
	Header
	QueueDepth int          `json:"default_queue_depth"`
	Benchmarks []CommOptRow `json:"benchmarks"`
	// ImprovedFamilies counts benchmarks where an optimized leg improved on
	// the uniform default.
	ImprovedFamilies int `json:"improved_families"`
}

// gated lists the default depth, improved-family count, and per leg the
// cycles, queue-full stalls, assigned capacities and fan-outs.
func (r *CommOptReport) gated() []gated {
	out := []gated{
		countOf("", "default_queue_depth", r.QueueDepth),
		countOf("", "improved_families", r.ImprovedFamilies),
	}
	for _, b := range r.Benchmarks {
		out = append(out, countOf(b.Name, "queues", b.Queues))
		for _, l := range b.Legs {
			key := l.Name + "." // e.g. "both.cycles"
			out = append(out,
				cyclesOf(b.Name, key+"cycles", l.Cycles),
				cyclesOf(b.Name, key+"queue_full_stalls", l.FullStalls),
				countOf(b.Name, key+"assigned", l.Assigned),
				countOf(b.Name, key+"fanouts", l.FanOuts))
		}
	}
	return out
}

func (r *CommOptReport) rerun(cfg Config) (Report, error) { return commOptPerf(cfg) }

// commOptLegs enumerates the four configurations in report order.
var commOptLegs = []struct {
	name string
	opt  commopt.Options
}{
	{"default", commopt.Options{}},
	{"caps", commopt.Options{Capacities: true}},
	{"multicast", commopt.Options{Multicast: true}},
	{"both", commopt.Options{Capacities: true, Multicast: true}},
}

// commOptPerf runs the four-leg commopt comparison over the whole suite and
// returns the report.
func commOptPerf(cfg Config) (*CommOptReport, error) {
	rep := &CommOptReport{Header: newHeader(KindCommOpt, cfg.Scale), QueueDepth: arch.DefaultConfig(1).QueueDepth}
	cfg.printf("\nQueue-communication optimization: uniform default vs inferred capacities vs multicast fan-out\n")
	cfg.printf("%-8s %-10s %12s %9s %8s %10s %9s %6s\n",
		"bench", "leg", "cycles", "delta", "full", "delta", "assigned", "fanout")
	for _, bench := range workloads.Benchmarks(cfg.Scale) {
		prog, err := workloads.CompileSerial(bench.SerialSource)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		in := bench.Test[len(bench.Test)-1]
		row := CommOptRow{Name: bench.Name, Input: in.Name}
		var base CommOptLeg
		for i, leg := range commOptLegs {
			res, err := core.Compile(prog, core.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bench.Name, err)
			}
			plan, err := commopt.Apply(res.Pipeline, arch.DefaultConfig(1), leg.opt)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", bench.Name, leg.name, err)
			}
			st, err := runPipe(res.Pipeline, in.Bind(), in, 1, true)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", bench.Name, leg.name, err)
			}
			l := CommOptLeg{Name: leg.name, Cycles: st.Cycles, FullStalls: st.QueueFullStalls,
				FanOuts: len(plan.FanOuts)}
			for _, q := range plan.Queues {
				if q.Assigned && leg.opt.Capacities {
					l.Assigned++
				}
			}
			if i == 0 {
				base = l
				row.Queues = len(plan.Queues)
			}
			l.CyclesPct = 100 * (float64(l.Cycles) - float64(base.Cycles)) / float64(base.Cycles)
			l.FullDelta = int64(l.FullStalls) - int64(base.FullStalls)
			row.Legs = append(row.Legs, l)
			cfg.printf("%-8s %-10s %12d %+8.3f%% %8d %+10d %9d %6d\n",
				row.Name, l.Name, l.Cycles, l.CyclesPct, l.FullStalls, l.FullDelta, l.Assigned, l.FanOuts)
		}
		for _, l := range row.Legs[1:] {
			better := l.Cycles < base.Cycles || l.FullStalls < base.FullStalls
			worse := l.Cycles > base.Cycles && l.FullStalls > base.FullStalls
			if better && !worse {
				row.Improved = true
			}
		}
		if row.Improved {
			rep.ImprovedFamilies++
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	cfg.printf("improved families: %d/%d (an optimized leg beat the uniform default on cycles or full stalls)\n",
		rep.ImprovedFamilies, len(rep.Benchmarks))
	return rep, nil
}

// CommOptJSON runs commOptPerf and writes the report to path.
func CommOptJSON(cfg Config, path string) error {
	rep, err := commOptPerf(cfg)
	if err != nil {
		return err
	}
	return writeReport(rep, path)
}
