package main

// The measuring loop. Closed loop, one client: the next operation starts when
// the previous one has returned and been checked. One process measures one
// (workload, seed).

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up runs several times so that setup_s is a median: at least
// minSetupReps times, and a cheap set-up until a tenth of the measuring time
// (a second at most) has been spent, up to maxSetupReps times.
const (
	minSetupReps = 7
	maxSetupReps = 40
)

// workloadDef declares one workload. An operation has two legs, both timed:
// the pipelined leg, which is what Phloem adds, and the serial-baseline leg,
// which is the same work without pipelining. pipeLeg, serialLeg and work say
// what they are here.
type workloadDef struct {
	name, why                string
	pipeLeg, serialLeg, work string
	// setup generates the inputs from the seed and builds whatever the
	// workload only runs. It is timed as setup_s.
	setup func(seed int64, tiny bool, c *opCtx) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// fingerprint describes the generated inputs: sizes and a hash.
	fingerprint() string
	// run performs one operation and checks its outputs.
	run(c *opCtx) opResult
}

// opResult is what one operation measured. Verification happens inside run
// but outside both timed legs.
type opResult struct {
	pipe, serial         time.Duration
	alloc                uint64 // bytes allocated inside the two legs
	pipeWork, serialWork uint64 // deterministic work counts of the two legs
	instrs               uint64 // dynamic instructions both legs executed (0: none)
	ident                string // everything else that must repeat exactly
	err                  error  // non-nil: the operation failed
}

// repeats reports whether two operations agree on everything deterministic.
func (a opResult) repeats(b opResult) bool {
	return a.pipeWork == b.pipeWork && a.serialWork == b.serialWork && a.instrs == b.instrs && a.ident == b.ident
}

func runWorkload(def workloadDef, cfg config) (*report, error) {
	rep := &report{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Size: "full", Host: hostInfo()}
	if cfg.tiny {
		rep.Size = "tiny"
	}
	fmt.Printf("phloem-benchmark workload=%s seed=%d seconds=%g trace=%v size=%s\n",
		def.name, cfg.seed, cfg.seconds, cfg.trace, rep.Size)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit)
	fmt.Printf("why: %s\nlegs: pipe = %s; serial = %s; work = %s\n", def.why, def.pipeLeg, def.serialLeg, def.work)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tracer = tr
	}

	// Set-up, several times over; the last instance is the one measured.
	var inst instance
	var setupS, generateMS []float64
	setupStart, setupBudget := time.Now(), time.Duration(min(1, cfg.seconds/10)*float64(time.Second))
	for r := 0; r < minSetupReps || (r < maxSetupReps && time.Since(setupStart) < setupBudget); r++ {
		c := &opCtx{tr: tr, op: -1 - r, counts: map[string]float64{}}
		lo := 0
		if tr != nil {
			lo = len(tr.spans)
		}
		c.root = c.begin(noSpan, "setup")
		t0 := time.Now()
		var err error
		inst, err = def.setup(cfg.seed, cfg.tiny, c)
		setupS = append(setupS, time.Since(t0).Seconds())
		c.end(c.root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if tr != nil {
			self, _ := tr.selfTimes(lo)
			generateMS = append(generateMS, ms(self["workloads.generate"]))
		}
	}
	rep.Fingerprint = inst.fingerprint()
	fmt.Printf("input: %s\n", rep.Fingerprint)

	var ref *opResult
	check := func(res opResult, what string) bool {
		rep.Attempted++
		if res.err == nil && ref != nil && !res.repeats(*ref) {
			res.err = fmt.Errorf("deterministic results differ from the first operation: work %d/%d instrs %d ident %s, first %d/%d %d %s",
				res.pipeWork, res.serialWork, res.instrs, res.ident, ref.pipeWork, ref.serialWork, ref.instrs, ref.ident)
		}
		if res.err != nil {
			rep.Failed++
			if len(rep.Failures) < 20 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", what, res.err))
			}
			return false
		}
		if ref == nil {
			ref = &res
		}
		return true
	}

	// One untimed warm-up operation: caches fill, the heap reaches its size.
	check(inst.run(&opCtx{}), "warm-up")

	var plain, traced []opResult
	var selfs []map[string]time.Duration
	var counts []map[string]float64
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates the one-call path and the decomposed
		// path, so that the two are compared on the same inputs in the
		// same process and their difference is the tracing overhead.
		if cfg.trace && i%2 == 1 {
			c := &opCtx{tr: tr, op: i, counts: map[string]float64{}}
			lo := len(tr.spans)
			c.root = c.begin(noSpan, "op")
			res := inst.run(c)
			c.end(c.root)
			self, total := tr.selfTimes(lo)
			if share := float64(total) / float64(tr.duration(c.root)); res.err == nil && math.Abs(share-1) > 0.05 {
				res.err = fmt.Errorf("self times sum to %.3f of the operation's span", share)
			}
			if check(res, fmt.Sprintf("op %d (traced)", i)) {
				traced = append(traced, res)
				selfs = append(selfs, self)
				counts = append(counts, c.counts)
			}
		} else if res := inst.run(&opCtx{}); check(res, fmt.Sprintf("op %d", i)) {
			plain = append(plain, res)
		}
		enough := len(plain) >= 2 && (!cfg.trace || len(traced) >= 1)
		if time.Since(start).Seconds() >= cfg.seconds && (enough || rep.Failed > 0) {
			break
		}
	}
	runtime.ReadMemStats(&gc1)
	rep.Correct = rep.Failed == 0 && len(plain) > 0

	legs := func(ops []opResult, f func(opResult) float64) []float64 {
		out := make([]float64, len(ops))
		for i, o := range ops {
			out[i] = f(o)
		}
		return out
	}
	pipeMS := legs(plain, func(o opResult) float64 { return ms(o.pipe) })
	serialMS := legs(plain, func(o opResult) float64 { return ms(o.serial) })
	opMS := legs(plain, func(o opResult) float64 { return ms(o.pipe + o.serial) })
	rep.Samples = map[string][]float64{"setup_s": setupS, "pipe_ms": pipeMS, "serial_ms": serialMS}
	if !cfg.trace {
		// alloc_mb is the loop's allocation divided by its operations: a mean.
		allocMB := legs(plain, func(o opResult) float64 { return float64(o.alloc) / 1e6 })
		alloc := summarize("alloc_mb", "MB/op", allocMB)
		alloc.Median = mean(allocMB)
		rep.Metrics = []summary{
			summarize("setup_s", "s", setupS),
			summarize("pipe_ms", "ms", pipeMS),
			summarize("serial_ms", "ms", serialMS),
			summarize("pipe_work", "count", legs(plain, func(o opResult) float64 { return float64(o.pipeWork) })),
			summarize("serial_work", "count", legs(plain, func(o opResult) float64 { return float64(o.serialWork) })),
			alloc,
		}
	} else {
		tracedMS := legs(traced, func(o opResult) float64 { return ms(o.pipe + o.serial) })
		process := map[string]float64{
			"workloads.generate_ms":        median(generateMS),
			"process.peak_rss_mb":          peakRSSMB(),
			"process.gc_cycles":            float64(gc1.NumGC - gc0.NumGC),
			"process.trace_overhead_share": ratio(median(tracedMS), median(opMS)) - 1,
		}
		rep.Metrics = layerSummaries(selfs, counts, process)
		rep.Derived = append(rep.Derived, selfSummaries(selfs)...)
	}
	var ref0 opResult
	if ref != nil {
		ref0 = *ref
	}
	rep.Derived = append(rep.Derived,
		summarize("op_ms", "ms", opMS),
		summary{Name: "serial_over_pipe_ms", Unit: "ratio", N: len(plain), Median: ratio(median(serialMS), median(pipeMS)), TailAt: "max"},
		summary{Name: "serial_over_pipe_work", Unit: "ratio", N: len(plain), Median: ratio(float64(ref0.serialWork), float64(ref0.pipeWork)), TailAt: "max"},
		summary{Name: "minstr_per_s", Unit: "Minstr/s", N: len(plain), Median: ratio(float64(ref0.instrs)/1e3, median(opMS)), TailAt: "max"},
	)

	fmt.Printf("operations: attempted=%d failed=%d timed=%d loop=%.1fs\n",
		rep.Attempted, rep.Failed, len(plain)+len(traced), time.Since(start).Seconds())
	for _, f := range rep.Failures {
		fmt.Println("FAILED", f)
	}
	fmt.Println("metrics:")
	for _, m := range rep.Metrics {
		fmt.Println(" ", m)
	}
	fmt.Println("not gated:")
	for _, m := range rep.Derived {
		fmt.Println(" ", m)
	}
	return rep, nil
}

// layerSummaries builds the per-layer metrics from the traced operations.
// A time is the self time of the span of the same name; a count is what the
// operation recorded under that name; shares and rates are computed per
// operation from those.
func layerSummaries(selfs []map[string]time.Duration, counts []map[string]float64, process map[string]float64) []summary {
	samples := map[string][]float64{}
	for i := range selfs {
		self, n := selfs[i], counts[i]
		v := map[string]float64{}
		for _, m := range perLayer {
			switch {
			case strings.Contains(m.name, "_ms_"): // native.pipe_ms_p2 is span native.pipe_p2
				v[m.name] = ms(self[strings.Replace(m.name, "_ms_", "_", 1)])
			case strings.HasSuffix(m.name, "_ms"): // core.search_self_ms is span core.search
				v[m.name] = ms(self[strings.TrimSuffix(strings.TrimSuffix(m.name, "_ms"), "_self")])
			default:
				v[m.name] = n[m.name]
			}
		}
		v["sim.func_minstr_per_s"] = ratio(v["sim.func_instrs"]/1e3, v["sim.func_ms"])
		v["sim.timing_ns_per_instr"] = ratio(v["sim.timing_ms"]*1e6, n["_timing_instrs"])
		v["sim.timing_ns_per_cycle"] = ratio(v["sim.timing_ms"]*1e6, n["_timing_cycles"])
		v["sim.timing_ipc"] = ratio(n["_timing_instrs"], n["_timing_cycles"])
		v["cache.l1_miss_share"] = ratio(n["_l1_misses"], n["_l1_misses"]+n["_l1_hits"])
		v["cache.l2_miss_share"] = ratio(n["_l2_misses"], n["_l2_misses"]+n["_l2_hits"])
		v["cache.l3_miss_share"] = ratio(n["_l3_misses"], n["_l3_misses"]+n["_l3_hits"])
		v["core.useful_share"] = ratio(n["_completed"], n["_trained"])
		v["core.worker_busy_share"] = ratio(n["_busy_ns"], n["_search_ns"])
		v["native.ns_per_token"] = ratio(v["native.pipe_ms_p2"]*1e6, v["native.queue_tokens"])
		v["native.serial_minstr_per_s"] = ratio(n["_serial_instrs"]/1e3, v["native.serial_ms_p2"])
		// The share of the pipelined run not explained by interpreting
		// its instructions at the serial interpreter's rate.
		if v["native.pipe_ms_p2"] > 0 {
			v["native.sync_share"] = 1 - ratio(v["native.instrs"]/1e3, v["native.serial_minstr_per_s"])/v["native.pipe_ms_p2"]
		}
		for name, x := range v {
			samples[name] = append(samples[name], x)
		}
	}
	out := make([]summary, 0, len(perLayer))
	for _, m := range perLayer {
		if x, ok := process[m.name]; ok {
			out = append(out, summary{Name: m.name, Unit: m.unit, N: 1, Median: x, Tail: x, TailAt: "max"})
			continue
		}
		out = append(out, summarize(m.name, m.unit, samples[m.name]))
	}
	return out
}

// selfSummaries lists the self time of every span name, harness spans
// included, so that the attribution can be read whole.
func selfSummaries(selfs []map[string]time.Duration) []summary {
	names := map[string]bool{}
	for _, self := range selfs {
		for name := range self {
			names[name] = true
		}
	}
	var out []summary
	for name := range names {
		samples := make([]float64, len(selfs))
		for i, self := range selfs {
			samples[i] = ms(self[name])
		}
		out = append(out, summarize("self."+name, "ms", samples))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Median > out[j].Median })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// peakRSSMB reads the process's peak resident set (VmHWM) on Linux; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // malformed reads as 0
			return kb / 1024
		}
	}
	return 0
}
