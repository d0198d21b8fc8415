package main

// The four workloads that run compiled pipelines: sim-graph and sim-spmm on
// the cycle-level simulator, native-ra and native-stage on the goroutine and
// channel backend. Each runs the static Phloem pipeline and the serial
// baseline of the same kernel on the same generated input.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// runCase is one kernel bound to one generated input.
type runCase struct {
	name, src, input string
	// bindings hold the input; Instantiate copies them, so every run of an
	// operation starts from the same memory image.
	bindings pipeline.Bindings
	verify   func(*pipeline.Instance) error

	pipe, serial *pipeline.Pipeline
	// What the functional simulator executed for the two programs during
	// set-up: the oracle a native run must match instruction for
	// instruction (native workloads only).
	pipeInstrs, serialInstrs, pipeTokens uint64
}

func bfsCase(g *graph.CSR, root int64) *runCase {
	return &runCase{name: "BFS", src: workloads.BFSSource,
		input:    fmt.Sprintf("%s V=%d E=%d root=%d", g.Name, g.NumVertices(), g.NumEdges(), root),
		bindings: workloads.BFSBindings(g, root),
		verify:   func(inst *pipeline.Instance) error { return workloads.BFSVerify(inst, g, root) }}
}

func prdCase(g *graph.CSR) *runCase {
	return &runCase{name: "PRD", src: workloads.PRDSource,
		input:    fmt.Sprintf("%s V=%d E=%d", g.Name, g.NumVertices(), g.NumEdges()),
		bindings: workloads.PRDBindings(g),
		verify:   func(inst *pipeline.Instance) error { return workloads.PRDVerify(inst, g) }}
}

func spmmCase(a *matrix.CSR) *runCase {
	bt := a.Transpose(a.Name + "T")
	return &runCase{name: "SpMM", src: workloads.SpMMSource,
		input:    fmt.Sprintf("%s and its transpose N=%d nnz=%d", a.Name, a.N, a.NNZ()),
		bindings: workloads.SpMMBindings(a, bt),
		verify:   func(inst *pipeline.Instance) error { return workloads.SpMMVerify(inst, a, bt) }}
}

// compile builds the case's static pipeline, twice so that a compiler whose
// output depends on anything but its input fails set-up, and its serial
// baseline.
func (rc *runCase) compile() error {
	res, err := core.CompileSource(rc.src, staticOptions())
	if err != nil {
		return fmt.Errorf("%s: %w", rc.name, err)
	}
	again, err := core.CompileSource(rc.src, staticOptions())
	if err != nil {
		return fmt.Errorf("%s: %w", rc.name, err)
	}
	if a, b := pipelineHash(res.Pipeline), pipelineHash(again.Pipeline); a != b {
		return fmt.Errorf("%s: two compiles of one source differ: %016x and %016x", rc.name, a, b)
	}
	rc.pipe = res.Pipeline
	rc.serial, err = lowerSerial(&opCtx{}, noSpan, rc.src)
	if err != nil {
		return fmt.Errorf("%s serial: %w", rc.name, err)
	}
	return nil
}

// oracle runs both programs on the functional simulator, checks their
// outputs, and keeps the schedule-independent counts.
func (rc *runCase) oracle(c *opCtx) error {
	for _, leg := range []struct {
		pl             *pipeline.Pipeline
		instrs, tokens *uint64
	}{{rc.pipe, &rc.pipeInstrs, &rc.pipeTokens}, {rc.serial, &rc.serialInstrs, new(uint64)}} {
		inst, err := instantiate(c, c.root, leg.pl, rc.bindings)
		if err != nil {
			return err
		}
		ts, err := inst.Machine.RunFunctional()
		if err != nil {
			return fmt.Errorf("%s: functional oracle: %w", rc.name, err)
		}
		if err := rc.verify(inst); err != nil {
			return fmt.Errorf("%s: functional oracle: %w", rc.name, err)
		}
		*leg.instrs = ts.Instructions
		*leg.tokens, _, _ = queueTokens(inst.Machine, ts)
	}
	return nil
}

// drawSized draws a fixed number of inputs from gen, seeded from rng, and
// keeps the one whose size is closest to typical: the median over a fixed set
// of generator seeds. The generators drop and merge random entries, so the
// edge or non-zero count of an input varies by a few percent with the seed,
// and every work count with it; holding the size fixed lets the work counts
// be gated tightly while structure, values and roots still change with the
// seed. The number of draws is fixed so that set-up costs the same whatever
// the seed.
func drawSized[T any](rng *rand.Rand, gen func(seed int64) T, size func(T) int) T {
	const fixedSeeds, draws = 15, 64
	sizes := make([]int, fixedSeeds)
	for i := range sizes {
		sizes[i] = size(gen(int64(i + 1)))
	}
	sort.Ints(sizes)
	target := sizes[fixedSeeds/2]
	best := gen(rng.Int63())
	for i := 1; i < draws; i++ {
		if x := gen(rng.Int63()); abs(size(x)-target) < abs(size(best)-target) {
			best = x
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sizedBanded(rng *rand.Rand, n, nnzPerRow, band int) *matrix.CSR {
	return drawSized(rng, func(seed int64) *matrix.CSR { return matrix.Banded("banded", n, nnzPerRow, band, seed) },
		(*matrix.CSR).NNZ)
}

func sizedGrid(rng *rand.Rand, side int) *graph.CSR {
	return drawSized(rng, func(seed int64) *graph.CSR { return graph.Grid("grid", side, side, seed) },
		(*graph.CSR).NumEdges)
}

func sizedPowerLaw(rng *rand.Rand, n, m int) *graph.CSR {
	return drawSized(rng, func(seed int64) *graph.CSR { return graph.PowerLaw("powerlaw", n, m, seed) },
		(*graph.CSR).NumEdges)
}

// hashBindings fingerprints a generated input.
func hashBindings(b pipeline.Bindings) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	var names []string
	for name := range b.Ints {
		names = append(names, name)
	}
	for name := range b.Floats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		for _, x := range b.Ints[name] {
			put(uint64(x))
		}
		for _, x := range b.Floats[name] {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

// runner is a set-up sim-* or native-* workload.
type runner struct {
	cases  []*runCase
	native bool
}

func (w *runner) fingerprint() string {
	var parts []string
	for _, rc := range w.cases {
		parts = append(parts, fmt.Sprintf("%s on %s hash %016x", rc.name, rc.input, hashBindings(rc.bindings)))
	}
	return strings.Join(parts, "; ")
}

// setupRunner generates the cases' inputs, compiles them, and for a native
// workload runs the functional oracle.
func setupRunner(c *opCtx, native bool, generate func() []*runCase) (instance, error) {
	w := &runner{native: native}
	c.timed(c.root, "workloads.generate", func() { w.cases = generate() })
	for _, rc := range w.cases {
		if err := rc.compile(); err != nil {
			return nil, err
		}
		if native {
			if err := rc.oracle(c); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *runner) run(c *opCtx) opResult {
	if w.native {
		return w.runNative(c)
	}
	return w.runSim(c)
}

// runSim simulates every case's pipeline, then every case's serial baseline.
func (w *runner) runSim(c *opCtx) opResult {
	var res opResult
	insts := make([]*pipeline.Instance, 0, 2*len(w.cases))
	leg := func(pick func(*runCase) *pipeline.Pipeline, work *uint64) (legCost, error) {
		return timeLeg(func() error {
			for _, rc := range w.cases {
				inst, st, err := simulate(c, c.root, pick(rc), rc.bindings, core.Budget{})
				if err != nil {
					return fmt.Errorf("%s: %w", rc.name, err)
				}
				insts = append(insts, inst)
				*work += st.Cycles
				res.instrs += st.Instructions
			}
			return nil
		})
	}
	cost, err := leg(func(rc *runCase) *pipeline.Pipeline { return rc.pipe }, &res.pipeWork)
	res.pipe, res.alloc, res.err = cost.wall, cost.bytes, err
	if res.err != nil {
		return res
	}
	cost, err = leg(func(rc *runCase) *pipeline.Pipeline { return rc.serial }, &res.serialWork)
	res.serial, res.err = cost.wall, err
	res.alloc += cost.bytes
	if res.err != nil {
		return res
	}
	c.timed(c.root, "workloads.verify", func() {
		for i, inst := range insts {
			rc := w.cases[i%len(w.cases)]
			if err := rc.verify(inst); err != nil {
				res.err = fmt.Errorf("%s: %w", rc.name, err)
				return
			}
		}
	})
	return res
}

// runNative executes every case's pipeline, then every case's serial
// baseline, on the native backend. A traced operation repeats both at
// GOMAXPROCS 1, which separates what synchronisation costs from what
// parallelism gives back.
func (w *runner) runNative(c *opCtx) opResult {
	var res opResult
	leg := func(span string, pick func(*runCase) (*pipeline.Pipeline, uint64)) (cost legCost, instrs uint64, err error) {
		for _, rc := range w.cases {
			pl, want := pick(rc)
			inst, st, one, err := runNative(c, c.root, span, pl, rc.bindings)
			if err != nil {
				return cost, 0, fmt.Errorf("%s: %w", rc.name, err)
			}
			cost.wall += one.wall
			cost.bytes += one.bytes
			cost.mallocs += one.mallocs
			instrs += st.Instructions
			if st.Instructions != want {
				return cost, 0, fmt.Errorf("%s: native executed %d instructions, the functional simulator %d", rc.name, st.Instructions, want)
			}
			if span == "native.pipe_p2" {
				c.count("native.goroutines", float64(st.Stages+st.RAs))
			}
			id := c.begin(c.root, "workloads.verify")
			err = rc.verify(inst)
			c.end(id)
			if err != nil {
				return cost, 0, fmt.Errorf("%s: %w", rc.name, err)
			}
		}
		return cost, instrs, nil
	}
	pipe := func(rc *runCase) (*pipeline.Pipeline, uint64) { return rc.pipe, rc.pipeInstrs }
	serial := func(rc *runCase) (*pipeline.Pipeline, uint64) { return rc.serial, rc.serialInstrs }

	cost, instrs, err := leg("native.pipe_p2", pipe)
	res.pipe, res.alloc, res.pipeWork, res.err = cost.wall, cost.bytes, instrs, err
	if res.err != nil {
		return res
	}
	c.count("native.instrs", float64(instrs))
	c.count("native.allocs_per_run", float64(cost.mallocs))
	cost, instrs, err = leg("native.serial_p2", serial)
	res.serial, res.serialWork, res.err = cost.wall, instrs, err
	res.alloc += cost.bytes
	res.instrs = res.pipeWork + res.serialWork
	if res.err != nil || !c.traced() {
		return res
	}
	c.count("_serial_instrs", float64(instrs))
	for _, rc := range w.cases {
		c.count("native.queue_tokens", float64(rc.pipeTokens))
	}

	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	if _, _, err := leg("native.pipe_p1", pipe); err != nil {
		res.err = err
		return res
	}
	_, _, res.err = leg("native.serial_p1", serial)
	return res
}

// Sizes are chosen on a 2-vCPU host so that an operation takes about a
// second or less and a 12-second run holds at least ten.

var simGraphDef = workloadDef{
	name:      "sim-graph",
	why:       "memory-latency-bound simulation with RAs and idle fast-forward: timing replay is most of the wall time, the functional engine a few percent",
	pipeLeg:   "pipeline.Instantiate + Instance.Run of the static pipelines: PRD on a grid, BFS on a power-law graph",
	serialLeg: "the same for the two serial baselines",
	work:      "simulated cycles",
	setup: func(seed int64, tiny bool, c *opCtx) (instance, error) {
		rng := rand.New(rand.NewSource(seed))
		return setupRunner(c, false, func() []*runCase {
			side, n, m := 40, 800, 6
			if tiny {
				side, n, m = 8, 60, 2
			}
			grid, pl := sizedGrid(rng, side), sizedPowerLaw(rng, n, m)
			return []*runCase{prdCase(grid), bfsCase(pl, int64(rng.Intn(pl.NumVertices())))}
		})
	},
}

var simSpMMDef = workloadDef{
	name:      "sim-spmm",
	why:       "queue-bound simulation: 3 stages, 7 queues, no RAs, a token every few instructions; the slowest case for the timing loop",
	pipeLeg:   "pipeline.Instantiate + Instance.Run of the static SpMM pipeline on a banded matrix and its transpose",
	serialLeg: "the same for the serial baseline",
	work:      "simulated cycles",
	setup: func(seed int64, tiny bool, c *opCtx) (instance, error) {
		rng := rand.New(rand.NewSource(seed))
		return setupRunner(c, false, func() []*runCase {
			n, nnz, band := 48, 12, 24
			if tiny {
				n, nnz, band = 12, 4, 4
			}
			return []*runCase{spmmCase(sizedBanded(rng, n, nnz, band))}
		})
	},
}

var nativeRADef = workloadDef{
	name:      "native-ra",
	why:       "RA-dominated native traffic (several RA events per stage enqueue): exercises the batched RA reader; the serial leg is the interpreter alone",
	pipeLeg:   "native.Run of the static BFS pipeline (3 stages + 3 RAs) on a grid",
	serialLeg: "native.Run of the serial baseline",
	work:      "ISA instructions executed, equal to the functional simulator's count",
	setup: func(seed int64, tiny bool, c *opCtx) (instance, error) {
		rng := rand.New(rand.NewSource(seed))
		return setupRunner(c, true, func() []*runCase {
			side := 300
			if tiny {
				side = 20
			}
			// Not drawSized: at this size the edge count varies by 0.1%
			// and a generation takes as long as the rest of set-up.
			g := graph.Grid("grid", side, side, rng.Int63())
			return []*runCase{bfsCase(g, int64(rng.Intn(g.NumVertices())))}
		})
	},
}

var nativeStageDef = workloadDef{
	name:      "native-stage",
	why:       "stage-to-stage channel traffic with no RAs: where send batching, stage fusion and commopt capacities must show, while native-ra should barely move",
	pipeLeg:   "native.Run of the static SpMM pipeline on a banded matrix and its transpose",
	serialLeg: "native.Run of the serial baseline",
	work:      "ISA instructions executed, equal to the functional simulator's count",
	setup: func(seed int64, tiny bool, c *opCtx) (instance, error) {
		rng := rand.New(rand.NewSource(seed))
		return setupRunner(c, true, func() []*runCase {
			n, nnz, band := 112, 16, 48
			if tiny {
				n, nnz, band = 16, 4, 6
			}
			return []*runCase{spmmCase(sizedBanded(rng, n, nnz, band))}
		})
	},
}
