package main

// autotune-graph: the search engine plus many short, budget-aborted timing
// simulations, the same sim layer used differently from sim-*'s few long
// complete runs.

import (
	"fmt"
	"math/rand"
	"strings"

	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/graph"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// searchWorkers is core.Options.Parallelism of every autotune: the two
// processors the benchmark runs on.
const searchWorkers = 2

// tuneKernel is one kernel with its training inputs.
type tuneKernel struct {
	name, src string
	train     []*runCase
	serial    *pipeline.Pipeline
	// staticCycles is what the static flow's pipeline takes on the training
	// inputs; it is always a candidate, so the winner may not be slower.
	staticCycles uint64
}

type autotuneGraph struct {
	kernels []*tuneKernel
}

var autotuneGraphDef = workloadDef{
	name:      "autotune-graph",
	why:       "the search engine plus many short, budget-aborted timing simulations: a timing-loop change that helps sim-*'s long complete runs but hurts aborts shows here",
	pipeLeg:   "core.CompileSource with Mode Autotune, default options, Parallelism 2, on BFS then PRD, training on a power-law graph and a grid",
	serialLeg: "the serial baselines of BFS and PRD simulated on the same training inputs",
	work:      "simulated training cycles (pipe: the winners' TrainCycles)",
	setup:     setupAutotuneGraph,
}

func setupAutotuneGraph(seed int64, tiny bool, c *opCtx) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	n, side := 320, 18
	if tiny {
		n, side = 40, 6
	}
	var pl, grid *graph.CSR
	c.timed(c.root, "workloads.generate", func() {
		pl, grid = sizedPowerLaw(rng, n, 2), sizedGrid(rng, side)
	})
	plRoot, gridRoot := int64(rng.Intn(pl.NumVertices())), int64(rng.Intn(grid.NumVertices()))
	w := &autotuneGraph{kernels: []*tuneKernel{
		{name: "BFS", src: workloads.BFSSource, train: []*runCase{bfsCase(pl, plRoot), bfsCase(grid, gridRoot)}},
		{name: "PRD", src: workloads.PRDSource, train: []*runCase{prdCase(pl), prdCase(grid)}},
	}}
	for _, k := range w.kernels {
		var err error
		if k.serial, err = lowerSerial(&opCtx{}, noSpan, k.src); err != nil {
			return nil, fmt.Errorf("%s serial: %w", k.name, err)
		}
		res, err := core.CompileSource(k.src, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s static: %w", k.name, err)
		}
		for _, train := range k.trainers(&opCtx{}, noSpan) {
			cycles, err := train(res.Pipeline, core.Budget{})
			if err != nil {
				return nil, fmt.Errorf("%s static: %w", k.name, err)
			}
			k.staticCycles += cycles
		}
	}
	return w, nil
}

func (w *autotuneGraph) fingerprint() string {
	var parts []string
	for _, k := range w.kernels {
		for _, rc := range k.train {
			parts = append(parts, fmt.Sprintf("%s on %s hash %016x", rc.name, rc.input, hashBindings(rc.bindings)))
		}
	}
	return strings.Join(parts, "; ")
}

// trainers builds the kernel's training callbacks, one per training input.
// A callback simulates a candidate under the search's budget and checks its
// output, as internal/bench's do: a candidate that computes the wrong answer
// is skipped, not selected. Search workers call them concurrently.
func (k *tuneKernel) trainers(c *opCtx, parent spanID) []core.TrainFunc {
	var out []core.TrainFunc
	for _, rc := range k.train {
		rc := rc
		out = append(out, func(pl *pipeline.Pipeline, budget core.Budget) (uint64, error) {
			id := c.beginRun(parent, "core.train")
			defer c.end(id)
			inst, st, err := simulate(c, id, pl, rc.bindings, budget)
			if err != nil {
				return 0, err
			}
			vid := c.begin(id, "workloads.verify")
			err = rc.verify(inst)
			c.end(vid)
			if err != nil {
				return 0, err
			}
			return st.Cycles, nil
		})
	}
	return out
}

// autotune is one profile-guided compile of a kernel.
func (k *tuneKernel) autotune(c *opCtx) (*core.Result, error) {
	opt := core.DefaultOptions()
	opt.Mode = core.Autotune
	opt.Parallelism = searchWorkers
	if !c.traced() {
		opt.Training = k.trainers(c, noSpan)
		return core.CompileSource(k.src, opt)
	}
	p, err := frontend(c, c.root, k.src, true)
	if err != nil {
		return nil, err
	}
	lo := len(c.tr.spans)
	id := c.begin(c.root, "core.search")
	obs := &searchObserver{c: c, parent: id, names: searchSpans}
	opt.Observer = obs
	opt.Training = k.trainers(c, id)
	res, err := core.Compile(p, opt)
	c.end(id)
	obs.adoptRuns(lo)
	c.count("_busy_ns", float64(obs.busy))
	c.count("_search_ns", float64(c.tr.duration(id))*searchWorkers)
	return res, err
}

func (w *autotuneGraph) run(c *opCtx) opResult {
	var res opResult
	results := make([]*core.Result, len(w.kernels))
	cost, err := timeLeg(func() error {
		for i, k := range w.kernels {
			var err error
			if results[i], err = k.autotune(c); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
		}
		return nil
	})
	res.pipe, res.alloc, res.err = cost.wall, cost.bytes, err
	if res.err != nil {
		return res
	}

	cost, err = timeLeg(func() error {
		for _, k := range w.kernels {
			for _, train := range k.trainers(c, c.root) {
				cycles, err := train(k.serial, core.Budget{})
				if err != nil {
					return fmt.Errorf("%s serial: %w", k.name, err)
				}
				res.serialWork += cycles
			}
		}
		return nil
	})
	res.serial, res.err = cost.wall, err
	res.alloc += cost.bytes
	if res.err != nil {
		return res
	}

	id := c.begin(c.root, "workloads.verify")
	defer c.end(id)
	for i, k := range w.kernels {
		r := results[i]
		switch {
		case r.Cancelled:
			res.err = fmt.Errorf("%s: search cancelled: %v", k.name, r.CancelCause)
		case r.TrainCycles > k.staticCycles:
			res.err = fmt.Errorf("%s: winner takes %d training cycles, the static pipeline %d", k.name, r.TrainCycles, k.staticCycles)
		}
		if res.err != nil {
			return res
		}
		res.pipeWork += r.TrainCycles
		res.ident += fmt.Sprintf("%s=%016x ", k.name, pipelineHash(r.Pipeline))

		var pred, got []float64
		for _, pt := range r.Points {
			if pt.Skip == nil {
				pred, got = append(pred, float64(pt.PredictedCycles)), append(got, float64(pt.Cycles))
			}
		}
		c.count("costmodel.rank_corr", costmodel.SpearmanRank(pred, got)/float64(len(w.kernels)))
		c.count("core.enumerated", float64(r.Enumerated))
		c.count("core.searched", float64(r.Searched))
		c.count("core.deduped", float64(r.Deduped))
		c.count("core.skipped", float64(len(r.Skips)))
		c.count("_completed", float64(len(got)))
		c.count("_trained", float64(r.Searched-1))
		if err := probeCompiled(c, id, r); err != nil {
			res.err = fmt.Errorf("%s: %w", k.name, err)
			return res
		}
	}
	return res
}
