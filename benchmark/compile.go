package main

// compile-suite: the only workload where the frontend, the passes, commopt
// and the verifier do all the work and the simulator and the native backend
// do none.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"phloem/internal/core"
	"phloem/internal/graph"
	"phloem/internal/matrix"
	"phloem/internal/pipeline"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

// kernel is one input program of the suite.
type kernel struct {
	name string
	// src is the kernel's source text; Taco kernels have none and are
	// emitted from their expression inside the operation.
	src  string
	taco taco.Kernel
	// reject marks the kernel the effects analysis must refuse with E0.
	reject bool
	// bind and verify run the compiled kernel once during set-up, against
	// the plain-Go reference.
	bind   func(in *tinyInputs) pipeline.Bindings
	verify func(in *tinyInputs, inst *pipeline.Instance, b pipeline.Bindings) error
}

// tinyInputs are the inputs set-up runs each compiled kernel on.
type tinyInputs struct {
	g     *graph.CSR
	root  int64
	m, mt *matrix.CSR
	seed  int64
}

func suiteKernels() []kernel {
	ks := []kernel{
		{name: "BFS", src: workloads.BFSSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.BFSBindings(in.g, in.root) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return workloads.BFSVerify(inst, in.g, in.root)
			}},
		{name: "CC", src: workloads.CCSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.CCBindings(in.g) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return workloads.CCVerify(inst, in.g)
			}},
		{name: "PRD", src: workloads.PRDSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.PRDBindings(in.g) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return workloads.PRDVerify(inst, in.g)
			}},
		{name: "Radii", src: workloads.RadiiSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.RadiiBindings(in.g, in.seed) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return workloads.RadiiVerify(inst, in.g, in.seed)
			}},
		{name: "SpMM", src: workloads.SpMMSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.SpMMBindings(in.m, in.mt) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return workloads.SpMMVerify(inst, in.m, in.mt)
			}},
		{name: "PRDApply", src: workloads.PRDApplySource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.PRDApplyBindings(in.m.N, in.seed) },
			verify: func(_ *tinyInputs, inst *pipeline.Instance, b pipeline.Bindings) error {
				return workloads.PRDApplyVerify(inst, b)
			}},
		{name: "SpMVNoRestrict", src: workloads.SpMVNoRestrictSource,
			bind: func(in *tinyInputs) pipeline.Bindings { return workloads.SpMVBindings(in.m) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, b pipeline.Bindings) error {
				return workloads.SpMVVerify(inst, in.m, b)
			}},
	}
	for _, k := range taco.Kernels() {
		k := k
		ks = append(ks, kernel{name: "taco-" + string(k), taco: k,
			bind: func(in *tinyInputs) pipeline.Bindings { return taco.Bindings(k, in.m, in.seed) },
			verify: func(in *tinyInputs, inst *pipeline.Instance, _ pipeline.Bindings) error {
				return taco.Verify(k, in.m, in.seed, inst)
			}})
	}
	return append(ks, kernel{name: "BFSAliased", src: workloads.BFSAliasedSource, reject: true})
}

type compileSuite struct {
	kernels []kernel
	// hashes holds the pipeline hash of each kernel as set-up compiled and
	// ran it; an operation that compiles anything else has failed.
	hashes []uint64
	bytes  int
}

var compileSuiteDef = workloadDef{
	name:      "compile-suite",
	why:       "only workload where source/effects/lower/passes/commopt/verify do all the work and sim/native none; a pass or verifier change shows here and nowhere else",
	pipeLeg:   "core.CompileSource (static, commopt on) over 11 kernels, plus BFSAliased which must be rejected with E0",
	serialLeg: "the same 11 kernels lowered to their serial one-stage programs and flattened, no pipelining passes",
	work:      "flattened ISA instructions of every stage of every kernel (generated-code size)",
	setup:     setupCompileSuite,
}

// setupCompileSuite draws the kernel order from the seed, compiles every
// kernel once and runs the result on a small seed-generated input against the
// Go reference, so that the hash an operation must reproduce belongs to a
// pipeline known to compute the right answer.
func setupCompileSuite(seed int64, tiny bool, c *opCtx) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &compileSuite{kernels: suiteKernels()}
	rng.Shuffle(len(w.kernels), func(i, j int) { w.kernels[i], w.kernels[j] = w.kernels[j], w.kernels[i] })

	in := &tinyInputs{seed: rng.Int63()}
	c.timed(c.root, "workloads.generate", func() {
		in.g = graph.PowerLaw("tiny-powerlaw", 64, 2, rng.Int63())
		in.root = int64(rng.Intn(in.g.NumVertices()))
		in.m = matrix.Banded("tiny-banded", 24, 4, 6, rng.Int63())
		in.mt = in.m.Transpose("tiny-bandedT")
	})
	for _, k := range w.kernels {
		src, err := k.source()
		if err != nil {
			return nil, err
		}
		w.bytes += len(src)
		if k.reject {
			w.hashes = append(w.hashes, 0)
			continue
		}
		res, err := core.CompileSource(src, staticOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		b := k.bind(in)
		inst, err := pipeline.Instantiate(res.Pipeline, machineCfg, b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		if _, err := inst.Machine.RunFunctional(); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		if err := k.verify(in, inst, b); err != nil {
			return nil, fmt.Errorf("%s: compiled pipeline computes the wrong answer: %w", k.name, err)
		}
		w.hashes = append(w.hashes, pipelineHash(res.Pipeline))
	}
	return w, nil
}

func (k kernel) source() (string, error) {
	if k.taco != "" {
		return taco.Emit(k.taco)
	}
	return k.src, nil
}

func (w *compileSuite) fingerprint() string {
	h := fnv.New64a()
	var names []string
	for _, k := range w.kernels {
		src, _ := k.source() // set-up already emitted every kernel
		h.Write([]byte(src))
		names = append(names, k.name)
	}
	return fmt.Sprintf("N=%d kernels, %d source bytes, order %s, hash %016x",
		len(w.kernels), w.bytes, strings.Join(names, ","), h.Sum64())
}

func (w *compileSuite) run(c *opCtx) opResult {
	var res opResult
	srcs := make([]string, len(w.kernels))
	compiled := make([]*core.Result, len(w.kernels))

	cost, err := timeLeg(func() error {
		for i, k := range w.kernels {
			var err error
			if k.taco != "" {
				c.timed(c.root, "taco.emit", func() { srcs[i], err = taco.Emit(k.taco) })
				if err != nil {
					return err
				}
			} else {
				srcs[i] = k.src
			}
			compiled[i], err = compileStatic(c, c.root, srcs[i])
			switch {
			case k.reject && err == nil:
				return fmt.Errorf("%s: accepted, want an E0 rejection", k.name)
			case k.reject && !strings.Contains(err.Error(), "E0"):
				return fmt.Errorf("%s: rejected for the wrong reason: %w", k.name, err)
			case !k.reject && err != nil:
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
		for i, k := range w.kernels {
			if k.reject {
				continue
			}
			pl, err := lowerSerial(c, c.root, srcs[i])
			if err != nil {
				return fmt.Errorf("%s serial: %w", k.name, err)
			}
			id := c.begin(c.root, "harness.flatten")
			n, err := flatInstrs(pl)
			c.end(id)
			if err != nil {
				return fmt.Errorf("%s serial: %w", k.name, err)
			}
			res.serialWork += n
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
		if k.reject {
			continue
		}
		pl := compiled[i].Pipeline
		if h := pipelineHash(pl); h != w.hashes[i] {
			res.err = fmt.Errorf("%s: pipeline hash %016x, set-up compiled and verified %016x", k.name, h, w.hashes[i])
			return res
		}
		n, err := flatInstrs(pl)
		if err != nil {
			res.err = fmt.Errorf("%s: %w", k.name, err)
			return res
		}
		res.pipeWork += n
		c.count("pipeline.flat_instrs", float64(n))
		if err := probeCompiled(c, id, compiled[i]); err != nil {
			res.err = fmt.Errorf("%s: %w", k.name, err)
			return res
		}
	}
	return res
}
