// Package fault provides seeded, deterministic fault plans that attack the
// autotune search itself: seeded panics inside candidate builds,
// verifier-rejected pipeline sabotage, and mid-flight cancellation. They
// test that the candidate search always terminates, classifies every lost
// candidate on Result.Skips, and stays deterministic under any
// Options.Parallelism.
//
// Injection sites are keyed by a hash of the candidate pipeline's structural
// description, not by call order: with Parallelism > 1 the PostBuild hook
// runs concurrently on workers in nondeterministic order, so an order-based
// counter would inject into different candidates run to run. Hashing the
// candidate identity makes the afflicted set a pure function of (plan,
// candidate), independent of scheduling.
package fault

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
)

// SearchPlan describes one deterministic search-layer fault scenario.
// Zero-valued fields are inactive; the zero SearchPlan injects nothing.
type SearchPlan struct {
	// Name identifies the plan in test output and CLI flags.
	Name string
	// Desc is a one-line human description for plan listings.
	Desc string
	// Seed keys the candidate hash selecting which pipelines are hit.
	Seed uint64

	// PanicOneIn panics inside the PostBuild hook for roughly 1-in-N
	// candidates (0: never). The search must absorb the panic as a
	// SkipPanic record.
	PanicOneIn int
	// SabotageOneIn corrupts roughly 1-in-N candidate pipelines with a
	// protocol violation the static verifier rejects (0: never), producing
	// SkipVerifier records.
	SabotageOneIn int
	// CancelAfter cancels the search context once this many training
	// measurements have completed (0: never) — a mid-flight interruption.
	CancelAfter int32
}

func (p SearchPlan) String() string {
	s := p.Name
	if s == "" {
		s = "search-plan"
	}
	if p.PanicOneIn > 0 {
		s += fmt.Sprintf(" panic=1/%d", p.PanicOneIn)
	}
	if p.SabotageOneIn > 0 {
		s += fmt.Sprintf(" sabotage=1/%d", p.SabotageOneIn)
	}
	if p.CancelAfter > 0 {
		s += fmt.Sprintf(" cancel@%d", p.CancelAfter)
	}
	return s
}

// candHash deterministically maps a candidate pipeline's structural identity
// to a pseudo-random value under the plan seed.
func candHash(key string, seed uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	s := h.Sum64() ^ seed
	return splitmix64(&s)
}

// sabotage inserts an enq_ctrl with an application code no consumer
// dispatches next to the first control enqueue — the same rule-C2 violation
// the verifier tests use. Single-stage pipelines with no control traffic
// are left intact (nothing to sabotage).
func sabotage(pl *pipeline.Pipeline) {
	for _, st := range pl.Stages {
		for i, s := range st.Body {
			if ec, ok := s.(*ir.EnqCtrl); ok {
				rogue := &ir.EnqCtrl{Q: ec.Q, Code: arch.CtrlUser + 7}
				st.Body = append(st.Body[:i:i], append([]ir.Stmt{rogue}, st.Body[i:]...)...)
				return
			}
		}
	}
}

// Arm installs the plan on a compilation: PanicOneIn/SabotageOneIn wrap
// Options.PostBuild (preserving any existing hook, which runs first), and
// CancelAfter wraps every Options.Training func and layers a cancellable
// context over Options.Ctx. The returned cancel func releases the context
// and must be called when the compilation finishes; it is a no-op for plans
// without CancelAfter.
func (p SearchPlan) Arm(opt *core.Options) context.CancelFunc {
	if p.PanicOneIn > 0 || p.SabotageOneIn > 0 {
		prev := opt.PostBuild
		plan := p
		opt.PostBuild = func(pl *pipeline.Pipeline) {
			if prev != nil {
				prev(pl)
			}
			key := pl.Describe()
			if plan.PanicOneIn > 0 && candHash(key, plan.Seed)%uint64(plan.PanicOneIn) == 0 {
				panic(fmt.Sprintf("fault: injected build panic (plan %s)", plan.Name))
			}
			if plan.SabotageOneIn > 0 && candHash(key, plan.Seed^0x5eedbeef)%uint64(plan.SabotageOneIn) == 0 {
				sabotage(pl)
			}
		}
	}
	cancel := context.CancelFunc(func() {})
	if p.CancelAfter > 0 {
		base := opt.Ctx
		if base == nil {
			base = context.Background()
		}
		ctx, c := context.WithCancel(base)
		opt.Ctx, cancel = ctx, c
		var done int32
		n := p.CancelAfter
		for i, train := range opt.Training {
			train := train
			opt.Training[i] = func(pl *pipeline.Pipeline, b core.Budget) (uint64, error) {
				cycles, err := train(pl, b)
				if atomic.AddInt32(&done, 1) == n {
					c()
				}
				return cycles, err
			}
		}
	}
	return cancel
}

// NamedSearch returns the hand-written search-layer plans, each stressing
// one failure class plus a combined storm.
func NamedSearch() []SearchPlan {
	return []SearchPlan{
		{Name: "search-panic", Desc: "panic inside roughly every 3rd candidate build",
			Seed: 11, PanicOneIn: 3},
		{Name: "search-sabotage", Desc: "corrupt roughly every 3rd candidate so the verifier rejects it",
			Seed: 12, SabotageOneIn: 3},
		{Name: "search-cancel", Desc: "cancel the search after 3 completed measurements",
			CancelAfter: 3},
		{Name: "search-storm", Desc: "panics, sabotage, and a mid-flight cancel together",
			Seed: 13, PanicOneIn: 4, SabotageOneIn: 4, CancelAfter: 6},
	}
}

// NewSearch derives a pseudo-random search plan from a seed, reproducible
// from the seed alone.
func NewSearch(seed uint64) SearchPlan {
	s := seed
	next := func() uint64 { return splitmix64(&s) }
	return SearchPlan{
		Name:          fmt.Sprintf("search-seed-%d", seed),
		Desc:          fmt.Sprintf("pseudo-random search-fault mix expanded from seed %d", seed),
		Seed:          next(),
		PanicOneIn:    2 + int(next()%4),
		SabotageOneIn: 2 + int(next()%4),
		CancelAfter:   3 + int32(next()%8),
	}
}

// splitmix64 is the standard SplitMix64 PRNG step.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
