package verify

// W*/Q4 — queue capacity rules. The cost model in internal/costmodel
// estimates, for every queue, the largest token burst a producer emits
// before its consumer is guaranteed a chance to drain, and recommends a
// capacity (clamped to the architectural QueueDepth). A queue whose Depth
// override sits below that recommendation serializes its producer against
// its consumer on every burst — legal, but it forfeits the latency hiding
// the queue exists to provide, so it is reported as a warning. The rule id
// distinguishes who is responsible: W1 blames the pipeline author (explicit
// Depth), W2 blames a compiler pass (Queue.DepthByPass). Queues at the
// machine default (Depth 0) are never flagged: the default capacity is the
// clamp, so it always satisfies the recommendation.
//
// Q4 (error) checks the premises of the commopt capacity-assignment
// deadlock argument (DESIGN.md section 14) on every pass-assigned queue,
// with an implementation independent of the pass's own Plan.Check:
//
//   - the queue must not be backward (a feedback queue whose producer sits
//     later in the forward chain than a consumer) — feedback queues close
//     the pipeline's waits-for cycles and must keep the machine default;
//   - the assigned depth must not exceed the architectural QueueDepth;
//   - the assigned depth must cover the producer's commitment floors: the
//     longest back-to-back enqueue run into the queue, and the largest
//     static number of enqueue sites in any single producing stage (the
//     stage's whole per-token commitment).
//
// A violation means an assignment could wedge the pipeline where the
// default configuration would not — exactly the regression the pass's
// proof rules out, hence an error rather than a warning.

import (
	"phloem/internal/arch"
	"phloem/internal/costmodel"
	"phloem/internal/isa"
)

// checkCapacity flags unsound pass assignments and, with costWarnings, runs
// the static throughput model over the pipeline (reusing the stage programs
// flattened by buildModel) to flag undersized queues.
//
//	W1: an author's Depth override is below the recommended capacity.
//	W2: a pass-assigned Depth is below the recommended capacity.
//	Q4: a pass-assigned Depth violates the deadlock-safety premises.
func (m *model) checkCapacity(costWarnings bool) {
	cfg := arch.DefaultConfig(1)
	if costWarnings {
		m.checkRecommended(cfg)
	}
	m.checkAssignedCapacities(cfg)
}

func (m *model) checkRecommended(cfg arch.Config) {
	rep := costmodel.AnalyzeFlat(m.pl, cfg, m.progs)
	for _, q := range rep.Queues {
		if q.Depth > 0 && q.Depth < q.Recommended {
			if m.pl.Queues[q.ID].DepthByPass {
				m.diag("W2", SevWarning, "", q.ID, -1,
					"pass-assigned capacity %d below statically recommended %d (burst %.0f tokens, %.1f data tokens/unit)",
					q.Depth, q.Recommended, q.Burst, q.Data)
			} else {
				m.diag("W1", SevWarning, "", q.ID, -1,
					"queue capacity %d below statically recommended %d (burst %.0f tokens, %.1f data tokens/unit)",
					q.Depth, q.Recommended, q.Burst, q.Data)
			}
		}
	}
}

func (m *model) checkAssignedCapacities(cfg arch.Config) {
	var assigned []int
	for q := range m.pl.Queues {
		if m.pl.Queues[q].DepthByPass && m.pl.Queues[q].Depth > 0 {
			assigned = append(assigned, q)
		}
	}
	if len(assigned) == 0 {
		return
	}
	pos := m.chainPositions()
	gFloor, sFloor := m.commitmentFloors()
	for _, q := range assigned {
		d := m.pl.Queues[q].Depth
		if d > cfg.QueueDepth {
			m.diag("Q4", SevError, "", q, -1,
				"pass-assigned capacity %d exceeds the architectural queue depth %d", d, cfg.QueueDepth)
		}
		back := false
		for _, p := range m.producers[q] {
			for _, c := range m.consumers[q] {
				if pos[p] > pos[c] {
					back = true
				}
			}
		}
		if back {
			m.diag("Q4", SevError, "", q, -1,
				"pass assigned a backward (feedback) queue; feedback queues must keep the machine default capacity")
			continue
		}
		if d < gFloor[q] {
			m.diag("Q4", SevError, "", q, -1,
				"pass-assigned capacity %d below the longest back-to-back enqueue run (%d tokens); the producer could wedge mid-burst",
				d, gFloor[q])
		}
		if d < sFloor[q] {
			m.diag("Q4", SevError, "", q, -1,
				"pass-assigned capacity %d below the producer's per-token commitment (%d enqueue sites); a full queue could block a partially emitted token",
				d, sFloor[q])
		}
	}
}

// chainPositions ranks entities along the forward pipeline chain: stage i
// at position i, an RA half a step after the latest stage feeding its input
// queue (relay chains resolve by relaxation).
func (m *model) chainPositions() []float64 {
	n := m.numStages() + len(m.pl.RAs)
	pos := make([]float64, n)
	for i := 0; i < m.numStages(); i++ {
		pos[i] = float64(i)
	}
	for r := range m.pl.RAs {
		pos[m.numStages()+r] = -1
	}
	for round := 0; round <= len(m.pl.RAs); round++ {
		for r, ra := range m.pl.RAs {
			ent := m.numStages() + r
			if ra.InQ < 0 || ra.InQ >= len(m.pl.Queues) {
				pos[ent] = 0
				continue
			}
			best := -1.0
			for _, p := range m.producers[ra.InQ] {
				if p != ent && pos[p] > best {
					best = pos[p]
				}
			}
			if best >= 0 {
				pos[ent] = best + 0.5
			}
		}
	}
	for r := range m.pl.RAs {
		if pos[m.numStages()+r] < 0 {
			pos[m.numStages()+r] = 0
		}
	}
	return pos
}

// commitmentFloors computes, per queue, the longest back-to-back enqueue
// run (broken by any dequeue/peek or a switch to another queue) and the
// largest static number of enqueue sites in any single producing stage.
func (m *model) commitmentFloors() (group, site []int) {
	group = make([]int, len(m.pl.Queues))
	site = make([]int, len(m.pl.Queues))
	for i := range group {
		group[i], site[i] = 1, 1
	}
	for _, prog := range m.progs {
		if prog == nil {
			continue
		}
		curQ, curLen := -1, 0
		sites := map[int]int{}
		for _, in := range prog.Instrs {
			switch in.Op {
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				sites[in.Q]++
				if in.Q == curQ {
					curLen++
				} else {
					curQ, curLen = in.Q, 1
				}
				if curLen > group[curQ] {
					group[curQ] = curLen
				}
			case isa.OpDeq, isa.OpPeek:
				curQ, curLen = -1, 0
			}
		}
		for q, nsites := range sites {
			if nsites > site[q] {
				site[q] = nsites
			}
		}
	}
	return group, site
}
