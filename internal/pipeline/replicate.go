package pipeline

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/ir"
)

// Replicate builds an R-replica pipeline from a single-core pipeline
// (Sec. IV-C): replica r's stages run on core r, with private copies of the
// queues and reference accelerators. Slots named in shared stay bound to one
// array (e.g., the input graph) and must be read-only: Replicate rejects a
// shared slot that some stage stores to or swaps. All other slots are
// privatized per replica (slot "cur_fringe" becomes "r0.cur_fringe", ...).
// Scalar parameters listed in perReplica get per-replica override values
// (e.g., a replica id). The replicated pipeline comes back lowered.
//
// This realizes the paper's `#pragma replicate`: the caller (or the
// replicate_arguments() analogue in the bench harness) decides which data
// structures are shared and how work partitions across replicas.
func Replicate(pl *Pipeline, replicas int, shared []string,
	perReplica map[string][]int64) (*Pipeline, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("pipeline: replicas must be >= 1")
	}
	if err := pl.noFanOuts(); err != nil {
		return nil, err
	}
	sharedSet := map[string]bool{}
	for _, s := range shared {
		sharedSet[s] = true
	}
	for name, vals := range perReplica {
		if len(vals) != replicas {
			return nil, fmt.Errorf("pipeline: perReplica[%q] has %d values for %d replicas", name, len(vals), replicas)
		}
	}

	src := pl.Prog
	if len(shared) > 0 {
		progs, err := FlattenStages(pl)
		if err != nil {
			return nil, err
		}
		written := writtenSlots(progs, len(src.Slots))
		for i, s := range src.Slots {
			if sharedSet[s.Name] && written[i] {
				return nil, fmt.Errorf("pipeline: shared slot %q is written by a stage; replicas would race on it", s.Name)
			}
		}
	}
	out := &Pipeline{
		Prog: &ir.Prog{
			Name:         src.Name + "-x" + fmt.Sprint(replicas),
			Vars:         src.Vars,
			ScalarParams: src.ScalarParams,
		},
		Description: fmt.Sprintf("%s, replicated x%d", pl.Description, replicas),
	}

	// Slot table: shared slots once, private slots per replica.
	slotMap := make([][]int, replicas) // replica -> old slot -> new slot
	sharedIdx := map[string]int{}
	for r := 0; r < replicas; r++ {
		slotMap[r] = make([]int, len(src.Slots))
		for i, s := range src.Slots {
			if sharedSet[s.Name] {
				idx, ok := sharedIdx[s.Name]
				if !ok {
					idx = len(out.Prog.Slots)
					out.Prog.Slots = append(out.Prog.Slots, s)
					sharedIdx[s.Name] = idx
				}
				slotMap[r][i] = idx
				continue
			}
			idx := len(out.Prog.Slots)
			out.Prog.Slots = append(out.Prog.Slots,
				ir.SlotInfo{Name: fmt.Sprintf("r%d.%s", r, s.Name), Kind: s.Kind})
			slotMap[r][i] = idx
		}
	}

	for r := 0; r < replicas; r++ {
		qBase := len(out.Queues)
		for _, q := range pl.Queues {
			out.Queues = append(out.Queues, Queue{Name: fmt.Sprintf("r%d.%s", r, q.Name), Depth: q.Depth})
		}
		for _, ra := range pl.RAs {
			c := ra
			c.Name = fmt.Sprintf("r%d.%s", r, ra.Name)
			c.InQ += qBase
			c.OutQ += qBase
			c.Slot = slotMap[r][ra.Slot]
			c.Core = r
			out.RAs = append(out.RAs, c)
		}
		for _, st := range pl.Stages {
			ov := map[string]int64{}
			for k, v := range st.Overrides {
				ov[k] = v
			}
			for name, vals := range perReplica {
				ov[name] = vals[r]
			}
			out.Stages = append(out.Stages, &Stage{
				Name:      fmt.Sprintf("r%d.%s", r, st.Name),
				Body:      rewriteStage(st.Body, qBase, slotMap[r]),
				Thread:    arch.ThreadID{Core: r, Thread: st.Thread.Thread},
				Overrides: ov,
			})
		}
	}
	Lower(out)
	return out, nil
}

// rewriteStage deep-copies a stage body with queue and slot renumbering.
func rewriteStage(body []ir.Stmt, qBase int, slotMap []int) []ir.Stmt {
	fixRval := func(r ir.Rval) ir.Rval {
		switch r := r.(type) {
		case *ir.RvalLoad:
			c := *r
			c.Slot = slotMap[r.Slot]
			return &c
		case *ir.RvalDeq:
			c := *r
			c.Q += qBase
			return &c
		}
		return r
	}
	var walk func(list []ir.Stmt) []ir.Stmt
	walk = func(list []ir.Stmt) []ir.Stmt {
		out := make([]ir.Stmt, 0, len(list))
		for _, s := range list {
			switch s := s.(type) {
			case *ir.Assign:
				c := *s
				c.Src = fixRval(s.Src)
				out = append(out, &c)
			case *ir.Store:
				c := *s
				c.Slot = slotMap[s.Slot]
				out = append(out, &c)
			case *ir.If:
				c := *s
				c.Then = walk(s.Then)
				c.Else = walk(s.Else)
				out = append(out, &c)
			case *ir.Loop:
				c := *s
				c.Pre = walk(s.Pre)
				c.Body = walk(s.Body)
				out = append(out, &c)
			case *ir.Enq:
				c := *s
				c.Q += qBase
				out = append(out, &c)
			case *ir.EnqCtrl:
				c := *s
				c.Q += qBase
				out = append(out, &c)
			case *ir.SetHandler:
				c := *s
				c.Q += qBase
				out = append(out, &c)
			case *ir.Swap:
				c := *s
				c.A = slotMap[s.A]
				c.B = slotMap[s.B]
				out = append(out, &c)
			default:
				out = append(out, s)
			}
		}
		return out
	}
	return walk(body)
}
