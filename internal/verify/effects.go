package verify

// Memory-effects cross-check (E* rules): per-entity MOD/REF summaries over
// each stage's flattened ISA program, compared across stages and RAs. The
// compiler's race rule (Fig. 4) guarantees a compiled pipeline never splits
// conflicting accesses across entities; these rules re-derive that property
// from the final ISA so hand-built or mutated pipelines are caught too.
//
//   - E1 two entities write the same slot in the same barrier epoch
//   - E2 one stage writes a slot another stage reads in the same epoch
//   - E3 a stage writes a slot an RA stream-reads in the same epoch (the RA
//     may run arbitrarily far ahead of the writing stage)
//   - E4 writes to distinct slots the frontend could not prove disjoint
//     (Prog.Alias) land in different entities in the same epoch
//
// Epochs are attributed textually: an access's epoch is the number of
// OpBarrier instructions before its pc. The pass pipeline inserts barriers
// uniformly across stages, so textual epochs align; accesses in different
// epochs are barrier-synchronized and exempt. Three more exemptions keep
// every correctly compiled pipeline silent:
//
//   - slots connected by OpSwapSlots form a swap class; double-buffered
//     accesses are epoch-synchronized by the swap (same-slot rules skip any
//     swapped slot, E4 skips pairs inside one class)
//   - stages with scalar Overrides are data-parallel workers whose arrays
//     are partitioned by those scalars, beyond this slot-level model
//   - OpPrefetch warms a line without an architectural read: not MOD/REF
//
// A nil Prog.Alias means identity aliasing (distinct slots disjoint), which
// is exactly the historical restrict guarantee for hand-built pipelines.

import (
	"slices"

	"phloem/internal/isa"
)

// epochSet is a set of textual barrier epochs, sorted.
type epochSet []int

// add inserts e and reports whether it was missing.
func (s *epochSet) add(e int) bool {
	i, found := slices.BinarySearch(*s, e)
	if !found {
		*s = slices.Insert(*s, i, e)
	}
	return !found
}

// sharesEpoch reports whether a and b have an epoch in common.
func sharesEpoch(a, b epochSet) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// effAccess records where one entity touches one array slot; an access with
// no epoch is no access.
type effAccess struct {
	pc     int      // first pc in the flattened program (-1 for RAs)
	epochs epochSet // textual barrier epochs the access can run in
}

func (a *effAccess) add(pc, epoch int) {
	if len(a.epochs) == 0 {
		a.pc = pc
	}
	a.epochs.add(epoch)
}

// effEntity is the MOD/REF summary for one stage or RA.
type effEntity struct {
	mods []effAccess // per slot: writes
	refs []effAccess // per slot: reads
	enqs []epochSet  // per queue: epochs of enqueues (for RA chaining)
}

// reset empties e for nSlots slots and nq queues, keeping its storage.
func (e *effEntity) reset(nSlots, nq int) {
	e.mods, e.refs = resized(e.mods, nSlots), resized(e.refs, nSlots)
	for s := range e.mods {
		e.mods[s].epochs, e.refs[s].epochs = e.mods[s].epochs[:0], e.refs[s].epochs[:0]
	}
	e.enqs = resized(e.enqs, nq)
	for q := range e.enqs {
		e.enqs[q] = e.enqs[q][:0]
	}
}

// effScratch holds checkEffects' tables between pipelines.
type effScratch struct {
	ents     []effEntity
	raEpochs []epochSet
	swap     slotUF
	swapped  []bool
	seen     map[[4]int]bool // {writer, partner, write slot, partner slot}
}

// slotUF is a union-find over slot ids for ISA-level swap classes.
type slotUF struct{ rep []int }

// reset makes u n singleton classes.
func (u *slotUF) reset(n int) {
	u.rep = resized(u.rep, n)
	for i := range u.rep {
		u.rep[i] = i
	}
}

func (u *slotUF) find(i int) int {
	if u.rep[i] != i {
		u.rep[i] = u.find(u.rep[i])
	}
	return u.rep[i]
}

func (u *slotUF) union(a, b int) { u.rep[u.find(a)] = u.find(b) }

func (u *slotUF) same(a, b int) bool { return u.find(a) == u.find(b) }

func (m *model) checkEffects() {
	ns := m.numStages()
	nSlots, nq := len(m.pl.Prog.Slots), len(m.pl.Queues)
	es := &m.effects
	es.ents = resized(es.ents, ns+len(m.pl.RAs))
	ents := es.ents
	for i := range ents {
		ents[i].reset(nSlots, nq)
	}
	swap := &es.swap
	swap.reset(nSlots)
	es.swapped = resized(es.swapped, nSlots)
	swapped := es.swapped
	clear(swapped)

	for i := range m.pl.Stages {
		e := &ents[i]
		prog := m.progs[i]
		if prog == nil {
			continue // D0 already explains the gap
		}
		epoch := 0
		for pc, in := range prog.Instrs {
			switch in.Op {
			case isa.OpBarrier:
				epoch++
			case isa.OpLoad:
				e.refs[in.Slot].add(pc, epoch)
			case isa.OpStore:
				e.mods[in.Slot].add(pc, epoch)
			case isa.OpSwapSlots:
				swap.union(in.Slot, in.Slot2)
				swapped[in.Slot], swapped[in.Slot2] = true, true
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				e.enqs[in.Q].add(epoch)
			}
		}
	}

	// An RA reads its slot whenever work arrives on its input queue: its
	// read epochs are the epochs of enqueues into InQ, chained through
	// upstream RAs to a fixpoint.
	es.raEpochs = resized(es.raEpochs, len(m.pl.RAs))
	raEpochs := es.raEpochs
	for r := range raEpochs {
		raEpochs[r] = raEpochs[r][:0]
	}
	for changed := true; changed; {
		changed = false
		for r, ra := range m.pl.RAs {
			if ra.InQ < 0 || ra.InQ >= len(m.producers) {
				continue
			}
			for _, p := range m.producers[ra.InQ] {
				var src epochSet
				if p < ns {
					src = ents[p].enqs[ra.InQ]
				} else {
					src = raEpochs[p-ns]
				}
				for _, ep := range src {
					if raEpochs[r].add(ep) {
						changed = true
					}
				}
			}
		}
	}
	for r, ra := range m.pl.RAs {
		if ra.Slot >= 0 && ra.Slot < nSlots && len(raEpochs[r]) > 0 {
			a := &ents[ns+r].refs[ra.Slot]
			a.pc, a.epochs = -1, append(a.epochs[:0], raEpochs[r]...)
		}
	}

	entName := func(ent int) string {
		if ent < ns {
			return m.pl.Stages[ent].Name
		}
		return "RA " + m.pl.RAs[ent-ns].Name
	}
	exempt := func(ent int) bool {
		// Data-parallel workers partition their arrays through scalar
		// overrides (thread id, partition base) — beyond this slot model.
		return ent < ns && len(m.pl.Stages[ent].Overrides) > 0
	}

	slotName := func(s int) string { return m.pl.Prog.Slots[s].Name }
	for s := 0; s < nSlots; s++ {
		for x := range ents {
			wa := &ents[x].mods[s]
			if len(wa.epochs) == 0 || exempt(x) {
				continue
			}
			if swapped[s] {
				continue // double-buffered: the swap epoch-synchronizes it
			}
			for y := range ents {
				if y == x || exempt(y) {
					continue
				}
				if x < y && sharesEpoch(wa.epochs, ents[y].mods[s].epochs) {
					m.diag("E1", SevError, entName(x), -1, wa.pc,
						"array %q is also written by %s in the same barrier epoch (unsynchronized write/write)",
						slotName(s), entName(y))
				}
				if !sharesEpoch(wa.epochs, ents[y].refs[s].epochs) {
					continue
				}
				if y < ns {
					m.diag("E2", SevError, entName(x), -1, wa.pc,
						"array %q is written here and read by %s in the same barrier epoch without a swap in between (Fig. 4)",
						slotName(s), entName(y))
				} else {
					m.diag("E3", SevError, entName(x), -1, wa.pc,
						"array %q is written here while %s stream-reads it in the same barrier epoch (the accelerator may run ahead)",
						slotName(s), entName(y))
				}
			}
		}
	}

	ai := m.pl.Prog.Alias
	if ai == nil {
		return
	}
	if es.seen == nil {
		es.seen = map[[4]int]bool{}
	}
	seen := es.seen
	clear(seen)
	for s := 0; s < nSlots; s++ {
		for t := 0; t < nSlots; t++ {
			if t == s || swap.same(s, t) || !ai.Conflicts(slotName(s), slotName(t)) {
				continue
			}
			for x := range ents {
				wa := &ents[x].mods[s]
				if len(wa.epochs) == 0 || exempt(x) {
					continue
				}
				for y := range ents {
					if y == x || exempt(y) {
						continue
					}
					hit := func(b *effAccess, what string) {
						if !sharesEpoch(wa.epochs, b.epochs) {
							return
						}
						// A write/write pair surfaces from both slot orders;
						// report it once, from the lower-numbered writer.
						if what == "write" && seen[[4]int{y, x, t, s}] {
							return
						}
						key := [4]int{x, y, s, t}
						if seen[key] {
							return
						}
						seen[key] = true
						m.diag("E4", SevError, entName(x), -1, wa.pc,
							"write to %q may alias %s's %s of %q (frontend verdict: %s) in the same barrier epoch",
							slotName(s), entName(y), what, slotName(t), ai.Verdict(slotName(s), slotName(t)))
					}
					hit(&ents[y].mods[t], "write")
					hit(&ents[y].refs[t], "read")
				}
			}
		}
	}
}
