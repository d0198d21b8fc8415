package ir

// Optimize performs the local cleanups a -O3 backend would: dead pure
// assignment elimination and adjacent copy merging (t = <op>; v = mov t
// becomes v = <op> when t has no other uses). It operates on one stage's
// body; stages have private registers, so per-body analysis is sound.
// The input tree is not mutated: a list is copied only when a statement in
// it changes, so a body no rule changes comes back as the same slice and
// Optimize allocates nothing for it (for programs of up to 128 variables).
func Optimize(p *Prog, body []Stmt) []Stmt {
	var small [128]varCount
	var o optimizer
	if len(p.Vars) <= len(small) {
		o.n = small[:len(p.Vars)]
	} else {
		o.n = make([]varCount, len(p.Vars))
	}
	out := body
	for i := 0; i < 4; i++ {
		clear(o.n)
		o.count(out)
		next, changed := o.rewrite(out)
		out = next
		if !changed {
			break
		}
	}
	return out
}

// varCount is how often one variable is read and assigned in a body.
type varCount struct{ uses, defs int32 }

// optimizer holds the per-variable counts of the body being rewritten,
// indexed by Var.
type optimizer struct {
	n []varCount
}

func (o *optimizer) at(v Var) *varCount {
	if int(v) >= len(o.n) {
		// A variable the program does not declare: only malformed IR.
		n := make([]varCount, int(v)+1)
		copy(n, o.n)
		o.n = n
	}
	return &o.n[v]
}

func (o *optimizer) use(x Operand) {
	if !x.IsConst {
		o.at(x.Var).uses++
	}
}

func (o *optimizer) count(list []Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			switch r := s.Src.(type) {
			case *RvalBin:
				o.use(r.A)
				o.use(r.B)
			case *RvalUn:
				o.use(r.A)
			case *RvalLoad:
				o.use(r.Idx)
			}
			o.at(s.Dst).defs++
		case *Store:
			o.use(s.Idx)
			o.use(s.Val)
		case *Prefetch:
			o.use(s.Idx)
		case *If:
			o.use(s.Cond)
			o.count(s.Then)
			o.count(s.Else)
		case *Loop:
			o.count(s.Pre)
			o.use(s.Cond)
			o.count(s.Body)
		case *Enq:
			o.use(s.Val)
		}
	}
}

// pureRval reports whether removing the assignment has no observable effect
// beyond its destination. Loads count as pure (a dead load would be removed
// by any optimizing backend); dequeues and handler reads have side effects.
func pureRval(r Rval) bool {
	switch r.(type) {
	case *RvalBin, *RvalUn, *RvalLoad:
		return true
	}
	return false
}

// rewrite applies one round of both rules to list and the lists nested in
// it. It returns list itself when nothing in it changed; otherwise a new
// list, whose If and Loop statements are copies where a nested list changed.
// changed reports whether a rule fired.
func (o *optimizer) rewrite(list []Stmt) (_ []Stmt, changed bool) {
	var out []Stmt // nil while out would equal list[:i]
	for i, s := range list {
		// emitted is the statement to keep in place of s: s itself, a copy
		// of it, or nil when s goes.
		emitted := s
		switch s := s.(type) {
		case *Assign:
			// Dead pure assignment.
			if o.n[s.Dst].uses == 0 && pureRval(s.Src) {
				emitted, changed = nil, true
				break
			}
			// Adjacent copy merge: previous assign defines t exactly
			// once, this is `v = mov t`, and t has no other uses.
			if un, ok := s.Src.(*RvalUn); ok && un.Op == OpMov && !un.A.IsConst {
				t := un.A.Var
				prevList := out
				if prevList == nil {
					prevList = list[:i]
				}
				if len(prevList) > 0 && o.n[t].uses == 1 && o.n[t].defs == 1 {
					if prev, ok2 := prevList[len(prevList)-1].(*Assign); ok2 && prev.Dst == t {
						merged := *prev
						merged.Dst = s.Dst
						if out == nil {
							out = append(make([]Stmt, 0, len(list)), list[:i]...)
						}
						out[len(out)-1] = &merged
						emitted, changed = nil, true
					}
				}
			}
		case *If:
			then, c1 := o.rewrite(s.Then)
			els, c2 := o.rewrite(s.Else)
			if !sameList(then, s.Then) || !sameList(els, s.Else) {
				c := *s
				c.Then, c.Else = then, els
				emitted = &c
			}
			changed = changed || c1 || c2
		case *Loop:
			pre, c1 := o.rewrite(s.Pre)
			body, c2 := o.rewrite(s.Body)
			if !sameList(pre, s.Pre) || !sameList(body, s.Body) {
				c := *s
				c.Pre, c.Body = pre, body
				emitted = &c
			}
			changed = changed || c1 || c2
		}
		if out == nil && emitted != s {
			out = append(make([]Stmt, 0, len(list)), list[:i]...)
		}
		if out != nil && emitted != nil {
			out = append(out, emitted)
		}
	}
	if out == nil {
		return list, changed
	}
	return out, changed
}

// sameList reports whether a and b are one slice.
func sameList(a, b []Stmt) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
