package effects

import (
	"fmt"
	"sort"
	"strings"

	"phloem/internal/ir"
	"phloem/internal/source"
)

// collectAccesses walks the function gathering one Access per textual array
// access, with indexes resolved through the affine environment.
func (a *Analysis) collectAccesses() {
	env := buildAffineEnv(a.Fn)
	var expr func(e source.Expr)
	expr = func(e source.Expr) {
		switch e := e.(type) {
		case *source.Index:
			expr(e.Idx)
			ac := Access{Param: e.Array, Line: e.Line, Ref: true}
			ac.Class, ac.Root, ac.Off = env.resolve(e.Idx, 0)
			a.Accesses = append(a.Accesses, ac)
		case *source.Binary:
			expr(e.L)
			expr(e.R)
		case *source.Unary:
			expr(e.X)
		case *source.Cast:
			expr(e.X)
		case *source.Call:
			for _, arg := range e.Args {
				expr(arg)
			}
		}
	}
	var walk func(list []source.Stmt)
	stmt := func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Block:
			walk(s.Stmts)
		case *source.DeclStmt:
			expr(s.Init)
		case *source.AssignStmt:
			if idx, ok := s.Target.(*source.Index); ok {
				expr(idx.Idx)
				ac := Access{Param: idx.Array, Line: s.Line, Mod: true, Ref: s.Op != "="}
				ac.Class, ac.Root, ac.Off = env.resolve(idx.Idx, 0)
				a.Accesses = append(a.Accesses, ac)
			}
			expr(s.Value)
		case *source.IfStmt:
			expr(s.Cond)
			walk(s.Then.Stmts)
			if s.Else != nil {
				walk(s.Else.Stmts)
			}
		case *source.WhileStmt:
			expr(s.Cond)
			walk(s.Body.Stmts)
		}
	}
	walk = func(list []source.Stmt) {
		for _, s := range list {
			if f, ok := s.(*source.ForStmt); ok {
				if f.Init != nil {
					stmt(f.Init)
				}
				expr(f.Cond)
				walk(f.Body.Stmts)
				if f.Post != nil {
					stmt(f.Post)
				}
				continue
			}
			stmt(s)
		}
	}
	walk(a.Fn.Body.Stmts)
}

// affineEnv resolves index expressions to (class, induction root, offset).
// A name is usable as a root or a link in an affine chain only when it has a
// single declaration in the whole function (ruling out shadowing and
// same-named roots of sibling loops) and is never reassigned outside the
// canonical induction increment — the AST-level analogue of
// analysis.FindAffineDefs' single-reaching-definition rule.
type affineEnv struct {
	inductionRoots map[string]bool
	declInit       map[string]source.Expr // single-decl, never-assigned locals
}

func buildAffineEnv(fn *source.Function) *affineEnv {
	declCount := map[string]int{}
	assignCount := map[string]int{}
	declInit := map[string]source.Expr{}
	type forInfo struct{ name string }
	var fors []forInfo

	var walk func(list []source.Stmt)
	stmt := func(s source.Stmt) {
		switch s := s.(type) {
		case *source.Block:
			walk(s.Stmts)
		case *source.DeclStmt:
			declCount[s.Name]++
			declInit[s.Name] = s.Init
		case *source.AssignStmt:
			if id, ok := s.Target.(*source.Ident); ok {
				assignCount[id.Name]++
			}
		case *source.IfStmt:
			walk(s.Then.Stmts)
			if s.Else != nil {
				walk(s.Else.Stmts)
			}
		case *source.WhileStmt:
			walk(s.Body.Stmts)
		}
	}
	walk = func(list []source.Stmt) {
		for _, s := range list {
			if f, ok := s.(*source.ForStmt); ok {
				if f.Init != nil {
					stmt(f.Init)
				}
				walk(f.Body.Stmts)
				if f.Post != nil {
					stmt(f.Post)
				}
				if name, ok := canonicalInduction(f); ok {
					fors = append(fors, forInfo{name: name})
				}
				continue
			}
			stmt(s)
		}
	}
	walk(fn.Body.Stmts)

	env := &affineEnv{inductionRoots: map[string]bool{}, declInit: map[string]source.Expr{}}
	for _, f := range fors {
		// Exactly one declaration and one assignment (the increment itself).
		if declCount[f.name] == 1 && assignCount[f.name] == 1 {
			env.inductionRoots[f.name] = true
		}
	}
	for name, init := range declInit {
		if declCount[name] == 1 && assignCount[name] == 0 {
			env.declInit[name] = init
		}
	}
	return env
}

// canonicalInduction matches `for (int i = ...; i < ...; i = i + 1)` (or
// `i += 1`) and returns the induction variable's name.
func canonicalInduction(f *source.ForStmt) (string, bool) {
	decl, ok := f.Init.(*source.DeclStmt)
	if !ok || decl.Type != source.TypeInt || f.Post == nil {
		return "", false
	}
	tgt, ok := f.Post.Target.(*source.Ident)
	if !ok || tgt.Name != decl.Name {
		return "", false
	}
	if f.Post.Op == "+=" {
		if lit, ok := f.Post.Value.(*source.IntLit); ok && lit.Val == 1 {
			return decl.Name, true
		}
	}
	if f.Post.Op == "=" {
		if bin, ok := f.Post.Value.(*source.Binary); ok && bin.Op == "+" {
			if id, ok := bin.L.(*source.Ident); ok && id.Name == decl.Name {
				if lit, ok := bin.R.(*source.IntLit); ok && lit.Val == 1 {
					return decl.Name, true
				}
			}
		}
	}
	return "", false
}

const maxAffineDepth = 16

// resolve classifies an index expression. Affine results are a canonical
// induction root plus a constant offset, followed through single-def scalar
// chains; anything else (loaded values, multiplications, unstable names) is
// indirect.
func (env *affineEnv) resolve(e source.Expr, depth int) (IndexClass, string, int64) {
	if depth > maxAffineDepth {
		return IdxIndirect, "", 0
	}
	switch e := e.(type) {
	case *source.IntLit:
		return IdxConst, "", e.Val
	case *source.Ident:
		if env.inductionRoots[e.Name] {
			return IdxAffine, e.Name, 0
		}
		if init, ok := env.declInit[e.Name]; ok {
			return env.resolve(init, depth+1)
		}
		return IdxIndirect, "", 0
	case *source.Binary:
		if e.Op != "+" && e.Op != "-" {
			return IdxIndirect, "", 0
		}
		lc, lr, lo := env.resolve(e.L, depth+1)
		rc, rr, ro := env.resolve(e.R, depth+1)
		if e.Op == "-" {
			ro = -ro
			if rc == IdxAffine {
				return IdxIndirect, "", 0 // i - j and c - i are not affine forms here
			}
		}
		switch {
		case lc == IdxConst && rc == IdxConst:
			return IdxConst, "", lo + ro
		case lc == IdxAffine && rc == IdxConst:
			return IdxAffine, lr, lo + ro
		case lc == IdxConst && rc == IdxAffine && e.Op == "+":
			return IdxAffine, rr, lo + ro
		}
		return IdxIndirect, "", 0
	}
	return IdxIndirect, "", 0
}

// judgePairs assigns every unordered parameter pair its verdict and fills
// the precision counters.
func (a *Analysis) judgePairs() {
	byParam := map[string][]int{}
	for i, ac := range a.Accesses {
		byParam[ac.Param] = append(byParam[ac.Param], i)
	}
	for i := 0; i < len(a.Params); i++ {
		for j := i + 1; j < len(a.Params); j++ {
			p, q := a.Params[i].Name, a.Params[j].Name
			if q < p {
				p, q = q, p
			}
			pair := Pair{A: p, B: q, WitA: -1, WitB: -1}
			pair.Verdict = a.judge(&pair, byParam[p], byParam[q])
			a.Pairs = append(a.Pairs, pair)
		}
	}
	sort.Slice(a.Pairs, func(i, j int) bool {
		if a.Pairs[i].A != a.Pairs[j].A {
			return a.Pairs[i].A < a.Pairs[j].A
		}
		return a.Pairs[i].B < a.Pairs[j].B
	})
	for _, p := range a.Pairs {
		a.Stats.Pairs++
		switch p.Verdict {
		case ir.AliasDisjoint:
			a.Stats.Disjoint++
		case ir.AliasNoConflict:
			a.Stats.NoConflict++
		case ir.AliasBenign:
			a.Stats.Benign++
		case ir.AliasSwapSync:
			a.Stats.SwapSync++
		case ir.AliasMayConflict:
			a.Stats.MayAlias++
		}
	}
}

func (a *Analysis) judge(pair *Pair, accA, accB []int) ir.AliasVerdict {
	if !a.mayAlias(pair.A, pair.B) {
		return ir.AliasDisjoint
	}
	if a.sameSwapClass(pair.A, pair.B) {
		return ir.AliasSwapSync
	}
	conflict := false
	for _, ia := range accA {
		for _, ib := range accB {
			xa, xb := &a.Accesses[ia], &a.Accesses[ib]
			if !xa.Mod && !xb.Mod {
				continue // read/read never conflicts
			}
			if xa.Class == IdxConst && xb.Class == IdxConst && xa.Off != xb.Off {
				continue // provably different elements
			}
			conflict = true
			if !benignPair(xa, xb) {
				if pair.WitA < 0 {
					pair.WitA, pair.WitB = ia, ib
				}
				return ir.AliasMayConflict
			}
		}
	}
	if !conflict {
		return ir.AliasNoConflict
	}
	return ir.AliasBenign
}

// benignPair holds when both indexes are provably equal in every iteration:
// the same constant, or affine on the same induction root at distance 0.
// Overlap then only ever touches the same element within one iteration, so
// serial order (which same-stage placement preserves) is sufficient — there
// is no loop-carried dependence between different elements.
func benignPair(x, y *Access) bool {
	if x.Class == IdxConst && y.Class == IdxConst {
		return x.Off == y.Off
	}
	return x.Class == IdxAffine && y.Class == IdxAffine &&
		x.Root == y.Root && x.Off == y.Off
}

// Err returns the positioned E0 error for the first may-alias pair of a
// `#pragma phloem` kernel, or nil. Kernels without the pragma are
// hand-scheduled (barrier-based) and exempt, exactly as the old
// restrict-or-reject rule was.
func (a *Analysis) Err() error {
	if !a.Fn.Pragmas.Phloem {
		return nil
	}
	for _, p := range a.Pairs {
		if p.Verdict != ir.AliasMayConflict {
			continue
		}
		wa, wb := a.Accesses[p.WitA], a.Accesses[p.WitB]
		// Anchor the error on the write (the access that makes the pair a
		// race), falling back to the first witness.
		anchor := wa
		if !anchor.Mod && wb.Mod {
			anchor = wb
		}
		return &source.Error{
			Line: anchor.Line,
			Msg: fmt.Sprintf("[E0] parameters %q and %q may alias with an unprovable dependence: %s vs %s; "+
				"add restrict or make both indexes affine in the same loop variable (Sec. IV-A)",
				p.A, p.B, wa, wb),
		}
	}
	return nil
}

// Warnings reports, for a `#pragma phloem` kernel, every pointer parameter
// accepted without restrict together with the proof that made it safe.
// Sorted by (line, code, message).
func (a *Analysis) Warnings() []Warning {
	if !a.Fn.Pragmas.Phloem {
		return nil
	}
	var out []Warning
	for _, p := range a.Params {
		if p.Restrict {
			continue
		}
		worst := ir.AliasDisjoint
		partner := ""
		unproven := false
		for _, pr := range a.Pairs {
			if pr.A != p.Name && pr.B != p.Name {
				continue
			}
			if pr.Verdict == ir.AliasMayConflict {
				unproven = true
				break
			}
			if pr.Verdict > worst {
				worst = pr.Verdict
				partner = pr.A
				if partner == p.Name {
					partner = pr.B
				}
			}
		}
		if unproven {
			continue // Err() reports this pair; "proved safe" would be a lie
		}
		msg := fmt.Sprintf("array parameter %q is not restrict-qualified; effects analysis proved its accesses safe", p.Name)
		if partner != "" {
			msg += fmt.Sprintf(" (weakest pair: %s with %q)", worst, partner)
		}
		out = append(out, Warning{Line: p.Line, Code: "E0", Msg: msg})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Code != out[j].Code {
			return out[i].Code < out[j].Code
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// AliasInfo exports the verdicts in the form the IR carries (nil when the
// function has fewer than two pointer parameters — identity aliasing).
func (a *Analysis) AliasInfo() *ir.AliasInfo {
	if len(a.Pairs) == 0 {
		return nil
	}
	ai := &ir.AliasInfo{Pairs: map[[2]string]ir.AliasVerdict{}}
	for _, p := range a.Pairs {
		ai.Pairs[ir.PairKey(p.A, p.B)] = p.Verdict
	}
	return ai
}

// Dump renders the whole analysis in a stable, sorted, diffable format —
// the `phloemc -effects` report.
func (a *Analysis) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "effects %s:\n", a.Fn.Name)
	sb.WriteString("  params:\n")
	for _, p := range a.Params {
		q := ""
		if p.Restrict {
			q = " restrict"
		}
		fmt.Fprintf(&sb, "    %-12s %s%s -> {%s}\n", p.Name, p.Type, q, strings.Join(p.PointsTo, ", "))
	}
	sb.WriteString("  accesses:\n")
	for _, ac := range a.Accesses {
		fmt.Fprintf(&sb, "    line %-3d %-6s %s[%s]\n", ac.Line, ac.kind(), ac.Param, ac.idx())
	}
	sb.WriteString("  pairs:\n")
	for _, p := range a.Pairs {
		fmt.Fprintf(&sb, "    %s/%s: %s", p.A, p.B, p.Verdict)
		if p.Verdict == ir.AliasMayConflict && p.WitA >= 0 {
			fmt.Fprintf(&sb, " (%s vs %s)", a.Accesses[p.WitA], a.Accesses[p.WitB])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  stats: %s\n", a.Stats)
	return sb.String()
}
