// Package lower translates between the compiler's representations: the C
// subset AST is lowered to the normalized Phloem IR, and (possibly
// transformed) IR stage code is flattened to the stage ISA executed by the
// Pipette machine model.
package lower

import (
	"fmt"
	"math"

	"phloem/internal/effects"
	"phloem/internal/ir"
	"phloem/internal/source"
)

// FromAST lowers a type-checked function to Phloem IR. Expressions are
// normalized to shallow operations over virtual variables; short-circuit
// logic and builtins become explicit control flow. The frontend's
// memory-effects verdicts ride along on Prog.Alias so the race rule and the
// static verifier reason about proven aliasing rather than assuming it.
func FromAST(fn *source.Function) (*ir.Prog, error) {
	return FromAnalysis(fn, effects.Analyze(fn))
}

// FromAnalysis is FromAST for a caller that already ran the effects
// analysis of fn: eff must be effects.Analyze(fn).
func FromAnalysis(fn *source.Function, eff *effects.Analysis) (*ir.Prog, error) {
	lw := &astLowerer{
		p: &ir.Prog{Name: fn.Name, Replicate: fn.Pragmas.Replicate, Distribute: fn.Pragmas.Distribute,
			Alias: eff.AliasInfo()},
		scopes: []map[string]binding{{}},
	}
	for _, prm := range fn.Params {
		if prm.Type.IsPtr() {
			k := ir.KInt
			if prm.Type.Elem() == source.TypeFloat {
				k = ir.KFloat
			}
			lw.p.Slots = append(lw.p.Slots, ir.SlotInfo{Name: prm.Name, Kind: k})
			lw.scopes[0][prm.Name] = binding{isSlot: true, slot: len(lw.p.Slots) - 1}
		} else {
			k := ir.KInt
			if prm.Type == source.TypeFloat {
				k = ir.KFloat
			}
			v := lw.p.NewVar(prm.Name, k)
			lw.p.Vars[v].Param = true
			lw.p.ScalarParams = append(lw.p.ScalarParams, v)
			lw.scopes[0][prm.Name] = binding{v: v}
		}
	}
	body, err := lw.block(fn.Body)
	if err != nil {
		return nil, err
	}
	lw.p.Body = body
	return lw.p, nil
}

type binding struct {
	isSlot bool
	slot   int
	v      ir.Var
}

type astLowerer struct {
	p      *ir.Prog
	scopes []map[string]binding
	tmpN   int
}

func (lw *astLowerer) push() { lw.scopes = append(lw.scopes, map[string]binding{}) }
func (lw *astLowerer) pop()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *astLowerer) lookup(name string) (binding, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if b, ok := lw.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (lw *astLowerer) tmp(k ir.Kind) ir.Var {
	lw.tmpN++
	return lw.p.NewVar(fmt.Sprintf("t%d", lw.tmpN), k)
}

func kindOf(t source.Type) ir.Kind {
	if t == source.TypeFloat {
		return ir.KFloat
	}
	return ir.KInt
}

func (lw *astLowerer) block(b *source.Block) ([]ir.Stmt, error) {
	lw.push()
	defer lw.pop()
	var out []ir.Stmt
	for _, s := range b.Stmts {
		stmts, err := lw.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
	}
	return out, nil
}

func (lw *astLowerer) stmt(s source.Stmt) ([]ir.Stmt, error) {
	switch s := s.(type) {
	case *source.Block:
		return lw.block(s)
	case *source.DeclStmt:
		var out []ir.Stmt
		op, err := lw.expr(&out, s.Init)
		if err != nil {
			return nil, err
		}
		v := lw.p.NewVar(s.Name, kindOf(s.Type))
		lw.scopes[len(lw.scopes)-1][s.Name] = binding{v: v}
		out = append(out, &ir.Assign{Dst: v, Src: movRval(op, kindOf(s.Type)), Line: s.Line})
		return out, nil
	case *source.AssignStmt:
		return lw.assign(s)
	case *source.IfStmt:
		var out []ir.Stmt
		cond, err := lw.expr(&out, s.Cond)
		if err != nil {
			return nil, err
		}
		thn, err := lw.block(s.Then)
		if err != nil {
			return nil, err
		}
		var els []ir.Stmt
		if s.Else != nil {
			els, err = lw.block(s.Else)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, &ir.If{Cond: cond, Then: thn, Else: els, Line: s.Line})
		return out, nil
	case *source.WhileStmt:
		var pre []ir.Stmt
		cond, err := lw.expr(&pre, s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := lw.block(s.Body)
		if err != nil {
			return nil, err
		}
		lw.p.NumLoops++
		return []ir.Stmt{&ir.Loop{ID: lw.p.NumLoops - 1, Pre: pre, Cond: cond, Line: s.Line,
			Body: body, Decouple: s.Decouple}}, nil
	case *source.ForStmt:
		lw.push()
		defer lw.pop()
		var out []ir.Stmt
		if s.Init != nil {
			initStmts, err := lw.stmt(s.Init)
			if err != nil {
				return nil, err
			}
			out = append(out, initStmts...)
		}
		var pre []ir.Stmt
		cond, err := lw.expr(&pre, s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := lw.block(s.Body)
		if err != nil {
			return nil, err
		}
		if s.Post != nil {
			post, err := lw.assign(s.Post)
			if err != nil {
				return nil, err
			}
			body = append(body, post...)
		}
		lw.p.NumLoops++
		loop := &ir.Loop{ID: lw.p.NumLoops - 1, Pre: pre, Cond: cond, Line: s.Line,
			Body: body, Decouple: s.Decouple}
		loop.Counted = lw.detectCounted(s, out)
		out = append(out, loop)
		return out, nil
	case *source.SwapStmt:
		ba, _ := lw.lookup(s.A)
		bb, _ := lw.lookup(s.B)
		if !ba.isSlot || !bb.isSlot {
			return nil, fmt.Errorf("line %d: swap() of non-array", s.Line)
		}
		return []ir.Stmt{&ir.Swap{A: ba.slot, B: bb.slot, Line: s.Line}}, nil
	case *source.DecoupleStmt:
		return []ir.Stmt{&ir.DecoupleMark{}}, nil
	case *source.BarrierStmt:
		return []ir.Stmt{&ir.Barrier{Line: s.Line}}, nil
	}
	return nil, fmt.Errorf("lower: unknown statement %T", s)
}

// detectCounted recognizes the canonical `for (v = init; v < bound; v++)`
// shape, where init and bound are constants or simple variables.
func (lw *astLowerer) detectCounted(s *source.ForStmt, initStmts []ir.Stmt) *ir.Counted {
	decl, ok := s.Init.(*source.DeclStmt)
	if !ok || decl.Type != source.TypeInt {
		return nil
	}
	bnd, ok := lw.lookup(decl.Name)
	if !ok || bnd.isSlot {
		return nil
	}
	cond, ok := s.Cond.(*source.Binary)
	if !ok || cond.Op != "<" {
		return nil
	}
	if id, ok := cond.L.(*source.Ident); !ok || id.Name != decl.Name {
		return nil
	}
	boundOp, ok := lw.simpleOperand(cond.R)
	if !ok {
		return nil
	}
	if s.Post == nil {
		return nil
	}
	tgt, ok := s.Post.Target.(*source.Ident)
	if !ok || tgt.Name != decl.Name {
		return nil
	}
	stepOK := false
	if s.Post.Op == "+=" {
		if lit, ok := s.Post.Value.(*source.IntLit); ok && lit.Val == 1 {
			stepOK = true
		}
	} else if s.Post.Op == "=" {
		if bin, ok := s.Post.Value.(*source.Binary); ok && bin.Op == "+" {
			if id, ok := bin.L.(*source.Ident); ok && id.Name == decl.Name {
				if lit, ok := bin.R.(*source.IntLit); ok && lit.Val == 1 {
					stepOK = true
				}
			}
		}
	}
	if !stepOK {
		return nil
	}
	initOp, ok := lw.simpleOperand(decl.Init)
	if !ok {
		// The init value was computed into the variable; use the variable's
		// value at loop entry, which the last init statement assigned.
		initOp = ir.V(bnd.v)
		_ = initStmts
	}
	return &ir.Counted{Ind: bnd.v, Init: initOp, Bound: boundOp}
}

// simpleOperand returns the operand for a constant or plain variable
// reference without emitting code.
func (lw *astLowerer) simpleOperand(e source.Expr) (ir.Operand, bool) {
	switch e := e.(type) {
	case *source.IntLit:
		return ir.C(e.Val), true
	case *source.Ident:
		b, ok := lw.lookup(e.Name)
		if !ok || b.isSlot {
			return ir.Operand{}, false
		}
		return ir.V(b.v), true
	}
	return ir.Operand{}, false
}

func movRval(op ir.Operand, k ir.Kind) ir.Rval {
	return &ir.RvalUn{Op: ir.OpMov, Float: k == ir.KFloat, A: op}
}

func (lw *astLowerer) assign(s *source.AssignStmt) ([]ir.Stmt, error) {
	var out []ir.Stmt
	// Compute the effective RHS (compound ops read the target first).
	switch tgt := s.Target.(type) {
	case *source.Ident:
		b, ok := lw.lookup(tgt.Name)
		if !ok || b.isSlot {
			return nil, fmt.Errorf("line %d: bad assignment target %q", s.Line, tgt.Name)
		}
		k := kindOf(tgt.ExprType())
		// Fold `x = x OP e` into a single operation (keeps induction
		// increments recognizable and matches what -O3 emits).
		if s.Op == "=" {
			if bin, ok := s.Value.(*source.Binary); ok {
				if id, ok2 := bin.L.(*source.Ident); ok2 && id.Name == tgt.Name {
					if op, simple := simpleBinOp(bin.Op); simple {
						r, err := lw.expr(&out, bin.R)
						if err != nil {
							return nil, err
						}
						out = append(out, &ir.Assign{Dst: b.v, Line: s.Line,
							Src: &ir.RvalBin{Op: op, Float: k == ir.KFloat, A: ir.V(b.v), B: r}})
						return out, nil
					}
				}
			}
		}
		rhs, err := lw.expr(&out, s.Value)
		if err != nil {
			return nil, err
		}
		if s.Op == "=" {
			out = append(out, &ir.Assign{Dst: b.v, Src: movRval(rhs, k), Line: s.Line})
		} else {
			op, err := compoundOp(s.Op)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", s.Line, err)
			}
			out = append(out, &ir.Assign{Dst: b.v, Line: s.Line,
				Src: &ir.RvalBin{Op: op, Float: k == ir.KFloat, A: ir.V(b.v), B: rhs}})
		}
		return out, nil
	case *source.Index:
		b, ok := lw.lookup(tgt.Array)
		if !ok || !b.isSlot {
			return nil, fmt.Errorf("line %d: bad array target %q", s.Line, tgt.Array)
		}
		idx, err := lw.expr(&out, tgt.Idx)
		if err != nil {
			return nil, err
		}
		// Pin the index to a variable so load and store use the same value.
		idx = lw.pin(&out, idx, ir.KInt)
		rhs, err := lw.expr(&out, s.Value)
		if err != nil {
			return nil, err
		}
		k := kindOf(tgt.ExprType())
		val := rhs
		if s.Op != "=" {
			op, err := compoundOp(s.Op)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", s.Line, err)
			}
			old := lw.tmp(k)
			out = append(out, &ir.Assign{Dst: old, Line: s.Line,
				Src: &ir.RvalLoad{LoadID: lw.newLoadID(), Slot: b.slot, Idx: idx}})
			nv := lw.tmp(k)
			out = append(out, &ir.Assign{Dst: nv, Line: s.Line,
				Src: &ir.RvalBin{Op: op, Float: k == ir.KFloat, A: ir.V(old), B: rhs}})
			val = ir.V(nv)
		}
		out = append(out, &ir.Store{StoreID: lw.newStoreID(), Slot: b.slot, Idx: idx, Val: val, Line: s.Line})
		return out, nil
	}
	return nil, fmt.Errorf("line %d: unsupported assignment target", s.Line)
}

func compoundOp(op string) (ir.BinOp, error) {
	switch op {
	case "+=":
		return ir.OpAdd, nil
	case "-=":
		return ir.OpSub, nil
	case "*=":
		return ir.OpMul, nil
	case "/=":
		return ir.OpDiv, nil
	}
	return 0, &Error{Detail: fmt.Sprintf("bad compound op %q", op)}
}

func (lw *astLowerer) newLoadID() int {
	lw.p.NumLoads++
	return lw.p.NumLoads - 1
}

func (lw *astLowerer) newStoreID() int {
	lw.p.NumStores++
	return lw.p.NumStores - 1
}

// pin ensures the operand is a variable (so it can be reused).
func (lw *astLowerer) pin(out *[]ir.Stmt, op ir.Operand, k ir.Kind) ir.Operand {
	if !op.IsConst {
		return op
	}
	v := lw.tmp(k)
	*out = append(*out, &ir.Assign{Dst: v, Src: movRval(op, k)})
	return ir.V(v)
}

// expr lowers an expression, emitting temporaries into out, and returns the
// operand holding the result.
func (lw *astLowerer) expr(out *[]ir.Stmt, e source.Expr) (ir.Operand, error) {
	switch e := e.(type) {
	case *source.IntLit:
		return ir.C(e.Val), nil
	case *source.FloatLit:
		return ir.Operand{IsConst: true, Imm: int64(math.Float64bits(e.Val))}, nil
	case *source.Ident:
		b, ok := lw.lookup(e.Name)
		if !ok {
			return ir.Operand{}, fmt.Errorf("line %d: undefined %q", e.Line, e.Name)
		}
		if b.isSlot {
			return ir.Operand{}, fmt.Errorf("line %d: array %q used as a value", e.Line, e.Name)
		}
		return ir.V(b.v), nil
	case *source.Index:
		b, ok := lw.lookup(e.Array)
		if !ok || !b.isSlot {
			return ir.Operand{}, fmt.Errorf("line %d: bad array %q", e.Line, e.Array)
		}
		idx, err := lw.expr(out, e.Idx)
		if err != nil {
			return ir.Operand{}, err
		}
		v := lw.tmp(kindOf(e.ExprType()))
		*out = append(*out, &ir.Assign{Dst: v, Line: e.Line,
			Src: &ir.RvalLoad{LoadID: lw.newLoadID(), Slot: b.slot, Idx: idx}})
		return ir.V(v), nil
	case *source.Binary:
		return lw.binary(out, e)
	case *source.Unary:
		x, err := lw.expr(out, e.X)
		if err != nil {
			return ir.Operand{}, err
		}
		k := kindOf(e.ExprType())
		v := lw.tmp(k)
		switch e.Op {
		case "-":
			if k == ir.KFloat {
				*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpNeg, Float: true, A: x}, Line: e.Line})
			} else {
				*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalBin{Op: ir.OpSub, A: ir.C(0), B: x}, Line: e.Line})
			}
		case "!":
			*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalBin{Op: ir.OpEQ, A: x, B: ir.C(0)}, Line: e.Line})
		case "~":
			*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalBin{Op: ir.OpXor, A: x, B: ir.C(-1)}, Line: e.Line})
		}
		return ir.V(v), nil
	case *source.Cast:
		x, err := lw.expr(out, e.X)
		if err != nil {
			return ir.Operand{}, err
		}
		from := kindOf(e.X.ExprType())
		to := kindOf(e.To)
		if from == to {
			return x, nil
		}
		v := lw.tmp(to)
		op := ir.OpI2F
		if to == ir.KInt {
			op = ir.OpF2I
		}
		*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: op, A: x}, Line: e.Line})
		return ir.V(v), nil
	case *source.Call:
		return lw.call(out, e)
	}
	return ir.Operand{}, fmt.Errorf("lower: unknown expression %T", e)
}

func (lw *astLowerer) binary(out *[]ir.Stmt, e *source.Binary) (ir.Operand, error) {
	// Short-circuit && and || become explicit control flow.
	if e.Op == "&&" || e.Op == "||" {
		l, err := lw.expr(out, e.L)
		if err != nil {
			return ir.Operand{}, err
		}
		res := lw.tmp(ir.KInt)
		*out = append(*out, &ir.Assign{Dst: res, Src: &ir.RvalBin{Op: ir.OpNE, A: l, B: ir.C(0)}, Line: e.Line})
		var inner []ir.Stmt
		r, err := lw.expr(&inner, e.R)
		if err != nil {
			return ir.Operand{}, err
		}
		inner = append(inner, &ir.Assign{Dst: res, Src: &ir.RvalBin{Op: ir.OpNE, A: r, B: ir.C(0)}, Line: e.Line})
		if e.Op == "&&" {
			*out = append(*out, &ir.If{Cond: ir.V(res), Then: inner, Line: e.Line})
		} else {
			*out = append(*out, &ir.If{Cond: ir.V(res), Else: inner, Line: e.Line})
		}
		return ir.V(res), nil
	}
	l, err := lw.expr(out, e.L)
	if err != nil {
		return ir.Operand{}, err
	}
	r, err := lw.expr(out, e.R)
	if err != nil {
		return ir.Operand{}, err
	}
	isFloat := kindOf(e.L.ExprType()) == ir.KFloat
	var op ir.BinOp
	switch e.Op {
	case "+":
		op = ir.OpAdd
	case "-":
		op = ir.OpSub
	case "*":
		op = ir.OpMul
	case "/":
		op = ir.OpDiv
	case "%":
		op = ir.OpRem
	case "&":
		op = ir.OpAnd
	case "|":
		op = ir.OpOr
	case "^":
		op = ir.OpXor
	case "<<":
		op = ir.OpShl
	case ">>":
		op = ir.OpShr
	case "==":
		op = ir.OpEQ
	case "!=":
		op = ir.OpNE
	case "<":
		op = ir.OpLT
	case "<=":
		op = ir.OpLE
	case ">":
		op = ir.OpGT
	case ">=":
		op = ir.OpGE
	default:
		return ir.Operand{}, fmt.Errorf("line %d: unknown operator %q", e.Line, e.Op)
	}
	v := lw.tmp(kindOf(e.ExprType()))
	*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalBin{Op: op, Float: isFloat, A: l, B: r}, Line: e.Line})
	return ir.V(v), nil
}

func (lw *astLowerer) call(out *[]ir.Stmt, e *source.Call) (ir.Operand, error) {
	var args []ir.Operand
	for _, a := range e.Args {
		op, err := lw.expr(out, a)
		if err != nil {
			return ir.Operand{}, err
		}
		args = append(args, op)
	}
	switch e.Name {
	case "fabs":
		v := lw.tmp(ir.KFloat)
		*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpAbs, Float: true, A: args[0]}, Line: e.Line})
		return ir.V(v), nil
	case "abs":
		v := lw.tmp(ir.KInt)
		*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpMov, A: args[0]}, Line: e.Line})
		neg := lw.tmp(ir.KInt)
		*out = append(*out, &ir.Assign{Dst: neg, Src: &ir.RvalBin{Op: ir.OpLT, A: args[0], B: ir.C(0)}, Line: e.Line})
		*out = append(*out, &ir.If{Cond: ir.V(neg), Line: e.Line, Then: []ir.Stmt{
			&ir.Assign{Dst: v, Src: &ir.RvalBin{Op: ir.OpSub, A: ir.C(0), B: args[0]}},
		}})
		return ir.V(v), nil
	case "min", "max":
		v := lw.tmp(ir.KInt)
		*out = append(*out, &ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpMov, A: args[0]}, Line: e.Line})
		cmpOp := ir.OpLT
		if e.Name == "max" {
			cmpOp = ir.OpGT
		}
		c := lw.tmp(ir.KInt)
		*out = append(*out, &ir.Assign{Dst: c, Src: &ir.RvalBin{Op: cmpOp, A: args[1], B: args[0]}, Line: e.Line})
		*out = append(*out, &ir.If{Cond: ir.V(c), Line: e.Line, Then: []ir.Stmt{
			&ir.Assign{Dst: v, Src: &ir.RvalUn{Op: ir.OpMov, A: args[1]}},
		}})
		return ir.V(v), nil
	}
	return ir.Operand{}, fmt.Errorf("line %d: unknown builtin %q", e.Line, e.Name)
}

// simpleBinOp maps arithmetic source operators usable in the x = x OP e
// folding (comparisons and short-circuit ops are excluded).
func simpleBinOp(op string) (ir.BinOp, bool) {
	switch op {
	case "+":
		return ir.OpAdd, true
	case "-":
		return ir.OpSub, true
	case "*":
		return ir.OpMul, true
	case "/":
		return ir.OpDiv, true
	case "&":
		return ir.OpAnd, true
	case "|":
		return ir.OpOr, true
	case "^":
		return ir.OpXor, true
	}
	return 0, false
}
