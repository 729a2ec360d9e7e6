// Package lower translates the clc AST into the ir form. Mutable variables
// become entry-block allocas; parameters that are never reassigned are used
// directly. Control flow (if, for, while, short-circuit logic, the
// conditional operator) is lowered to basic blocks.
package lower

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
)

// Module lowers a parsed file into an IR module.
func Module(f *clc.File) (*ir.Module, error) {
	m := &ir.Module{Name: f.Name}
	// Create function shells first so calls can resolve.
	shells := map[string]*ir.Function{}
	for _, fn := range f.Funcs {
		irf := &ir.Function{Name: fn.Name, IsKernel: fn.IsKernel, Ret: fn.Ret}
		for i, p := range fn.Params {
			irf.Params = append(irf.Params, &ir.Param{Name_: p.Name, Typ: p.Type, Index: i, Space: p.Space})
		}
		m.Funcs = append(m.Funcs, irf)
		shells[fn.Name] = irf
	}
	for _, fn := range f.Funcs {
		lw := &lowerer{
			fn:      fn,
			irf:     shells[fn.Name],
			funcs:   shells,
			storage: map[*clc.Symbol]ir.Value{},
			direct:  map[*clc.Symbol]ir.Value{},
		}
		if err := lw.lowerBody(); err != nil {
			return nil, err
		}
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("lower: produced invalid IR: %w", err)
	}
	return m, nil
}

type loopCtx struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

type lowerer struct {
	fn    *clc.FuncDecl
	irf   *ir.Function
	funcs map[string]*ir.Function
	b     *ir.Builder
	// storage maps mutable symbols to their alloca pointer.
	storage map[*clc.Symbol]ir.Value
	// direct maps immutable parameters to their Param value.
	direct map[*clc.Symbol]ir.Value
	loops  []loopCtx
	// allocaBlk is the dedicated first block that holds all allocas.
	allocaBlk *ir.Block
}

func (lw *lowerer) lowerBody() error {
	lw.b = ir.NewBuilder(lw.irf)
	lw.allocaBlk = lw.b.Cur // entry block holds allocas only
	body := lw.irf.NewBlock("body")

	mutated := collectMutatedParams(lw.fn)
	for i, p := range lw.fn.Params {
		prm := lw.irf.Params[i]
		psym := paramSymbol(lw.fn, i)
		if psym == nil {
			continue
		}
		if mutated[p.Name] {
			slot := lw.b.Alloca(p.Type, clc.ASPrivate, p.Name, p.Pos)
			lw.b.Store(slot, prm, p.Pos)
			lw.storage[psym] = slot
		} else {
			lw.direct[psym] = prm
		}
	}

	lw.b.SetBlock(body)
	if err := lw.stmt(lw.fn.Body); err != nil {
		return err
	}
	if !lw.b.Terminated() {
		lw.retZero()
	}
	// Terminate the alloca block with a branch to the body.
	save := lw.b.Cur
	lw.b.SetBlock(lw.allocaBlk)
	lw.b.Br(body, lw.fn.Pos)
	lw.b.SetBlock(save)

	// Remove unterminated unreachable blocks created by break/continue
	// lowering (e.g. a block after "break;" with no instructions).
	lw.sealDeadBlocks()
	return nil
}

// sealDeadBlocks gives every unterminated block a trailing return so the
// verifier's invariants hold; such blocks are unreachable by construction.
func (lw *lowerer) sealDeadBlocks() {
	for _, blk := range lw.irf.Blocks {
		if blk.Terminator() == nil {
			save := lw.b.Cur
			lw.b.SetBlock(blk)
			lw.retZero()
			lw.b.SetBlock(save)
		}
	}
}

// emitAlloca emits an alloca into the dedicated alloca block.
func (lw *lowerer) emitAlloca(typ clc.Type, space clc.AddrSpace, name string, pos clc.Pos) *ir.Instr {
	save := lw.b.Cur
	lw.b.SetBlock(lw.allocaBlk)
	a := lw.b.Alloca(typ, space, name, pos)
	lw.b.SetBlock(save)
	return a
}

// paramSymbol finds the resolved Symbol for parameter index i by scanning
// the body's identifier uses; returns a fresh symbol when the parameter is
// unused.
func paramSymbol(fn *clc.FuncDecl, i int) *clc.Symbol {
	var found *clc.Symbol
	walkExprs(fn.Body, func(e clc.Expr) {
		if id, ok := e.(*clc.Ident); ok && id.Sym != nil && id.Sym.Param && id.Sym.Index == i {
			found = id.Sym
		}
	})
	return found
}

// collectMutatedParams returns the set of parameter names assigned in the
// body (including ++/--).
func collectMutatedParams(fn *clc.FuncDecl) map[string]bool {
	out := map[string]bool{}
	mark := func(e clc.Expr) {
		if id, ok := e.(*clc.Ident); ok && id.Sym != nil && id.Sym.Param {
			out[id.Name] = true
		}
	}
	walkExprs(fn.Body, func(e clc.Expr) {
		switch ex := e.(type) {
		case *clc.Assign:
			mark(ex.L)
			if m, ok := ex.L.(*clc.Member); ok {
				mark(m.X)
			}
		case *clc.Unary:
			if ex.Op == "++" || ex.Op == "--" || ex.Op == "&" {
				mark(ex.X)
			}
		case *clc.Postfix:
			mark(ex.X)
		}
	})
	return out
}

// walkExprs applies f to every expression node under s.
func walkExprs(s clc.Stmt, f func(clc.Expr)) {
	var we func(clc.Expr)
	we = func(e clc.Expr) {
		if e == nil {
			return
		}
		f(e)
		switch ex := e.(type) {
		case *clc.Unary:
			we(ex.X)
		case *clc.Postfix:
			we(ex.X)
		case *clc.Binary:
			we(ex.L)
			we(ex.R)
		case *clc.Assign:
			we(ex.L)
			we(ex.R)
		case *clc.Cond:
			we(ex.C)
			we(ex.T)
			we(ex.F)
		case *clc.Index:
			we(ex.X)
			we(ex.I)
		case *clc.Member:
			we(ex.X)
		case *clc.Call:
			for _, a := range ex.Args {
				we(a)
			}
		case *clc.Cast:
			we(ex.X)
		case *clc.VecLit:
			for _, el := range ex.Elems {
				we(el)
			}
		}
	}
	var ws func(clc.Stmt)
	ws = func(s clc.Stmt) {
		switch st := s.(type) {
		case nil:
		case *clc.BlockStmt:
			for _, sub := range st.Stmts {
				ws(sub)
			}
		case *clc.DeclStmt:
			we(st.Init)
		case *clc.ExprStmt:
			we(st.X)
		case *clc.IfStmt:
			we(st.Cond)
			ws(st.Then)
			if st.Else != nil {
				ws(st.Else)
			}
		case *clc.ForStmt:
			if st.Init != nil {
				ws(st.Init)
			}
			we(st.Cond)
			we(st.Post)
			ws(st.Body)
		case *clc.WhileStmt:
			we(st.Cond)
			ws(st.Body)
		case *clc.ReturnStmt:
			we(st.X)
		}
	}
	ws(s)
}

// retZero ends the current block with the return a function that falls
// off its end makes: nothing from a void function, else a zero of its
// return type.
func (lw *lowerer) retZero() {
	switch t := lw.fn.Ret.(type) {
	case *clc.VectorType:
		lw.b.Ret(lw.splat(constOf(0, t.Elem), t, lw.fn.Pos), lw.fn.Pos)
	default:
		if clc.TypesEqual(t, clc.TypeVoid) {
			lw.b.Ret(nil, lw.fn.Pos)
		} else {
			lw.b.Ret(constOf(0, t), lw.fn.Pos)
		}
	}
}
