package lower

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
)

func (lw *lowerer) stmt(s clc.Stmt) error {
	switch st := s.(type) {
	case *clc.BlockStmt:
		for _, sub := range st.Stmts {
			if lw.b.Terminated() {
				// Statements after return/break/continue are unreachable;
				// lower them into a fresh dead block to keep IR well formed.
				dead := lw.irf.NewBlock("dead")
				lw.b.SetBlock(dead)
			}
			if err := lw.stmt(sub); err != nil {
				return err
			}
		}
		return nil

	case *clc.DeclStmt:
		slot := lw.emitAlloca(st.Type, st.Space, st.Name, st.Pos)
		lw.storage[st.Sym] = slot
		if st.Init != nil {
			v, err := lw.expr(st.Init)
			if err != nil {
				return err
			}
			cv, err := lw.convert(v, st.Type, st.Pos)
			if err != nil {
				return err
			}
			lw.b.Store(slot, cv, st.Pos)
		}
		return nil

	case *clc.ExprStmt:
		_, err := lw.expr(st.X)
		return err

	case *clc.IfStmt:
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		thenBlk := lw.irf.NewBlock("if.then")
		var elseBlk *ir.Block
		after := lw.irf.NewBlock("if.end")
		if st.Else != nil {
			elseBlk = lw.irf.NewBlock("if.else")
			lw.b.CondBr(cond, thenBlk, elseBlk, st.Pos)
		} else {
			lw.b.CondBr(cond, thenBlk, after, st.Pos)
		}
		lw.b.SetBlock(thenBlk)
		if err := lw.stmt(st.Then); err != nil {
			return err
		}
		if !lw.b.Terminated() {
			lw.b.Br(after, st.Pos)
		}
		if st.Else != nil {
			lw.b.SetBlock(elseBlk)
			if err := lw.stmt(st.Else); err != nil {
				return err
			}
			if !lw.b.Terminated() {
				lw.b.Br(after, st.Pos)
			}
		}
		lw.b.SetBlock(after)
		return nil

	case *clc.ForStmt:
		if st.Init != nil {
			if err := lw.stmt(st.Init); err != nil {
				return err
			}
		}
		condBlk := lw.irf.NewBlock("for.cond")
		bodyBlk := lw.irf.NewBlock("for.body")
		postBlk := lw.irf.NewBlock("for.post")
		after := lw.irf.NewBlock("for.end")
		lw.b.Br(condBlk, st.Pos)
		lw.b.SetBlock(condBlk)
		if st.Cond != nil {
			cond, err := lw.expr(st.Cond)
			if err != nil {
				return err
			}
			lw.b.CondBr(cond, bodyBlk, after, st.Pos)
		} else {
			lw.b.Br(bodyBlk, st.Pos)
		}
		lw.b.SetBlock(bodyBlk)
		lw.loops = append(lw.loops, loopCtx{breakTo: after, continueTo: postBlk})
		if err := lw.stmt(st.Body); err != nil {
			return err
		}
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.b.Terminated() {
			lw.b.Br(postBlk, st.Pos)
		}
		lw.b.SetBlock(postBlk)
		if st.Post != nil {
			if _, err := lw.expr(st.Post); err != nil {
				return err
			}
		}
		lw.b.Br(condBlk, st.Pos)
		lw.b.SetBlock(after)
		return nil

	case *clc.WhileStmt:
		condBlk := lw.irf.NewBlock("while.cond")
		bodyBlk := lw.irf.NewBlock("while.body")
		after := lw.irf.NewBlock("while.end")
		if st.DoWhile {
			lw.b.Br(bodyBlk, st.Pos)
		} else {
			lw.b.Br(condBlk, st.Pos)
		}
		lw.b.SetBlock(condBlk)
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		lw.b.CondBr(cond, bodyBlk, after, st.Pos)
		lw.b.SetBlock(bodyBlk)
		lw.loops = append(lw.loops, loopCtx{breakTo: after, continueTo: condBlk})
		if err := lw.stmt(st.Body); err != nil {
			return err
		}
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.b.Terminated() {
			lw.b.Br(condBlk, st.Pos)
		}
		lw.b.SetBlock(after)
		return nil

	case *clc.ReturnStmt:
		if st.X == nil {
			lw.b.Ret(nil, st.Pos)
			return nil
		}
		v, err := lw.expr(st.X)
		if err != nil {
			return err
		}
		cv, err := lw.convert(v, lw.fn.Ret, st.Pos)
		if err != nil {
			return err
		}
		lw.b.Ret(cv, st.Pos)
		return nil

	case *clc.BreakStmt:
		if len(lw.loops) == 0 {
			return errAt(st.Pos, "break outside loop")
		}
		lw.b.Br(lw.loops[len(lw.loops)-1].breakTo, st.Pos)
		dead := lw.irf.NewBlock("dead")
		lw.b.SetBlock(dead)
		return nil

	case *clc.ContinueStmt:
		if len(lw.loops) == 0 {
			return errAt(st.Pos, "continue outside loop")
		}
		lw.b.Br(lw.loops[len(lw.loops)-1].continueTo, st.Pos)
		dead := lw.irf.NewBlock("dead")
		lw.b.SetBlock(dead)
		return nil
	}
	return fmt.Errorf("lower: unhandled statement %T", s)
}

func errAt(pos clc.Pos, format string, args ...interface{}) error {
	return &clc.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
