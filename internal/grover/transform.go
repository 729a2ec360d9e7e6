package grover

import (
	"fmt"
	"sort"

	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// materializer emits the instructions computing an affine solution value in
// front of an LL instruction, reusing already-emitted sub-values.
type materializer struct {
	fn  *ir.Function
	at  *ir.Instr // insertion point (the LL instruction)
	reg *exprtree.Registry
	// termVals caches the long-typed value of each term at the insertion
	// point.
	termVals map[string]ir.Value
}

func newMaterializer(fn *ir.Function, at *ir.Instr, reg *exprtree.Registry) *materializer {
	return &materializer{fn: fn, at: at, reg: reg, termVals: map[string]ir.Value{}}
}

func (mz *materializer) insert(in *ir.Instr) *ir.Instr { return ir.InsertBefore(mz.at, in) }

// termValue materializes one term as a long value valid at the insertion
// point.
func (mz *materializer) termValue(key string) (ir.Value, error) {
	if v, ok := mz.termVals[key]; ok {
		return v, nil
	}
	t := mz.reg.Term(key)
	if t == nil {
		return nil, fmt.Errorf("grover: unknown term %q", key)
	}
	var v ir.Value
	switch {
	case t.WorkItemFn != "":
		// Emit a fresh work-item query: always valid anywhere.
		wi := mz.insert(&ir.Instr{
			Op: ir.OpWorkItem, Typ: clc.TypeULong, Func: t.WorkItemFn,
			Args: []ir.Value{ir.IntConst(int64(t.Dim))}, Pos: mz.at.Pos,
		})
		v = wi
	default:
		switch rep := t.Rep.(type) {
		case *ir.Param:
			v = rep
		case *ir.Instr:
			if rep.Op == ir.OpLoad {
				if src, ok := rep.Args[0].(*ir.Instr); ok && src.Op == ir.OpAlloca {
					// Re-load the variable at the LL point: between the
					// staging store and the dependent local load the
					// variable is unchanged (they are separated only by a
					// barrier), so the fresh load observes the same value.
					v = mz.insert(&ir.Instr{Op: ir.OpLoad, Typ: rep.Typ, Args: []ir.Value{src}, Pos: mz.at.Pos})
					break
				}
			}
			// Reference the defining instruction directly; it dominates
			// the LL in the supported staging pattern (GL/LS precede the
			// barrier that precedes LL).
			v = rep
		default:
			v = t.Rep
		}
	}
	lv := mz.toLong(v)
	mz.termVals[key] = lv
	return lv, nil
}

// toLong converts v to a 64-bit signed value.
func (mz *materializer) toLong(v ir.Value) ir.Value {
	st, ok := v.Type().(*clc.ScalarType)
	if ok && st.Kind == clc.KLong {
		return v
	}
	return mz.insert(&ir.Instr{Op: ir.OpConvert, Typ: clc.TypeLong, Args: []ir.Value{v}, Pos: mz.at.Pos})
}

// affineValue materializes an affine form as a long value.
func (mz *materializer) affineValue(a *linsolve.Affine) (ir.Value, error) {
	var acc ir.Value
	add := func(v ir.Value) {
		if acc == nil {
			acc = v
			return
		}
		acc = mz.insert(&ir.Instr{Op: ir.OpAdd, Typ: clc.TypeLong, Args: []ir.Value{acc, v}, Pos: mz.at.Pos})
	}
	for _, key := range a.Terms() {
		coeff := a.Coeff(key)
		tv, err := mz.termValue(key)
		if err != nil {
			return nil, err
		}
		c := coeff.Num().Int64() // integrality checked during analysis
		var term ir.Value = tv
		switch c {
		case 1:
		case -1:
			term = mz.insert(&ir.Instr{Op: ir.OpNeg, Typ: clc.TypeLong, Args: []ir.Value{tv}, Pos: mz.at.Pos})
		default:
			term = mz.insert(&ir.Instr{Op: ir.OpMul, Typ: clc.TypeLong,
				Args: []ir.Value{tv, ir.LongConst(c)}, Pos: mz.at.Pos})
		}
		add(term)
	}
	if !a.Const.IsInt() {
		return nil, fmt.Errorf("grover: non-integral constant in solution %s", a)
	}
	if cv := a.Const.Num().Int64(); cv != 0 || acc == nil {
		add(ir.LongConst(cv))
	}
	return acc, nil
}

// duplicator implements Algorithm 1: clone the marked part of the GL tree
// in front of an LL, substituting solved local-id leaves and reusing
// unmarked subexpressions.
type duplicator struct {
	mz *materializer
	// sol maps local-id dimension to its materialized ULong value.
	sol map[int]ir.Value
	// cloneAll disables subexpression reuse (ablation mode).
	cloneAll bool
	// cloned counts duplicated instructions.
	cloned int
	// cfg validates that reused values dominate the insertion point.
	cfg *ir.CFG
}

// reusable reports whether an existing instruction's value may be
// referenced at the insertion point (its block must dominate the LL's).
func (du *duplicator) reusable(in *ir.Instr) bool {
	return du.cfg.Dominates(in.Block, du.mz.at.Block)
}

// duplicate returns a value computing node's expression at the insertion
// point (paper Algorithm 1).
func (du *duplicator) duplicate(node *exprtree.Node) (ir.Value, error) {
	in := node.Instr()
	if in == nil {
		return node.Value, nil // constants, parameters
	}
	if !node.State && !du.cloneAll {
		// Reuse the shared subexpression (paper §IV-E: "We reuse the
		// sub-expressions that are shared by the GL instruction and the
		// nGL instruction when it is not required to update the node").
		if !du.reusable(in) {
			return nil, fmt.Errorf("grover: shared subexpression %%%d does not dominate the local load (conditional staging?)", in.ID)
		}
		return in, nil
	}
	// Local-id leaves are replaced by the solution.
	if in.Op == ir.OpWorkItem && in.Func == "get_local_id" {
		dim := 0
		if len(in.Args) == 1 {
			if c, ok := in.Args[0].(*ir.ConstInt); ok {
				dim = int(c.Val)
			}
		}
		v, ok := du.sol[dim]
		if !ok {
			return nil, fmt.Errorf("grover: no solution for get_local_id(%d)", dim)
		}
		return v, nil
	}
	if node.IsLeaf() {
		// Other leaves: clone loads of variables so the value is read at
		// the LL point; reuse everything else.
		if in.Op == ir.OpLoad {
			if src, ok := in.Args[0].(*ir.Instr); ok && src.Op == ir.OpAlloca {
				du.cloned++
				return du.mz.insert(&ir.Instr{Op: ir.OpLoad, Typ: in.Typ, Args: []ir.Value{src}, Pos: du.mz.at.Pos}), nil
			}
		}
		if !du.reusable(in) {
			return nil, fmt.Errorf("grover: leaf value %%%d does not dominate the local load (conditional staging?)", in.ID)
		}
		return in, nil
	}
	// Internal marked node: clone with duplicated children (post-order).
	args := make([]ir.Value, 0, len(in.Args))
	childIdx := 0
	for _, a := range in.Args {
		// Tree children correspond 1:1 with operand positions except for
		// forwarded loads; the tree builder never drops operands of
		// internal nodes, so positions align.
		if childIdx < len(node.Children) && node.Children[childIdx] != nil {
			v, err := du.duplicate(node.Children[childIdx])
			if err != nil {
				return nil, err
			}
			args = append(args, v)
			childIdx++
		} else {
			args = append(args, a)
		}
	}
	clone := &ir.Instr{
		Op: in.Op, Typ: in.Typ, Func: in.Func, Callee: in.Callee,
		Space: in.Space, VarName: in.VarName, Pos: du.mz.at.Pos,
	}
	if len(in.Comps) > 0 {
		clone.Comps = append([]int(nil), in.Comps...)
	}
	clone.Args = args
	du.cloned++
	return du.mz.insert(clone), nil
}

// transformCandidate rewrites every LL of an analyzed candidate (S3–S4 and
// §IV-E/F) and deletes its stores. Returns the number of duplicated
// instructions (for the ablation report).
func transformCandidate(fn *ir.Function, a *analysis, cloneAll bool) (int, error) {
	// Mark every store's GL tree: nodes containing get_local_id must be
	// updated, everything else may be reused.
	for _, sp := range a.stores {
		exprtree.MarkState(sp.glTree, func(n *exprtree.Node) bool {
			in := n.Instr()
			return in != nil && in.Op == ir.OpWorkItem && in.Func == "get_local_id"
		})
	}
	cfg := ir.NewCFG(fn)
	totalCloned := 0
	for _, ll := range a.cand.Loads {
		plan := a.plans[ll.Instr]
		mz := newMaterializer(fn, ll.Instr, a.reg)
		solVals := map[int]ir.Value{}
		// In dimension order: the rewritten kernel is the same every time.
		dims := make([]int, 0, len(plan.sol))
		for dim := range plan.sol {
			dims = append(dims, dim)
		}
		sort.Ints(dims)
		for _, dim := range dims {
			v, err := mz.affineValue(plan.sol[dim])
			if err != nil {
				return totalCloned, err
			}
			// get_local_id has ULong type; wrap so clone types line up.
			u := mz.insert(&ir.Instr{Op: ir.OpConvert, Typ: clc.TypeULong, Args: []ir.Value{v}, Pos: ll.Instr.Pos})
			solVals[dim] = u
		}
		du := &duplicator{mz: mz, sol: solVals, cloneAll: cloneAll, cfg: cfg}
		nGL, err := du.duplicate(plan.store.glTree)
		if err != nil {
			return totalCloned, err
		}
		totalCloned += du.cloned
		// The staged element type may differ from the LL result type only
		// via implicit conversion; insert one if needed.
		if !clc.TypesEqual(nGL.Type(), ll.Instr.Typ) {
			nGL = mz.insert(&ir.Instr{Op: ir.OpConvert, Typ: ll.Instr.Typ, Args: []ir.Value{nGL}, Pos: ll.Instr.Pos})
		}
		ir.ReplaceUses(fn, ll.Instr, nGL)
	}
	// Remove the LS stores; the loads, index chains and the alloca die in
	// the DCE pass that follows.
	for _, st := range a.cand.Stores {
		ir.RemoveInstr(st.Instr)
	}
	return totalCloned, nil
}

// usesLocalMemory reports whether the function still touches __local
// memory (remaining candidates, dynamic local args, local accesses).
func usesLocalMemory(fn *ir.Function) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpAlloca:
				if in.Space == clc.ASLocal {
					return true
				}
			case ir.OpLoad:
				if ir.PointerSpace(in.Args[0].Type()) == clc.ASLocal {
					return true
				}
			case ir.OpStore:
				if ir.PointerSpace(in.Args[0].Type()) == clc.ASLocal {
					return true
				}
			}
		}
	}
	return false
}

// removeLocalBarriers deletes barrier(CLK_LOCAL_MEM_FENCE) instructions.
// Barriers whose fence flags include the global fence are preserved.
func removeLocalBarriers(fn *ir.Function) int {
	removed := 0
	for _, b := range fn.Blocks {
		var keep []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpBarrier {
				flags := int64(1)
				if len(in.Args) == 1 {
					if c, ok := in.Args[0].(*ir.ConstInt); ok {
						flags = c.Val
					}
				}
				if flags&2 == 0 { // no CLK_GLOBAL_MEM_FENCE
					removed++
					continue
				}
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
	}
	return removed
}
