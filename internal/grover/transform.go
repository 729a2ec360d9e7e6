package grover

import (
	"fmt"
	"sort"

	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
)

// reloadVariable is the Grover pass's re-load rule for its materializer:
// a load of a variable is re-loaded at the LL point. Between the staging
// store and the dependent local load the variable is unchanged (they are
// separated only by a barrier), so the fresh load observes the same
// value. Any other value is referenced directly; it dominates the LL in
// the supported staging pattern (GL/LS precede the barrier that precedes
// LL).
func reloadVariable(rep *ir.Instr) bool {
	if rep.Op != ir.OpLoad {
		return false
	}
	src, ok := rep.Args[0].(*ir.Instr)
	return ok && src.Op == ir.OpAlloca
}

// duplicator implements Algorithm 1: clone the marked part of the GL tree
// in front of an LL, substituting solved local-id leaves and reusing
// unmarked subexpressions.
type duplicator struct {
	mz *exprtree.Materializer
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
	return du.cfg.Dominates(in.Block, du.mz.At().Block)
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
		if reloadVariable(in) {
			du.cloned++
			return du.mz.Insert(&ir.Instr{Op: ir.OpLoad, Typ: in.Typ, Args: []ir.Value{in.Args[0]}, Pos: du.mz.At().Pos}), nil
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
		Space: in.Space, VarName: in.VarName, Pos: du.mz.At().Pos,
	}
	if len(in.Comps) > 0 {
		clone.Comps = append([]int(nil), in.Comps...)
	}
	clone.Args = args
	du.cloned++
	return du.mz.Insert(clone), nil
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
		mz := exprtree.NewMaterializer(ll.Instr, a.reg, reloadVariable)
		solVals := map[int]ir.Value{}
		// In dimension order: the rewritten kernel is the same every time.
		dims := make([]int, 0, len(plan.sol))
		for dim := range plan.sol {
			dims = append(dims, dim)
		}
		sort.Ints(dims)
		for _, dim := range dims {
			v, err := mz.Affine(plan.sol[dim])
			if err != nil {
				return totalCloned, err
			}
			// get_local_id has ULong type; wrap so clone types line up.
			u := mz.Insert(&ir.Instr{Op: ir.OpConvert, Typ: clc.TypeULong, Args: []ir.Value{v}, Pos: ll.Instr.Pos})
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
			nGL = mz.Insert(&ir.Instr{Op: ir.OpConvert, Typ: ll.Instr.Typ, Args: []ir.Value{nGL}, Pos: ll.Instr.Pos})
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
