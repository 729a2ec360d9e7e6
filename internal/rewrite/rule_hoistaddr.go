package rewrite

import (
	"fmt"

	"grover/internal/ir"
)

// The hoist-addr rule moves loop-invariant address computations — Index
// chains and the integer arithmetic feeding them — into the loop
// preheader, layered on ir.CFG's loops and dominance. It is a targeted
// sibling of the full LICM pass: plans that restrict the cleanup pipeline
// (phase ordering experiments) can still get address hoisting, which is
// the part of LICM the Grover-materialized nGL chains depend on most.
func init() {
	Register(&Rule{
		Name:  "hoist-addr",
		Doc:   "hoist loop-invariant address computations to loop preheaders",
		Apply: applyHoistAddr,
	})
}

// addrOp reports whether the opcode is address arithmetic we hoist.
func addrOp(o ir.Op) bool {
	switch o {
	case ir.OpIndex, ir.OpConvert, ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpWorkItem:
		return true
	}
	return false
}

func applyHoistAddr(m *ir.Module, kernel string, opts map[string]string) (*StepResult, error) {
	fn := m.Kernel(kernel)
	cfg := ir.NewCFG(fn)
	loops := preheaderLoops(cfg)
	moved := 0
	for _, l := range loops {
		// Restrict to the backward slice of Index instructions: values
		// that actually feed an address. Pure arithmetic that only feeds
		// the loop's data flow is LICM's job, not this rule's.
		inSlice := map[*ir.Instr]bool{}
		var mark func(v ir.Value)
		mark = func(v ir.Value) {
			in, ok := v.(*ir.Instr)
			if !ok || inSlice[in] || in.Block == nil || !l.Blocks[in.Block] || !addrOp(in.Op) {
				return
			}
			inSlice[in] = true
			for _, a := range in.Args {
				mark(a)
			}
		}
		for _, b := range l.Body {
			for _, in := range b.Instrs {
				if in.Op == ir.OpIndex {
					mark(in)
				}
			}
		}
		term := l.Preheader.Terminator()
		// Iterate so whole invariant chains drain out of the loop.
		for pass := 0; pass < 16; pass++ {
			any := false
			for _, b := range l.Body {
				for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
					if !inSlice[in] {
						continue
					}
					ok := true
					for _, a := range in.Args {
						if !availableAt(a, l.Preheader, l, cfg) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					ir.RemoveInstr(in)
					ir.InsertBefore(term, in)
					delete(inSlice, in)
					moved++
					any = true
				}
			}
			if !any {
				break
			}
		}
	}
	if moved > 0 {
		fn.AssignIDs()
	}
	return &StepResult{
		Changed: moved > 0,
		Detail:  fmt.Sprintf("%d address computations hoisted across %d loops", moved, len(loops)),
	}, nil
}
