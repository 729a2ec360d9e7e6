package analysis

import (
	"grover/internal/clc"
	"grover/internal/ir"
)

// Uniformity classifies every value as work-group-uniform or divergent
// and every block as control-uniform or control-divergent. Divergence is
// seeded at the work-item identity queries (get_local_id, get_global_id)
// and propagated to a fixpoint that interleaves the value and control
// dimensions: a branch on a divergent condition makes its influence
// region control-divergent, a store executed in a control-divergent
// block makes later loads of that private variable divergent, and so on.
//
// Loads from shared memory (global parameters and __local buffers) take
// the divergence of their address: a load at a uniform address names one
// shared cell, so every work-item observes the same value regardless of
// which work-item wrote it. Loads from private allocas instead take the
// divergence of their reaching stores.
type Uniformity struct {
	cfg    *ir.CFG
	rd     *ReachingDefs
	divVal map[ir.Value]bool
	divBlk []bool
}

// ComputeUniformity runs the fixpoint over cfg's function.
func ComputeUniformity(cfg *ir.CFG, rd *ReachingDefs) *Uniformity {
	u := &Uniformity{
		cfg:    cfg,
		rd:     rd,
		divVal: map[ir.Value]bool{},
		divBlk: make([]bool, len(cfg.Blocks)),
	}
	callees := map[*ir.Function]bool{}
	for changed := true; changed; {
		changed = false
		for bi, b := range cfg.Blocks {
			for _, in := range b.Instrs {
				if !in.Producing() || u.divVal[in] {
					continue
				}
				if u.instrDivergent(in, callees) {
					u.divVal[in] = true
					changed = true
				}
			}
			term := b.Instrs[len(b.Instrs)-1]
			if term.Op == ir.OpCondBr && u.Divergent(term.Args[0]) {
				for _, r := range cfg.DivergenceRegion(bi) {
					if !u.divBlk[r] {
						u.divBlk[r] = true
						changed = true
					}
				}
			}
		}
	}
	return u
}

// Divergent reports whether v may differ between work-items of one
// work-group.
func (u *Uniformity) Divergent(v ir.Value) bool {
	switch v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.Param:
		return false
	}
	return u.divVal[v]
}

// DivergentBlock reports whether b executes under divergent control
// flow, i.e. some work-items of the group may not reach it (or may
// iterate it a different number of times).
func (u *Uniformity) DivergentBlock(b *ir.Block) bool {
	i, ok := u.cfg.Index[b]
	return ok && u.divBlk[i]
}

func (u *Uniformity) instrDivergent(in *ir.Instr, callees map[*ir.Function]bool) bool {
	switch in.Op {
	case ir.OpWorkItem:
		return in.Func == "get_local_id" || in.Func == "get_global_id"
	case ir.OpAlloca:
		return false
	case ir.OpLoad:
		if u.Divergent(in.Args[0]) {
			return true
		}
		if base, ok := ir.RootOf(in.Args[0]).(*ir.Instr); ok && base.Space == clc.ASPrivate {
			for _, st := range u.rd.ReachingStores(in, base) {
				if u.Divergent(st.Args[1]) || u.Divergent(st.Args[0]) ||
					u.DivergentBlock(st.Block) {
					return true
				}
			}
		}
		return false
	case ir.OpCall:
		if calleeReadsIdentity(in.Callee, callees) {
			return true
		}
	}
	for _, a := range in.Args {
		if u.Divergent(a) {
			return true
		}
	}
	return false
}

// calleeReadsIdentity reports whether fn (transitively) queries a
// work-item identity, making any call result potentially divergent even
// with uniform arguments.
func calleeReadsIdentity(fn *ir.Function, memo map[*ir.Function]bool) bool {
	if fn == nil {
		return true
	}
	if v, ok := memo[fn]; ok {
		return v
	}
	memo[fn] = false // break recursion cycles
	res := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpWorkItem:
				if in.Func == "get_local_id" || in.Func == "get_global_id" {
					res = true
				}
			case ir.OpCall:
				if calleeReadsIdentity(in.Callee, memo) {
					res = true
				}
			}
		}
	}
	memo[fn] = res
	return res
}
