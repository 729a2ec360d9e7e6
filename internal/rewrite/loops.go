package rewrite

import "grover/internal/ir"

// preheaderLoops returns the natural loops of cfg that have a preheader,
// in header order. Rules insert hoisted or staging code in front of the
// preheader's terminator, exactly where LICM places loop-invariant
// values. Loops without one — irreducible flow or multi-entry headers —
// are skipped: the rules that build on this are opportunistic, not
// exhaustive.
func preheaderLoops(cfg *ir.CFG) []*ir.Loop {
	var out []*ir.Loop
	for _, l := range cfg.Loops() {
		if l.Preheader != nil {
			out = append(out, l)
		}
	}
	return out
}

// availableAt reports whether value v may be referenced by code placed in
// front of block at's terminator: constants and parameters always, and
// instructions whose defining block strictly dominates at and lies
// outside the given loop.
func availableAt(v ir.Value, at *ir.Block, l *ir.Loop, cfg *ir.CFG) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	if in.Block == nil || l.Blocks[in.Block] {
		return false
	}
	return cfg.Dominates(in.Block, at)
}
