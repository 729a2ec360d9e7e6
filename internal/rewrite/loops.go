package rewrite

import (
	"grover/internal/ir"
	"grover/internal/opt"
)

// loop is one natural loop with a usable preheader: the unique
// predecessor of the header outside the loop body. Rules insert hoisted
// or staging code in front of the preheader's terminator, exactly where
// LICM places loop-invariant values.
type loop struct {
	header *ir.Block
	blocks map[*ir.Block]bool
	// body lists blocks in function order. Rules walk it, not the set: the
	// order they hoist instructions and allocate tiles in is part of their
	// output.
	body      []*ir.Block
	preheader *ir.Block
}

// contains reports whether b belongs to the loop body.
func (l *loop) contains(b *ir.Block) bool { return l.blocks[b] }

// findLoops detects the natural loops of fn (one per header; multiple
// back edges to the same header merge) and keeps those with a unique
// out-of-loop predecessor to serve as the preheader. Loops without one —
// irreducible flow or multi-entry headers — are skipped: the rules that
// build on this are opportunistic, not exhaustive.
func findLoops(fn *ir.Function, dom *opt.Dominance) []*loop {
	preds := map[*ir.Block][]*ir.Block{}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	byHeader := map[*ir.Block]*loop{}
	var order []*ir.Block
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &loop{header: s, blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				order = append(order, s)
			}
			// Collect the natural loop of the back edge b→s: everything
			// reaching b without passing through s.
			stack := []*ir.Block{}
			if !l.blocks[b] {
				l.blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range preds[cur] {
					if !l.blocks[p] {
						l.blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	var out []*loop
	for _, h := range order {
		l := byHeader[h]
		var outside []*ir.Block
		for _, p := range preds[h] {
			if !l.blocks[p] {
				outside = append(outside, p)
			}
		}
		// The preheader must be the single outside entry, must dominate
		// the header (so code placed there executes before every
		// iteration), and must end in a terminator we can insert before.
		if len(outside) == 1 && dom.Dominates(outside[0], h) && outside[0].Terminator() != nil {
			l.preheader = outside[0]
			for _, b := range fn.Blocks {
				if l.blocks[b] {
					l.body = append(l.body, b)
				}
			}
			out = append(out, l)
		}
	}
	return out
}

// availableAt reports whether value v may be referenced by code placed in
// front of block at's terminator: constants and parameters always, and
// instructions whose defining block strictly dominates at and lies
// outside the given loop.
func availableAt(v ir.Value, at *ir.Block, l *loop, dom *opt.Dominance) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	if in.Block == nil || l.contains(in.Block) {
		return false
	}
	return dom.Dominates(in.Block, at)
}
