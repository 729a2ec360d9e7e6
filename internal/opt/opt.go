// Package opt implements the scalar optimizations a production OpenCL
// compiler applies before execution: local common-subexpression
// elimination, loop-invariant code motion, and dead-code elimination. The
// simulated platforms run optimized IR so that kernel comparisons (with
// vs. without local memory) reflect what real drivers would execute —
// in particular, the index chains Grover materializes in front of former
// local loads are hoisted out of inner loops exactly like the originals.
package opt

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/debug"
	"grover/internal/ir"
)

// pass is one named scalar optimization.
type pass struct {
	name string
	run  func(*ir.Function) bool
}

// passes is the standard pipeline, named so the debug verifier can say
// which pass broke the IR — and so rewrite plans can select and reorder
// a subset by name (phase ordering as a tunable).
var passes = []pass{
	{"cse", CSE},
	{"load-forward", LoadForward},
	{"dse", DSE},
	{"peephole", Peephole},
	{"licm", LICM},
	{"dce", func(fn *ir.Function) bool { return DCE(fn) > 0 }},
}

// PassNames returns the standard pipeline's pass names in order.
func PassNames() []string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = p.name
	}
	return out
}

// Optimize runs the standard pipeline (CSE, store/load forwarding,
// peephole, LICM and DCE) to fixpoint over every function. With
// GROVER_DEBUG_VERIFY set, the IR is re-verified after every pass that
// changed the function, and a violation panics naming the pass — an
// internal invariant failure, not a user error.
func Optimize(m *ir.Module) {
	optimize(m, passes)
}

// OptimizeWith runs a caller-selected pass pipeline (names from
// PassNames, in the given order, repeated names allowed) to fixpoint
// over every function. An empty list runs the standard pipeline. Unknown
// pass names are an error, reported before any function is touched.
func OptimizeWith(m *ir.Module, names []string) error {
	if len(names) == 0 {
		Optimize(m)
		return nil
	}
	pipeline := make([]pass, 0, len(names))
	for _, n := range names {
		found := false
		for _, p := range passes {
			if p.name == n {
				pipeline = append(pipeline, p)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("opt: unknown pass %q (available: %v)", n, PassNames())
		}
	}
	optimize(m, pipeline)
	return nil
}

func optimize(m *ir.Module, pipeline []pass) {
	for _, fn := range m.Funcs {
		for i := 0; i < 32; i++ { // fixpoint, bounded
			changed := false
			for _, p := range pipeline {
				if !p.run(fn) {
					continue
				}
				changed = true
				if debug.Verify {
					if err := ir.VerifyFunc(fn); err != nil {
						panic(fmt.Sprintf("opt: pass %s broke %s: %v", p.name, fn.Name, err))
					}
				}
			}
			if !changed {
				break
			}
		}
		fn.AssignIDs()
	}
}

// pureNonFaulting reports whether the op may be duplicated, reordered or
// speculated freely (no side effects, no traps).
func pureNonFaulting(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpConvert, ir.OpIndex, ir.OpWorkItem, ir.OpMath,
		ir.OpExtract, ir.OpInsert, ir.OpShuffle, ir.OpBuild:
		return true
	}
	return false
}

// CSE eliminates duplicate pure expressions within each basic block.
func CSE(fn *ir.Function) bool {
	changed := false
	valID := map[ir.Value]string{}
	id := func(v ir.Value) string {
		switch t := v.(type) {
		case *ir.ConstInt:
			return fmt.Sprintf("ci:%d:%s", t.Val, t.Typ)
		case *ir.ConstFloat:
			return fmt.Sprintf("cf:%g:%s", t.Val, t.Typ)
		case *ir.Param:
			return "p:" + t.Name_
		}
		if s, ok := valID[v]; ok {
			return s
		}
		s := fmt.Sprintf("v:%p", v)
		valID[v] = s
		return s
	}
	for _, b := range fn.Blocks {
		seen := map[string]*ir.Instr{}
		var dead []*ir.Instr
		for _, in := range b.Instrs {
			if !pureNonFaulting(in.Op) || !in.Producing() {
				continue
			}
			key := fmt.Sprintf("%d|%s|%s|%v", in.Op, in.Typ, in.Func, in.Comps)
			for _, a := range in.Args {
				key += "|" + id(a)
			}
			if prev, ok := seen[key]; ok {
				ir.ReplaceUses(fn, in, prev)
				dead = append(dead, in)
				changed = true
				continue
			}
			seen[key] = in
		}
		for _, in := range dead {
			ir.RemoveInstr(in)
		}
	}
	return changed
}

// DCE removes value-producing instructions with no remaining uses,
// transitively, and returns the number removed.
func DCE(fn *ir.Function) int {
	removed := 0
	for {
		uses := map[ir.Value]int{}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					uses[a]++
				}
			}
		}
		var dead []*ir.Instr
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if uses[in] > 0 {
					continue
				}
				switch in.Op {
				case ir.OpStore, ir.OpCall, ir.OpBarrier, ir.OpBr, ir.OpCondBr, ir.OpRet:
					continue
				}
				dead = append(dead, in)
			}
		}
		if len(dead) == 0 {
			return removed
		}
		for _, in := range dead {
			ir.RemoveInstr(in)
			removed++
		}
	}
}

// ---------------------------------------------------------------- LICM

// cfg holds per-function analysis state for LICM.
type cfg struct {
	fn     *ir.Function
	index  map[*ir.Block]int
	preds  [][]int
	dom    []uint64 // dominator sets as bitsets (≤64 blocks) or spilled
	domBig [][]bool // used when >64 blocks
	n      int
}

func buildCFG(fn *ir.Function) *cfg {
	c := &cfg{fn: fn, index: map[*ir.Block]int{}, n: len(fn.Blocks)}
	for i, b := range fn.Blocks {
		c.index[b] = i
	}
	c.preds = make([][]int, c.n)
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			j := c.index[s]
			c.preds[j] = append(c.preds[j], i)
		}
	}
	c.computeDominators()
	return c
}

// computeDominators runs the classic iterative data-flow algorithm.
func (c *cfg) computeDominators() {
	if c.n <= 64 {
		full := uint64(0)
		for i := 0; i < c.n; i++ {
			full |= 1 << uint(i)
		}
		c.dom = make([]uint64, c.n)
		for i := range c.dom {
			c.dom[i] = full
		}
		c.dom[0] = 1
		for changed := true; changed; {
			changed = false
			for i := 1; i < c.n; i++ {
				nd := full
				if len(c.preds[i]) == 0 {
					nd = 0 // unreachable
				}
				for _, p := range c.preds[i] {
					nd &= c.dom[p]
				}
				nd |= 1 << uint(i)
				if nd != c.dom[i] {
					c.dom[i] = nd
					changed = true
				}
			}
		}
		return
	}
	c.domBig = make([][]bool, c.n)
	for i := range c.domBig {
		c.domBig[i] = make([]bool, c.n)
		for j := range c.domBig[i] {
			c.domBig[i][j] = true
		}
	}
	for j := 1; j < c.n; j++ {
		c.domBig[0][j] = false
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				if j == i {
					continue
				}
				v := len(c.preds[i]) > 0
				for _, p := range c.preds[i] {
					if !c.domBig[p][j] {
						v = false
						break
					}
				}
				if v != c.domBig[i][j] {
					c.domBig[i][j] = v
					changed = true
				}
			}
		}
	}
}

// dominates reports whether block a dominates block b.
func (c *cfg) dominates(a, b int) bool {
	if c.dom != nil {
		return c.dom[b]&(1<<uint(a)) != 0
	}
	return c.domBig[b][a]
}

// idom returns b's immediate dominator, or -1 for the entry.
func (c *cfg) idom(b int) int {
	if b == 0 {
		return -1
	}
	best := -1
	for a := 0; a < c.n; a++ {
		if a == b || !c.dominates(a, b) {
			continue
		}
		if best == -1 {
			best = a
			continue
		}
		// The closest dominator is dominated by every other dominator.
		if c.dominates(best, a) {
			best = a
		}
	}
	return best
}

// naturalLoop returns the block set of the natural loop of back edge
// tail→head.
func (c *cfg) naturalLoop(tail, head int) map[int]bool {
	loop := map[int]bool{head: true}
	var stack []int
	if tail != head {
		loop[tail] = true
		stack = append(stack, tail)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range c.preds[b] {
			if !loop[p] {
				loop[p] = true
				stack = append(stack, p)
			}
		}
	}
	return loop
}

// LICM hoists loop-invariant pure instructions (and loads of variables not
// stored in the loop) to the loop header's immediate dominator. Returns
// whether anything moved.
func LICM(fn *ir.Function) bool {
	c := buildCFG(fn)
	changed := false
	// Collect back edges.
	type edge struct{ tail, head int }
	var backEdges []edge
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			j := c.index[s]
			if c.dominates(j, i) {
				backEdges = append(backEdges, edge{tail: i, head: j})
			}
		}
	}
	for _, e := range backEdges {
		loop := c.naturalLoop(e.tail, e.head)
		hoistTo := c.idom(e.head)
		if hoistTo < 0 || loop[hoistTo] {
			continue
		}
		hoistBlk := fn.Blocks[hoistTo]
		// Allocas stored inside the loop: loads of them are not invariant.
		storedAllocas := map[*ir.Instr]bool{}
		anyWildStore := false
		for bi, blk := range fn.Blocks {
			if !loop[bi] {
				continue
			}
			for _, in := range blk.Instrs {
				if in.Op == ir.OpStore {
					if tgt, ok := in.Args[0].(*ir.Instr); ok && tgt.Op == ir.OpAlloca {
						storedAllocas[tgt] = true
					} else {
						anyWildStore = true
					}
				}
				if in.Op == ir.OpCall {
					anyWildStore = true // calls may store anywhere
				}
			}
		}
		// operandOK reports whether v is already available at hoistBlk.
		operandOK := func(v ir.Value) bool {
			in, ok := v.(*ir.Instr)
			if !ok {
				return true // constants, parameters
			}
			bi, known := c.index[in.Block]
			if !known {
				return false
			}
			return !loop[bi] && c.dominates(bi, hoistTo)
		}
		// Iterate to drag whole invariant chains out.
		for pass := 0; pass < 16; pass++ {
			moved := false
			// In function order, not the set's: the order invariant
			// instructions of different blocks reach the preheader in is
			// part of the output.
			for bi, blk := range fn.Blocks {
				if !loop[bi] {
					continue
				}
				for _, in := range append([]*ir.Instr(nil), blk.Instrs...) {
					hoistable := false
					switch {
					case pureNonFaulting(in.Op) && in.Producing():
						hoistable = true
					case in.Op == ir.OpLoad && !anyWildStore:
						// A load of a variable with no stores inside the
						// loop is invariant.
						if src, ok := in.Args[0].(*ir.Instr); ok && src.Op == ir.OpAlloca && !storedAllocas[src] {
							hoistable = true
						}
					}
					if !hoistable {
						continue
					}
					ok := true
					for _, a := range in.Args {
						if !operandOK(a) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					ir.RemoveInstr(in)
					term := hoistBlk.Terminator()
					ir.InsertBefore(term, in)
					moved = true
					changed = true
				}
			}
			if !moved {
				break
			}
		}
	}
	return changed
}

// Peephole folds redundant conversion chains: an integer widening followed
// by another conversion collapses to a single conversion, and identity
// conversions disappear. The Grover materializer emits long→ulong→int
// chains that this pass cleans up, matching what instruction selection
// would do.
func Peephole(fn *ir.Function) bool {
	changed := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpConvert {
				continue
			}
			src, ok := in.Args[0].(*ir.Instr)
			if !ok || src.Op != ir.OpConvert {
				continue
			}
			// in converts B→C over src converting A→B: when A, B are
			// integers and B is at least as wide as A, the intermediate
			// conversion is value-preserving and can be skipped.
			a, aok := intScalar(src.Args[0].Type())
			bk, bok := intScalar(src.Typ)
			if _, cok := intScalar(in.Typ); aok && bok && cok && bk.Size() >= a.Size() {
				in.Args[0] = src.Args[0]
				changed = true
			}
		}
		// Identity conversions: forward the operand.
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if in.Op == ir.OpConvert && clc.TypesEqual(in.Typ, in.Args[0].Type()) {
				ir.ReplaceUses(fn, in, in.Args[0])
				ir.RemoveInstr(in)
				changed = true
			}
		}
	}
	return changed
}

// intScalar returns the scalar type when t is an integer scalar.
func intScalar(t clc.Type) (*clc.ScalarType, bool) {
	s, ok := t.(*clc.ScalarType)
	if !ok || !s.Kind.IsInteger() {
		return nil, false
	}
	return s, true
}

// wholeVars returns fn's __private variables that are only ever read and
// written whole — allocas whose address never escapes (ir.AllocaUses) —
// with their load and store counts.
func wholeVars(fn *ir.Function) map[*ir.Instr]*ir.AllocaUse {
	vars := ir.AllocaUses(fn)
	for a, u := range vars {
		if a.Space != clc.ASPrivate || u.Escapes {
			delete(vars, a)
		}
	}
	return vars
}

// LoadForward performs block-local store-to-load forwarding and redundant
// load elimination for scalar private variables (a lightweight stand-in
// for mem2reg): within a block, a load of a variable whose current value
// is known — from a preceding store or load — is replaced by that value.
func LoadForward(fn *ir.Function) bool {
	vars := wholeVars(fn)
	changed := false
	for _, b := range fn.Blocks {
		known := map[*ir.Instr]ir.Value{}
		var dead []*ir.Instr
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				if tgt, ok := in.Args[0].(*ir.Instr); ok {
					if _, whole := vars[tgt]; whole {
						known[tgt] = in.Args[1]
						continue
					}
				}
				// A store through a computed pointer cannot alias a
				// tracked non-escaping private alloca; keep the map.
			case ir.OpLoad:
				if src, ok := in.Args[0].(*ir.Instr); ok {
					if _, whole := vars[src]; whole {
						if v, ok := known[src]; ok {
							ir.ReplaceUses(fn, in, v)
							dead = append(dead, in)
							changed = true
						} else {
							known[src] = in
						}
					}
				}
			case ir.OpCall:
				// Callees cannot reach caller-private non-escaping
				// allocas, but stay conservative.
				known = map[*ir.Instr]ir.Value{}
			}
		}
		for _, in := range dead {
			ir.RemoveInstr(in)
		}
	}
	return changed
}

// DSE removes stores to private variables that are never loaded and never
// escape (dead variables), so DCE can clean up their value chains.
func DSE(fn *ir.Function) bool {
	vars := wholeVars(fn)
	changed := false
	for _, b := range fn.Blocks {
		var keep []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				if tgt, ok := in.Args[0].(*ir.Instr); ok {
					if u, whole := vars[tgt]; whole && u.Loads == 0 {
						changed = true
						continue
					}
				}
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
	}
	return changed
}

// Dominance exposes block dominance for other passes (the Grover
// transformation checks that reused subexpressions dominate their new use
// sites).
type Dominance struct{ c *cfg }

// ComputeDominance analyzes fn's control-flow graph.
func ComputeDominance(fn *ir.Function) *Dominance {
	return &Dominance{c: buildCFG(fn)}
}

// Dominates reports whether block a dominates block b. Unknown blocks
// (not part of the analyzed function) never dominate.
func (d *Dominance) Dominates(a, b *ir.Block) bool {
	ai, ok := d.c.index[a]
	if !ok {
		return false
	}
	bi, ok := d.c.index[b]
	if !ok {
		return false
	}
	return d.c.dominates(ai, bi)
}
