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
	"slices"
	"strconv"

	"grover/internal/analysis/graph"
	"grover/internal/clc"
	"grover/internal/debug"
	"grover/internal/ir"
)

// pass is one named scalar optimization. It is handed the function's CFG,
// which optimize builds once per function: no pass changes a terminator.
type pass struct {
	name string
	run  func(*ir.Function, *cfg) bool
}

// passes is the standard pipeline, named so the debug verifier can say
// which pass broke the IR — and so rewrite plans can select and reorder
// a subset by name (phase ordering as a tunable).
var passes = []pass{
	{"cse", noCFG(CSE)},
	{"load-forward", noCFG(LoadForward)},
	{"dse", noCFG(DSE)},
	{"peephole", noCFG(Peephole)},
	{"licm", licm},
	{"dce", noCFG(func(fn *ir.Function) bool { return DCE(fn) > 0 })},
}

// noCFG adapts a pass that does not read the CFG.
func noCFG(run func(*ir.Function) bool) func(*ir.Function, *cfg) bool {
	return func(fn *ir.Function, _ *cfg) bool { return run(fn) }
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
		c := buildCFG(fn)
		for i := 0; i < 32; i++ { // fixpoint, bounded
			changed := false
			for _, p := range pipeline {
				if !p.run(fn, c) {
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

// subst is one pass's replacements: each replaced instruction maps to the
// value that takes its place. A pass resolves operands through it as it
// reads them, and apply rewrites the function in one sweep at the end, so
// a replacement costs a map entry rather than a scan of the function.
type subst map[*ir.Instr]ir.Value

// resolve follows v's replacements to the value that stands for it now.
// Passes record replacements already resolved, so that a run of forwarded
// copies does not become a chain each read walks.
func (s subst) resolve(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		r, ok := s[in]
		if !ok {
			return v
		}
		v = r
	}
}

// apply drops every replaced instruction and rewrites every operand to its
// resolved value, one sweep over each block. It reports whether anything
// was replaced.
func (s subst) apply(fn *ir.Function) bool {
	if len(s) == 0 {
		return false
	}
	for _, b := range fn.Blocks {
		b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool { _, gone := s[in]; return gone })
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = s.resolve(a)
			}
		}
	}
	return true
}

// cseKeys builds CSE keys in one reused buffer. Two instructions share a
// key when they agree on op, result type, Func, Comps and operands;
// constants compare by value and type, every other operand by identity.
type cseKeys struct {
	buf   []byte
	types map[clc.Type]string
	ids   map[ir.Value]int
}

func (k *cseKeys) typ(t clc.Type) {
	s, ok := k.types[t]
	if !ok {
		s = fmt.Sprint(t)
		k.types[t] = s
	}
	k.buf = append(k.buf, s...)
}

// key returns in's key with its operands resolved through s. The bytes are
// valid until the next call.
func (k *cseKeys) key(in *ir.Instr, s subst) []byte {
	k.buf = strconv.AppendInt(k.buf[:0], int64(in.Op), 10)
	k.buf = append(k.buf, '|')
	k.typ(in.Typ)
	k.buf = append(k.buf, '|')
	k.buf = append(k.buf, in.Func...)
	k.buf = append(k.buf, '|')
	for _, c := range in.Comps {
		k.buf = strconv.AppendInt(k.buf, int64(c), 10)
		k.buf = append(k.buf, ',')
	}
	for _, a := range in.Args {
		switch c := s.resolve(a).(type) {
		case *ir.ConstInt:
			k.buf = strconv.AppendInt(append(k.buf, "|i"...), c.Val, 10)
			k.buf = append(k.buf, ':')
			k.typ(c.Typ)
		case *ir.ConstFloat:
			// Shortest round-trip form: 0 and -0 differ, as do all
			// other distinct values.
			k.buf = strconv.AppendFloat(append(k.buf, "|f"...), c.Val, 'g', -1, 64)
			k.buf = append(k.buf, ':')
			k.typ(c.Typ)
		default:
			id, ok := k.ids[c]
			if !ok {
				id = len(k.ids)
				k.ids[c] = id
			}
			k.buf = strconv.AppendInt(append(k.buf, "|v"...), int64(id), 10)
		}
	}
	return k.buf
}

// CSE eliminates duplicate pure expressions within each basic block.
func CSE(fn *ir.Function) bool {
	s := subst{}
	keys := &cseKeys{types: map[clc.Type]string{}, ids: map[ir.Value]int{}}
	seen := map[string]*ir.Instr{}
	for _, b := range fn.Blocks {
		clear(seen)
		for _, in := range b.Instrs {
			if !pureNonFaulting(in.Op) || !in.Producing() {
				continue
			}
			key := keys.key(in, s)
			if prev, ok := seen[string(key)]; ok {
				s[in] = prev
				continue
			}
			seen[string(key)] = in
		}
	}
	return s.apply(fn)
}

// DCE removes value-producing instructions with no remaining uses,
// transitively, and returns the number removed. Stores, calls, barriers
// and terminators are roots.
func DCE(fn *ir.Function) int {
	uses := map[*ir.Instr]int{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					uses[d]++
				}
			}
		}
	}
	removable := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpStore, ir.OpCall, ir.OpBarrier, ir.OpBr, ir.OpCondBr, ir.OpRet:
			return false
		}
		return uses[in] == 0
	}
	var work []*ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if removable(in) {
				work = append(work, in)
			}
		}
	}
	removed := 0
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		uses[in] = -1 // dead
		removed++
		for _, a := range in.Args {
			if d, ok := a.(*ir.Instr); ok {
				uses[d]--
				if removable(d) {
					work = append(work, d)
				}
			}
		}
	}
	if removed > 0 {
		for _, b := range fn.Blocks {
			b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool { return uses[in] < 0 })
		}
	}
	return removed
}

// ---------------------------------------------------------------- LICM

// cfg holds per-function analysis state for LICM: the blocks' dominator
// tree under a virtual root, numbered len(preds), that enters at the entry
// and at every block without predecessors. Such a block is thus an entry
// of its own, dominated by itself alone, and a block it reaches is
// dominated only by blocks on every path to it from the root.
type cfg struct {
	index map[*ir.Block]int
	preds [][]int
	dom   *graph.Tree
}

func buildCFG(fn *ir.Function) *cfg {
	n := len(fn.Blocks)
	c := &cfg{index: make(map[*ir.Block]int, n), preds: make([][]int, n)}
	for i, b := range fn.Blocks {
		c.index[b] = i
	}
	succ := make([][]int, n+1)
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			j := c.index[s]
			succ[i] = append(succ[i], j)
			c.preds[j] = append(c.preds[j], i)
		}
	}
	succ[n] = append(succ[n], 0)
	for i := 1; i < n; i++ {
		if len(c.preds[i]) == 0 {
			succ[n] = append(succ[n], i)
		}
	}
	c.dom = graph.Dominators(n+1, succ, n)
	return c
}

// dominates reports whether block a dominates block b.
func (c *cfg) dominates(a, b int) bool { return c.dom.Dominates(a, b) }

// idom returns b's immediate dominator, or -1 for the entry and for a
// block only the virtual root dominates.
func (c *cfg) idom(b int) int {
	if d := c.dom.Idom[b]; d < len(c.preds) {
		return d
	}
	return -1
}

// naturalLoop returns the blocks of the natural loop of back edge
// tail→head, as a set and in function order.
func (c *cfg) naturalLoop(tail, head int) (map[int]bool, []int) {
	loop := map[int]bool{head: true, tail: true}
	blocks := []int{head}
	if tail != head {
		blocks = append(blocks, tail)
	}
	for i := 1; i < len(blocks); i++ {
		for _, p := range c.preds[blocks[i]] {
			if !loop[p] {
				loop[p] = true
				blocks = append(blocks, p)
			}
		}
	}
	slices.Sort(blocks)
	return loop, blocks
}

// licm hoists loop-invariant pure instructions (and loads of variables not
// stored in the loop) out of fn, whose CFG is c, to each loop header's
// immediate dominator. Returns whether anything moved.
func licm(fn *ir.Function, c *cfg) bool {
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
		loop, blocks := c.naturalLoop(e.tail, e.head)
		hoistTo := c.idom(e.head)
		if hoistTo < 0 || loop[hoistTo] {
			continue
		}
		hoistBlk := fn.Blocks[hoistTo]
		// Allocas stored inside the loop: loads of them are not invariant.
		storedAllocas := map[*ir.Instr]bool{}
		anyWildStore := false
		for _, bi := range blocks {
			for _, in := range fn.Blocks[bi].Instrs {
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
			var moved []*ir.Instr
			// In function order, not the set's: the order invariant
			// instructions of different blocks reach the preheader in is
			// part of the output.
			for _, bi := range blocks {
				for _, in := range fn.Blocks[bi].Instrs {
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
					// Moved now, so its users later in this pass see it
					// available; the blocks are rewritten once below.
					in.Block = hoistBlk
					moved = append(moved, in)
				}
			}
			if len(moved) == 0 {
				break
			}
			changed = true
			for _, bi := range blocks {
				blk := fn.Blocks[bi]
				blk.Instrs = slices.DeleteFunc(blk.Instrs, func(in *ir.Instr) bool { return in.Block != blk })
			}
			hoistBlk.Instrs = slices.Insert(hoistBlk.Instrs, len(hoistBlk.Instrs)-1, moved...)
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
	s := subst{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpConvert {
				continue
			}
			src, ok := s.resolve(in.Args[0]).(*ir.Instr)
			if !ok || src.Op != ir.OpConvert {
				continue
			}
			// in converts B→C over src converting A→B: when A, B are
			// integers and B is at least as wide as A, the intermediate
			// conversion is value-preserving and can be skipped.
			a, aok := intScalar(s.resolve(src.Args[0]).Type())
			bk, bok := intScalar(src.Typ)
			if _, cok := intScalar(in.Typ); aok && bok && cok && bk.Size() >= a.Size() {
				in.Args[0] = src.Args[0]
				changed = true
			}
		}
		// Identity conversions: forward the operand.
		for _, in := range b.Instrs {
			if in.Op != ir.OpConvert {
				continue
			}
			if x := s.resolve(in.Args[0]); clc.TypesEqual(in.Typ, x.Type()) {
				s[in] = x
			}
		}
	}
	return s.apply(fn) || changed
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
	s := subst{}
	known := map[*ir.Instr]ir.Value{}
	for _, b := range fn.Blocks {
		clear(known)
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				if tgt, ok := s.resolve(in.Args[0]).(*ir.Instr); ok {
					if _, whole := vars[tgt]; whole {
						known[tgt] = in.Args[1]
						continue
					}
				}
				// A store through a computed pointer cannot alias a
				// tracked non-escaping private alloca; keep the map.
			case ir.OpLoad:
				if src, ok := s.resolve(in.Args[0]).(*ir.Instr); ok {
					if _, whole := vars[src]; whole {
						if v, ok := known[src]; ok {
							s[in] = s.resolve(v)
						} else {
							known[src] = in
						}
					}
				}
			case ir.OpCall:
				// Callees cannot reach caller-private non-escaping
				// allocas, but stay conservative.
				clear(known)
			}
		}
	}
	return s.apply(fn)
}

// DSE removes stores to private variables that are never loaded and never
// escape (dead variables), so DCE can clean up their value chains.
func DSE(fn *ir.Function) bool {
	vars := wholeVars(fn)
	changed := false
	for _, b := range fn.Blocks {
		b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool {
			if in.Op == ir.OpStore {
				if tgt, ok := in.Args[0].(*ir.Instr); ok {
					if u, whole := vars[tgt]; whole && u.Loads == 0 {
						changed = true
						return true
					}
				}
			}
			return false
		})
	}
	return changed
}
