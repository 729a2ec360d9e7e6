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
	"math"
	"slices"

	"grover/internal/analysis/graph"
	"grover/internal/clc"
	"grover/internal/debug"
	"grover/internal/ir"
)

// pass is one named scalar optimization. It runs on the scratch's
// function, with the CFG optimize builds once per function: no pass
// changes a terminator.
type pass struct {
	name string
	run  func(*scratch) bool
}

// passes is the standard pipeline, named so the debug verifier can say
// which pass broke the IR — and so rewrite plans can select and reorder
// a subset by name (phase ordering as a tunable).
var passes = []pass{
	{"cse", (*scratch).cse},
	{"load-forward", (*scratch).loadForward},
	{"dse", (*scratch).dse},
	{"peephole", (*scratch).peephole},
	{"licm", (*scratch).licm},
	{"dce", func(s *scratch) bool { return s.dce() > 0 }},
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
	s := &scratch{}
	for _, fn := range m.Funcs {
		fn.AssignIDs()
		s.fn, s.cfg = fn, buildCFG(fn)
		for i := 0; i < 32; i++ { // fixpoint, bounded
			changed := false
			for _, p := range pipeline {
				if !p.run(s) {
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

// scratch is what the passes keep per instruction, indexed by instruction
// ID, and per block, indexed by the block's position in the function. A
// pass needs IDs as ir.Verify checks them: distinct and below
// fn.NextID(). No pass creates an instruction, so the IDs optimize assigns
// on entry hold for every pass and fixpoint round, which share one
// scratch; the exported passes take one of their own.
type scratch struct {
	fn  *ir.Function
	cfg *cfg // for licm alone

	sub subst
	// uses counts each instruction's uses for DCE; -1 marks it removed.
	uses []int32
	work []*ir.Instr
	// vars classifies each alloca's uses, for wholeVars.
	vars []ir.AllocaUse
	// known is LoadForward's value of each variable in the current block,
	// by alloca ID.
	known table[ir.Value]
	// stored marks the allocas stored in the loop licm hoists from, by
	// ID; inLoop marks the loop's blocks.
	stored, inLoop table[bool]
	moved          []*ir.Instr // what one licm sweep hoists
	hashes         cseTable
}

// table maps small indices (instruction IDs or block positions) to values.
// Emptying it costs the entries set since it was last emptied, never its
// length: the 16,000-statement if-chain has 16,000 blocks.
type table[T comparable] struct {
	vals []T
	set  []int32
}

// fit makes the table hold indices below n; it must be empty.
func (t *table[T]) fit(n int) {
	if len(t.vals) < n {
		t.vals = make([]T, n)
	}
}

func (t *table[T]) put(i int, v T) {
	var zero T
	if t.vals[i] == zero {
		t.set = append(t.set, int32(i))
	}
	t.vals[i] = v
}

func (t *table[T]) reset() {
	var zero T
	for _, i := range t.set {
		t.vals[i] = zero
	}
	t.set = t.set[:0]
}

// zeroed returns buf, or a new slice where buf is too short, as n zeros.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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

// subst is one pass's replacements: each replaced instruction's ID maps to
// the value that takes its place. A pass resolves operands through it as
// it reads them, and apply rewrites the function in one sweep at the end,
// so a replacement costs a table entry rather than a scan of the function.
type subst struct{ table[ir.Value] }

// begin readies s for a pass over fn.
func (s *subst) begin(fn *ir.Function) *subst {
	s.fit(fn.NextID())
	return s
}

// replace records that v takes in's place.
func (s *subst) replace(in *ir.Instr, v ir.Value) { s.put(in.ID, v) }

// resolve follows v's replacements to the value that stands for it now.
// Passes record replacements already resolved, so that a run of forwarded
// copies does not become a chain each read walks.
func (s *subst) resolve(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.ID < 0 || s.vals[in.ID] == nil {
			return v
		}
		v = s.vals[in.ID]
	}
}

// replaced reports whether in has a replacement.
func (s *subst) replaced(in *ir.Instr) bool { return in.ID >= 0 && s.vals[in.ID] != nil }

// apply drops every replaced instruction and rewrites every operand to its
// resolved value, one sweep over each block, and empties s. It reports
// whether anything was replaced.
func (s *subst) apply(fn *ir.Function) bool {
	if len(s.set) == 0 {
		return false
	}
	for _, b := range fn.Blocks {
		b.Instrs = slices.DeleteFunc(b.Instrs, s.replaced)
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				in.Args[i] = s.resolve(a)
			}
		}
	}
	s.reset()
	return true
}

// cseTable holds the pure instructions of the block CSE is in, by hash, in
// open addressing. A slot counts only when it carries the current block's
// stamp, so moving to the next block empties the table at no cost.
type cseTable struct {
	slots []cseSlot
	stamp uint32
}

type cseSlot struct {
	hash  uint64
	stamp uint32
	in    *ir.Instr
}

// fit makes room for blocks of up to n instructions at a load of at most
// one half.
func (t *cseTable) fit(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if len(t.slots) < size {
		t.slots, t.stamp = make([]cseSlot, size), 0
	}
}

// nextBlock empties the table.
func (t *cseTable) nextBlock() {
	t.stamp++
	if t.stamp == 0 { // wrapped: clear the stamps that could match again
		clear(t.slots)
		t.stamp = 1
	}
}

// CSE eliminates duplicate pure expressions within each basic block.
func CSE(fn *ir.Function) bool { return (&scratch{fn: fn}).cse() }

func (s *scratch) cse() bool {
	sub := s.sub.begin(s.fn)
	longest := 0
	for _, b := range s.fn.Blocks {
		longest = max(longest, len(b.Instrs))
	}
	t := &s.hashes
	t.fit(longest)
	mask := uint64(len(t.slots) - 1)
	for _, b := range s.fn.Blocks {
		t.nextBlock()
		for _, in := range b.Instrs {
			if !pureNonFaulting(in.Op) || !in.Producing() {
				continue
			}
			h := cseHash(in, sub)
			for i := h & mask; ; i = (i + 1) & mask {
				sl := &t.slots[i]
				if sl.stamp != t.stamp {
					*sl = cseSlot{hash: h, stamp: t.stamp, in: in}
					break
				}
				// A hash both share with unequal instructions probes on.
				if sl.hash == h && cseEqual(sl.in, in, sub) {
					sub.replace(in, sl.in)
					break
				}
			}
		}
	}
	return sub.apply(s.fn)
}

// cseHash hashes what cseEqual compares but the types: the op, Func,
// Comps and the operands resolved through sub — an instruction by ID, a
// parameter by index, a constant by value, every NaN alike.
func cseHash(in *ir.Instr, sub *subst) uint64 {
	h := mix(0, uint64(in.Op))
	for i := 0; i < len(in.Func); i++ {
		h = mix(h, uint64(in.Func[i]))
	}
	h = mix(h, uint64(len(in.Comps)))
	for _, c := range in.Comps {
		h = mix(h, uint64(c))
	}
	for _, a := range in.Args {
		switch v := sub.resolve(a).(type) {
		case *ir.Instr:
			h = mix(mix(h, 1), uint64(v.ID))
		case *ir.Param:
			h = mix(mix(h, 2), uint64(v.Index))
		case *ir.ConstInt:
			h = mix(mix(h, 3), uint64(v.Val))
		case *ir.ConstFloat:
			bits := math.Float64bits(v.Val)
			if math.IsNaN(v.Val) {
				bits = math.Float64bits(math.NaN())
			}
			h = mix(mix(h, 4), bits)
		default:
			h = mix(h, 5)
		}
	}
	return h
}

// mix folds x into hash h.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// cseEqual reports whether a and b compute the same value: they agree on
// op, printed result type, Func and Comps, and their operands resolved
// through sub are the same value, or constants equal in value and printed
// type. Floats are equal when their shortest round-trip texts are: 0 and
// −0 differ, and every NaN is equal.
func cseEqual(a, b *ir.Instr, sub *subst) bool {
	if a.Op != b.Op || a.Func != b.Func || len(a.Args) != len(b.Args) ||
		!slices.Equal(a.Comps, b.Comps) || !sameType(a.Typ, b.Typ) {
		return false
	}
	for i, x := range a.Args {
		x, y := sub.resolve(x), sub.resolve(b.Args[i])
		switch cx := x.(type) {
		case *ir.ConstInt:
			cy, ok := y.(*ir.ConstInt)
			if !ok || cx.Val != cy.Val || !sameType(cx.Typ, cy.Typ) {
				return false
			}
		case *ir.ConstFloat:
			cy, ok := y.(*ir.ConstFloat)
			if !ok || !sameFloat(cx.Val, cy.Val) || !sameType(cx.Typ, cy.Typ) {
				return false
			}
		default:
			if x != y {
				return false
			}
		}
	}
	return true
}

// sameFloat reports whether x and y have one shortest round-trip text:
// the same bits, or both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// sameType reports whether a and b print alike, which clc.TypesEqual
// implies.
func sameType(a, b clc.Type) bool {
	return clc.TypesEqual(a, b) || fmt.Sprint(a) == fmt.Sprint(b)
}

// DCE removes value-producing instructions with no remaining uses,
// transitively, and returns the number removed. Stores, calls, barriers
// and terminators are roots.
func DCE(fn *ir.Function) int { return (&scratch{fn: fn}).dce() }

func (s *scratch) dce() int {
	fn := s.fn
	uses := zeroed(s.uses, fn.NextID())
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					uses[d.ID]++
				}
			}
		}
	}
	removable := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpStore, ir.OpCall, ir.OpBarrier, ir.OpBr, ir.OpCondBr, ir.OpRet:
			return false
		}
		return in.ID >= 0 && uses[in.ID] == 0
	}
	work := s.work[:0]
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
		uses[in.ID] = -1 // dead
		removed++
		for _, a := range in.Args {
			if d, ok := a.(*ir.Instr); ok {
				uses[d.ID]--
				if removable(d) {
					work = append(work, d)
				}
			}
		}
	}
	if removed > 0 {
		for _, b := range fn.Blocks {
			b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool { return in.ID >= 0 && uses[in.ID] < 0 })
		}
	}
	s.uses, s.work = uses, work
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

// naturalLoop marks in loop the blocks of the natural loop of back edge
// tail→head and returns them in function order: the loop's list of the
// entries it set, valid until it is reset.
func (c *cfg) naturalLoop(tail, head int, loop *table[bool]) []int32 {
	loop.put(head, true)
	loop.put(tail, true)
	for i := 1; i < len(loop.set); i++ {
		for _, p := range c.preds[loop.set[i]] {
			if !loop.vals[p] {
				loop.put(p, true)
			}
		}
	}
	slices.Sort(loop.set)
	return loop.set
}

// licm hoists loop-invariant pure instructions (and loads of variables not
// stored in the loop) out of the function to each loop header's immediate
// dominator. Returns whether anything moved.
func (s *scratch) licm() bool {
	fn, c := s.fn, s.cfg
	s.inLoop.fit(len(fn.Blocks))
	s.stored.fit(fn.NextID())
	changed := false
	for i, b := range fn.Blocks {
		for _, succ := range b.Succs() {
			if j := c.index[succ]; c.dominates(j, i) {
				changed = s.hoistLoop(i, j) || changed
				s.inLoop.reset()
				s.stored.reset()
			}
		}
	}
	return changed
}

// hoistLoop hoists what is invariant in the natural loop of back edge
// tail→head; it leaves the loop's blocks marked in s.inLoop and the allocas
// it stores in s.stored.
func (s *scratch) hoistLoop(tail, head int) bool {
	fn, c, loop := s.fn, s.cfg, &s.inLoop
	blocks := c.naturalLoop(tail, head, loop)
	hoistTo := c.idom(head)
	if hoistTo < 0 || loop.vals[hoistTo] {
		return false
	}
	hoistBlk := fn.Blocks[hoistTo]
	// Allocas stored inside the loop: loads of them are not invariant.
	anyWildStore := false
	for _, bi := range blocks {
		for _, in := range fn.Blocks[bi].Instrs {
			if in.Op == ir.OpStore {
				if tgt, ok := in.Args[0].(*ir.Instr); ok && tgt.Op == ir.OpAlloca {
					s.stored.put(tgt.ID, true)
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
		return !loop.vals[bi] && c.dominates(bi, hoistTo)
	}
	changed := false
	// Iterate to drag whole invariant chains out.
	for pass := 0; pass < 16; pass++ {
		moved := s.moved[:0]
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
					if src, ok := in.Args[0].(*ir.Instr); ok && src.Op == ir.OpAlloca && !s.stored.vals[src.ID] {
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
		s.moved = moved
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
	return changed
}

// Peephole folds redundant conversion chains: an integer widening followed
// by another conversion collapses to a single conversion, and identity
// conversions disappear. The Grover materializer emits long→ulong→int
// chains that this pass cleans up, matching what instruction selection
// would do.
func Peephole(fn *ir.Function) bool { return (&scratch{fn: fn}).peephole() }

func (s *scratch) peephole() bool {
	changed := false
	sub := s.sub.begin(s.fn)
	for _, b := range s.fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpConvert {
				continue
			}
			src, ok := sub.resolve(in.Args[0]).(*ir.Instr)
			if !ok || src.Op != ir.OpConvert {
				continue
			}
			// in converts B→C over src converting A→B: when A, B are
			// integers and B is at least as wide as A, the intermediate
			// conversion is value-preserving and can be skipped.
			a, aok := intScalar(sub.resolve(src.Args[0]).Type())
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
			if x := sub.resolve(in.Args[0]); clc.TypesEqual(in.Typ, x.Type()) {
				sub.replace(in, x)
			}
		}
	}
	return sub.apply(s.fn) || changed
}

// intScalar returns the scalar type when t is an integer scalar.
func intScalar(t clc.Type) (*clc.ScalarType, bool) {
	s, ok := t.(*clc.ScalarType)
	if !ok || !s.Kind.IsInteger() {
		return nil, false
	}
	return s, true
}

// wholeVars classifies the uses of every alloca of the function into
// s.vars, by ID, for whole to read.
func (s *scratch) wholeVars() {
	s.vars = zeroed(s.vars, s.fn.NextID())
	for _, b := range s.fn.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if src, ok := a.(*ir.Instr); ok && src.Op == ir.OpAlloca {
					s.vars[src.ID].Count(in, ai)
				}
			}
		}
	}
}

// whole reports whether a is one of the function's __private variables
// that are only ever read and written whole — an alloca whose address
// never escapes (ir.AllocaUses) — and returns its uses.
func (s *scratch) whole(a *ir.Instr) (ir.AllocaUse, bool) {
	if a.Op != ir.OpAlloca || a.Space != clc.ASPrivate || s.vars[a.ID].Escapes {
		return ir.AllocaUse{}, false
	}
	return s.vars[a.ID], true
}

// LoadForward performs block-local store-to-load forwarding and redundant
// load elimination for scalar private variables (a lightweight stand-in
// for mem2reg): within a block, a load of a variable whose current value
// is known — from a preceding store or load — is replaced by that value.
func LoadForward(fn *ir.Function) bool { return (&scratch{fn: fn}).loadForward() }

func (s *scratch) loadForward() bool {
	s.wholeVars()
	sub := s.sub.begin(s.fn)
	known := &s.known
	known.fit(s.fn.NextID())
	for _, b := range s.fn.Blocks {
		known.reset()
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				if tgt, ok := sub.resolve(in.Args[0]).(*ir.Instr); ok {
					if _, whole := s.whole(tgt); whole {
						known.put(tgt.ID, in.Args[1])
						continue
					}
				}
				// A store through a computed pointer cannot alias a
				// tracked non-escaping private alloca; keep the table.
			case ir.OpLoad:
				if src, ok := sub.resolve(in.Args[0]).(*ir.Instr); ok {
					if _, whole := s.whole(src); whole {
						if v := known.vals[src.ID]; v != nil {
							sub.replace(in, sub.resolve(v))
						} else {
							known.put(src.ID, in)
						}
					}
				}
			case ir.OpCall:
				// Callees cannot reach caller-private non-escaping
				// allocas, but stay conservative.
				known.reset()
			}
		}
	}
	known.reset()
	return sub.apply(s.fn)
}

// DSE removes stores to private variables that are never loaded and never
// escape (dead variables), so DCE can clean up their value chains.
func DSE(fn *ir.Function) bool { return (&scratch{fn: fn}).dse() }

func (s *scratch) dse() bool {
	s.wholeVars()
	changed := false
	for _, b := range s.fn.Blocks {
		b.Instrs = slices.DeleteFunc(b.Instrs, func(in *ir.Instr) bool {
			if in.Op == ir.OpStore {
				if tgt, ok := in.Args[0].(*ir.Instr); ok {
					if u, whole := s.whole(tgt); whole && u.Loads == 0 {
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
