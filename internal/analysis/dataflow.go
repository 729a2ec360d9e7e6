package analysis

import "grover/internal/ir"

// BitSet is a fixed-width bit vector, the lattice element of the generic
// dataflow solver.
type BitSet []uint64

// NewBitSet returns an empty set over n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports whether bit i is present.
func (b BitSet) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Clone returns a copy.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// OrWith unions o into b, reporting whether b changed.
func (b BitSet) OrWith(o BitSet) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// ForwardProblem is a forward may-analysis with union confluence:
//
//	In[b]  = ∪ Out[p] over predecessors p
//	Out[b] = (In[b] \ Kill[b]) ∪ Gen[b]
type ForwardProblem struct {
	Bits      int
	Gen, Kill []BitSet
}

// SolveForward iterates the problem to fixpoint in block order and
// returns the In and Out sets per block.
func SolveForward(cfg *ir.CFG, p *ForwardProblem) (in, out []BitSet) {
	n := len(cfg.Blocks)
	in = make([]BitSet, n)
	out = make([]BitSet, n)
	for i := 0; i < n; i++ {
		in[i] = NewBitSet(p.Bits)
		out[i] = NewBitSet(p.Bits)
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			for _, pr := range cfg.Pred[b] {
				if in[b].OrWith(out[pr]) {
					changed = true
				}
			}
			for i := range out[b] {
				n := in[b][i]&^p.Kill[b][i] | p.Gen[b][i]
				if n != out[b][i] {
					out[b][i] = n
					changed = true
				}
			}
		}
	}
	return in, out
}

// ReachingDefs computes which stores may be the last write to each
// private variable at every program point. Stores directly to an alloca
// (scalar variables) kill earlier stores to the same alloca; stores
// through an index chain (array elements) only generate.
type ReachingDefs struct {
	cfg *ir.CFG
	// Defs are all stores rooted at an alloca, in block order.
	Defs []*ir.Instr
	idx  map[*ir.Instr]int
	// root maps each def to its base alloca.
	root map[*ir.Instr]*ir.Instr
	// byAlloca lists def indices per alloca.
	byAlloca map[*ir.Instr][]int
	in       []BitSet
}

// ComputeReachingDefs builds and solves the reaching-definitions problem
// over all alloca-rooted stores of cfg's function.
func ComputeReachingDefs(cfg *ir.CFG) *ReachingDefs {
	rd := &ReachingDefs{
		cfg:      cfg,
		idx:      map[*ir.Instr]int{},
		root:     map[*ir.Instr]*ir.Instr{},
		byAlloca: map[*ir.Instr][]int{},
	}
	for _, b := range cfg.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			base, ok := ir.RootOf(in.Args[0]).(*ir.Instr)
			if !ok {
				continue
			}
			rd.idx[in] = len(rd.Defs)
			rd.root[in] = base
			rd.byAlloca[base] = append(rd.byAlloca[base], len(rd.Defs))
			rd.Defs = append(rd.Defs, in)
		}
	}
	nb := len(cfg.Blocks)
	p := &ForwardProblem{Bits: len(rd.Defs), Gen: make([]BitSet, nb), Kill: make([]BitSet, nb)}
	for bi, b := range cfg.Blocks {
		gen := NewBitSet(len(rd.Defs))
		kill := NewBitSet(len(rd.Defs))
		for _, in := range b.Instrs {
			di, ok := rd.idx[in]
			if !ok {
				continue
			}
			rd.applyDef(in, di, gen, kill)
		}
		p.Gen[bi], p.Kill[bi] = gen, kill
	}
	rd.in, _ = SolveForward(cfg, p)
	return rd
}

// applyDef updates transfer sets for one def: a whole-variable store
// kills every other def of the alloca before generating itself.
func (rd *ReachingDefs) applyDef(in *ir.Instr, di int, gen, kill BitSet) {
	if in.Args[0] == ir.Value(rd.root[in]) {
		for _, other := range rd.byAlloca[rd.root[in]] {
			if other != di {
				gen[other/64] &^= 1 << (uint(other) % 64)
				kill.Set(other)
			}
		}
	}
	gen.Set(di)
	kill[di/64] &^= 1 << (uint(di) % 64)
}

// ReachingStores returns the stores to alloca that may reach the program
// point just before at.
func (rd *ReachingDefs) ReachingStores(at *ir.Instr, alloca *ir.Instr) []*ir.Instr {
	bi, ok := rd.cfg.Index[at.Block]
	if !ok {
		return nil
	}
	live := rd.in[bi].Clone()
	kill := NewBitSet(len(rd.Defs))
	for _, in := range at.Block.Instrs {
		if in == at {
			break
		}
		if di, isDef := rd.idx[in]; isDef {
			rd.applyDef(in, di, live, kill)
		}
	}
	var out []*ir.Instr
	for _, di := range rd.byAlloca[alloca] {
		if live.Get(di) {
			out = append(out, rd.Defs[di])
		}
	}
	return out
}
