package ir

import "grover/internal/clc"

// AllocaUse says how a function uses one of its allocas.
type AllocaUse struct {
	// Loads and Stores count the direct accesses: the alloca itself is the
	// address operand.
	Loads, Stores int
	// Escapes is set by any other use — an index, a conversion, a call
	// argument, the value operand of a store: the address goes somewhere
	// the direct accesses do not show.
	Escapes bool
}

// AllocaUses classifies every alloca of fn by its uses. A variable that
// does not escape is only ever read and written whole, by the loads and
// stores counted here, so its value can be followed (opt.LoadForward and
// opt.DSE, which count by instruction ID) or kept out of memory altogether
// (wgvec's slot registers).
func AllocaUses(fn *Function) map[*Instr]*AllocaUse {
	uses := map[*Instr]*AllocaUse{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAlloca {
				uses[in] = &AllocaUse{}
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				src, ok := a.(*Instr)
				if !ok {
					continue
				}
				if u, tracked := uses[src]; tracked {
					u.Count(in, ai)
				}
			}
		}
	}
	return uses
}

// Count records a use of the alloca u describes as operand ai of in.
func (u *AllocaUse) Count(in *Instr, ai int) {
	switch {
	case in.Op == OpLoad && ai == 0:
		u.Loads++
	case in.Op == OpStore && ai == 0:
		u.Stores++
	default:
		u.Escapes = true
	}
}

// PointerRoot walks pointer v up through OpIndex and OpConvert to what it
// is rooted at, a pointer-typed *Param or an OpAlloca, and returns that
// root with the OpIndex chain from it to v, outermost first. The root is
// nil when the walk meets anything else: a loaded pointer, a call, a
// non-pointer parameter. Callers that need only the root use RootOf,
// which builds no chain.
func PointerRoot(v Value) (Value, []*Instr) {
	root, n := rootOf(v)
	if root == nil || n == 0 {
		return root, nil
	}
	chain := make([]*Instr, n)
	for v != root {
		in := v.(*Instr)
		if in.Op == OpIndex {
			n--
			chain[n] = in
		}
		v = in.Args[0]
	}
	return root, chain
}

// RootOf is PointerRoot's root alone.
func RootOf(v Value) Value {
	root, _ := rootOf(v)
	return root
}

// rootOf is the walk behind PointerRoot: the root, and how many OpIndex
// lie between it and v.
func rootOf(v Value) (Value, int) {
	n := 0
	for {
		switch x := v.(type) {
		case *Param:
			if _, ok := x.Typ.(*clc.PointerType); !ok {
				return nil, 0
			}
			return x, n
		case *Instr:
			switch x.Op {
			case OpAlloca:
				return x, n
			case OpIndex:
				n++
			case OpConvert:
			default:
				return nil, 0
			}
			v = x.Args[0]
		default:
			return nil, 0
		}
	}
}
