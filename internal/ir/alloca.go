package ir

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
// stores counted here, so its value can be followed (opt.LoadForward,
// opt.DSE) or kept out of memory altogether (wgvec's slot registers).
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
				u, tracked := uses[src]
				if !tracked {
					continue
				}
				switch {
				case in.Op == OpLoad && ai == 0:
					u.Loads++
				case in.Op == OpStore && ai == 0:
					u.Stores++
				default:
					u.Escapes = true
				}
			}
		}
	}
	return uses
}
