package ir

import (
	"fmt"

	"grover/internal/clc"
)

// Verify checks structural invariants of the module: every block ends in
// exactly one terminator, branch targets belong to the same function,
// memory ops have pointer operands, opcode-specific arity and type rules
// hold (OpBarrier, OpAlloca, OpWorkItem, ...), every use of an
// instruction value is dominated by its definition, and pointer values
// feeding OpIndex and load/store addresses obey the chain-shape rule
// (see verifyPointerProducer).
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("function %s: %w", f.Name, err)
		}
	}
	return nil
}

// workItemFuncs are the valid OpWorkItem query names and whether they take
// a dimension argument.
var workItemFuncs = map[string]bool{
	"get_global_id": true, "get_local_id": true, "get_group_id": true,
	"get_global_size": true, "get_local_size": true, "get_num_groups": true,
	"get_work_dim": false,
}

// VerifyFunc checks one function.
func VerifyFunc(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	blockSet := map[*Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	defined := map[Value]bool{}
	for _, p := range f.Params {
		defined[p] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Producing() {
				defined[in] = true
			}
		}
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if in.Op.IsTerminator() {
					return fmt.Errorf("block %s: terminator %s not at end", b.Name, in.Op)
				}
				return fmt.Errorf("block %s: missing terminator", b.Name)
			}
			if in.Block != b {
				return fmt.Errorf("block %s: instruction %s has wrong block link", b.Name, in.Format())
			}
			for _, a := range in.Args {
				switch a.(type) {
				case *ConstInt, *ConstFloat:
				default:
					if !defined[a] {
						return fmt.Errorf("block %s: %s uses undefined operand %s", b.Name, in.Format(), a)
					}
				}
			}
			for _, t := range in.Targets {
				if !blockSet[t] {
					return fmt.Errorf("block %s: branch to foreign block %s", b.Name, t.Name)
				}
			}
			if err := verifyInstr(in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Name, in.Format(), err)
			}
		}
	}
	return verifyDominance(f)
}

// verifyInstr applies per-opcode arity and type rules.
func verifyInstr(in *Instr) error {
	switch in.Op {
	case OpLoad:
		if len(in.Args) != 1 {
			return fmt.Errorf("load needs 1 operand")
		}
		if _, ok := in.Args[0].Type().(*clc.PointerType); !ok {
			return fmt.Errorf("load operand is not a pointer: %s", in.Args[0].Type())
		}
		if err := verifyPointerProducer(in.Args[0]); err != nil {
			return fmt.Errorf("load address: %w", err)
		}
	case OpStore:
		if len(in.Args) != 2 {
			return fmt.Errorf("store needs 2 operands")
		}
		if _, ok := in.Args[0].Type().(*clc.PointerType); !ok {
			return fmt.Errorf("store target is not a pointer: %s", in.Args[0].Type())
		}
		if err := verifyPointerProducer(in.Args[0]); err != nil {
			return fmt.Errorf("store address: %w", err)
		}
	case OpIndex:
		if len(in.Args) != 2 {
			return fmt.Errorf("index needs 2 operands")
		}
		if _, ok := in.Args[0].Type().(*clc.PointerType); !ok {
			return fmt.Errorf("index base is not a pointer: %s", in.Args[0].Type())
		}
		if err := verifyPointerProducer(in.Args[0]); err != nil {
			return fmt.Errorf("index base: %w", err)
		}
	case OpConvert:
		if _, ok := in.Typ.(*clc.PointerType); ok {
			if len(in.Args) != 1 {
				return fmt.Errorf("convert needs 1 operand")
			}
			if _, src := in.Args[0].Type().(*clc.PointerType); !src {
				return fmt.Errorf("pointer convert from non-pointer %s", in.Args[0].Type())
			}
		}
	case OpAlloca:
		if len(in.Args) != 0 {
			return fmt.Errorf("alloca takes no operands")
		}
		if _, ok := in.Typ.(*clc.PointerType); !ok {
			return fmt.Errorf("alloca result is not a pointer: %s", in.Typ)
		}
	case OpBarrier:
		if len(in.Args) > 1 {
			return fmt.Errorf("barrier takes at most 1 fence-flags operand")
		}
		if len(in.Args) == 1 {
			st, ok := in.Args[0].Type().(*clc.ScalarType)
			if !ok || !st.Kind.IsInteger() {
				return fmt.Errorf("barrier fence flags are not an integer: %s", in.Args[0].Type())
			}
		}
	case OpWorkItem:
		takesDim, known := workItemFuncs[in.Func]
		if !known {
			return fmt.Errorf("unknown work-item query %q", in.Func)
		}
		want := 0
		if takesDim {
			want = 1
		}
		if len(in.Args) != want {
			return fmt.Errorf("%s needs %d operand(s), has %d", in.Func, want, len(in.Args))
		}
		if want == 1 {
			st, ok := in.Args[0].Type().(*clc.ScalarType)
			if !ok || !st.Kind.IsInteger() {
				return fmt.Errorf("%s dimension is not an integer: %s", in.Func, in.Args[0].Type())
			}
		}
	case OpCondBr:
		if len(in.Targets) != 2 {
			return fmt.Errorf("condbr needs 2 targets")
		}
	case OpBr:
		if len(in.Targets) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case OpCall:
		if in.Callee == nil {
			return fmt.Errorf("call without callee")
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("call to %s: %d args, want %d", in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
	}
	return nil
}

// verifyPointerProducer enforces the pointer chain-shape rule that the
// static access collector (analysis/memaccess) and the Grover
// correspondence solver rely on: every pointer value feeding an OpIndex
// base or a load/store address must be produced by a pointer-typed
// parameter, an OpAlloca, another OpIndex, a pointer-to-pointer
// OpConvert, or an OpLoad (a pointer variable; chains rooted there are
// opaque to the collector but legal IR). Pointer values synthesized by
// any other opcode — integer arithmetic cast back to a pointer, vector
// ops, calls — would make PointerRoot's walk ill-founded,
// so Verify rejects them structurally.
//
// Note this is a shape rule over value edges, not a block rule: a chain
// link may live in a different block than its user (a loop-invariant
// row pointer in an outer loop body, or a prefix hoisted to a preheader
// by the hoist-addr rewrite), but only in a block that dominates the
// use — verifyDominance establishes that, so together the two checks
// guarantee every chain the collector walks is well-defined at its
// access site.
func verifyPointerProducer(v Value) error {
	switch x := v.(type) {
	case *Param:
		return nil // pointer-ness is checked by the caller's opcode rule
	case *Instr:
		switch x.Op {
		case OpAlloca, OpIndex, OpConvert, OpLoad:
			return nil
		}
		return fmt.Errorf("pointer produced by %s (want param, alloca, index, convert, or load)", x.Op)
	}
	return fmt.Errorf("pointer produced by non-instruction %T", v)
}

// verifyDominance enforces defs-dominate-uses over the dominator tree:
// every use of an instruction value must be in a block dominated by the
// definition's block, and within one block the definition must come first.
// Uses inside blocks unreachable from the entry are exempt (dominance is
// undefined there; dead blocks are sealed by the lowerer and removed by
// cleanup passes).
func verifyDominance(f *Function) error {
	cfg := NewCFG(f)
	idx, dom := cfg.Index, cfg.Dom
	// pos gives each instruction's index within its block.
	pos := map[*Instr]int{}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in] = i
		}
	}
	for bi, b := range f.Blocks {
		if !dom.Reachable(bi) {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue // constants and parameters dominate everything
				}
				di, known := idx[def.Block]
				if !known {
					return fmt.Errorf("block %s: %s uses value %s from a foreign function", b.Name, in.Format(), def)
				}
				if di == bi {
					if pos[def] >= pos[in] {
						return fmt.Errorf("block %s: %s uses %s before its definition", b.Name, in.Format(), def)
					}
					continue
				}
				if !dom.Dominates(di, bi) {
					return fmt.Errorf("block %s: %s uses %s whose definition (block %s) does not dominate the use",
						b.Name, in.Format(), def, def.Block.Name)
				}
			}
		}
	}
	return nil
}
