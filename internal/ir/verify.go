package ir

import (
	"fmt"

	"grover/internal/clc"
)

// Verify checks structural invariants of the module: every producing
// instruction has an ID of its own below its function's NextID, every
// block ends in exactly one terminator, branch targets belong to the same
// function, every instruction obeys its opcode's arity and typing rule
// (verifyInstr), every call names a function of the module, every use of
// an instruction value is dominated by its definition, and pointer values
// feeding OpIndex and load/store addresses obey the chain-shape rule (see
// verifyPointerProducer). Both engines define behaviour for verified IR
// only.
func Verify(m *Module) error {
	inModule := make(map[*Function]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		inModule[f] = true
	}
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("function %s: %w", f.Name, err)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall && !inModule[in.Callee] {
					return fmt.Errorf("function %s: block %s: %s: callee is not in the module", f.Name, b.Name, in.Format())
				}
			}
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
	// defs holds each producing instruction at its ID, with its place:
	// the ID rule is checked here, and an operand is defined when its ID
	// (its index, for a parameter) leads back to it.
	defs := make([]def, f.nextID)
	for bi, b := range f.Blocks {
		for i, in := range b.Instrs {
			if !in.Producing() {
				continue
			}
			if in.ID < 0 || in.ID >= len(defs) {
				return fmt.Errorf("block %s: %s: ID %d outside [0, %d)", b.Name, in.Format(), in.ID, len(defs))
			}
			if prev := defs[in.ID]; prev.in != nil {
				return fmt.Errorf("block %s: %s: shares ID %d with the %s in block %s",
					b.Name, in.Format(), in.ID, prev.in.Op, f.Blocks[prev.block].Name)
			}
			defs[in.ID] = def{in: in, block: int32(bi), pos: int32(i)}
		}
	}
	cfg := NewCFG(f)
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
				if err := verifyOperand(f, a, defs); err != nil {
					return fmt.Errorf("block %s: %s: %w", b.Name, in.Format(), err)
				}
			}
			for _, t := range in.Targets {
				if _, ok := cfg.Index[t]; !ok {
					return fmt.Errorf("block %s: branch to foreign block %s", b.Name, t.Name)
				}
			}
			if err := verifyInstr(f, in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Name, in.Format(), err)
			}
		}
	}
	return verifyDominance(f, cfg, defs)
}

// def is a producing instruction and its place: the index of its block in
// the function and its index in the block.
type def struct {
	in         *Instr
	block, pos int32
}

// verifyOperand checks that a is defined in f (defs holds f's producing
// instructions by ID), or is a constant of a type constants have: an
// integer constant is an integer scalar or a null pointer, a float
// constant a float scalar.
func verifyOperand(f *Function, a Value, defs []def) error {
	switch c := a.(type) {
	case *ConstInt:
		if _, ok := c.Typ.(*clc.PointerType); !ok && !isScalar(c.Typ, clc.ScalarKind.IsInteger) {
			return fmt.Errorf("integer constant %s of type %s", c, c.Typ)
		}
		return nil
	case *ConstFloat:
		if !isScalar(c.Typ, clc.ScalarKind.IsFloat) {
			return fmt.Errorf("float constant %s of type %s", c, c.Typ)
		}
		return nil
	case *Param:
		if c.Index >= 0 && c.Index < len(f.Params) && f.Params[c.Index] == c {
			return nil
		}
	case *Instr:
		if c.ID >= 0 && c.ID < len(defs) && defs[c.ID].in == c {
			return nil
		}
	}
	return fmt.Errorf("uses undefined operand %s", a)
}

// arity is the operand count of each opcode whose count is fixed, and -1
// for the others.
var arity = [...]int{
	OpInvalid: -1,
	OpAlloca:  0, OpLoad: 1, OpStore: 2, OpIndex: 2,
	OpAdd: 2, OpSub: 2, OpMul: 2, OpDiv: 2, OpRem: 2,
	OpAnd: 2, OpOr: 2, OpXor: 2, OpShl: 2, OpShr: 2,
	OpNeg: 1, OpNot: 1,
	OpEq: 2, OpNe: 2, OpLt: 2, OpLe: 2, OpGt: 2, OpGe: 2,
	OpConvert: 1, OpExtract: 1, OpInsert: 2, OpShuffle: 1, OpBuild: -1,
	OpCall: -1, OpWorkItem: -1, OpMath: -1, OpBarrier: -1,
	OpBr: 0, OpCondBr: 1, OpRet: -1,
}

// verifyInstr applies the arity and typing rule of in's opcode; f is the
// function in belongs to.
func verifyInstr(f *Function, in *Instr) error {
	if in.Op >= 0 && int(in.Op) < len(arity) {
		if n := arity[in.Op]; n >= 0 && len(in.Args) != n {
			return fmt.Errorf("%s needs %d operand(s), has %d", in.Op, n, len(in.Args))
		}
	}
	switch in.Op {
	case OpLoad:
		pt, err := pointerOperand(in, "load address")
		if err != nil {
			return err
		}
		if !loadable(pt.Elem) || !clc.TypesEqual(in.Typ, pt.Elem) {
			return fmt.Errorf("load of %s gives %s, want the pointee type, a scalar, vector or pointer", pt.Elem, in.Typ)
		}
	case OpStore:
		pt, err := pointerOperand(in, "store address")
		if err != nil {
			return err
		}
		if !loadable(pt.Elem) || !clc.TypesEqual(in.Args[1].Type(), pt.Elem) {
			return fmt.Errorf("store of %s to %s, want the pointee type, a scalar, vector or pointer", in.Args[1].Type(), pt)
		}
		return voidResult(in)
	case OpIndex:
		pt, err := pointerOperand(in, "index base")
		if err != nil {
			return err
		}
		if !isScalar(in.Args[1].Type(), clc.ScalarKind.IsInteger) {
			return fmt.Errorf("index by %s, want an integer", in.Args[1].Type())
		}
		if !clc.TypesEqual(in.Typ, IndexResultType(pt)) {
			return fmt.Errorf("index gives %s, want %s", in.Typ, IndexResultType(pt))
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpNeg:
		return verifyOperands(in, in.Typ, arithmetic)
	case OpNot:
		return verifyOperands(in, in.Typ, integral)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if !clc.TypesEqual(in.Typ, clc.TypeInt) {
			return fmt.Errorf("%s gives %s, want int", in.Op, in.Typ)
		}
		return verifyOperands(in, in.Args[0].Type(), scalarOrPointer)
	case OpConvert:
		_, toPtr := in.Typ.(*clc.PointerType)
		if _, fromPtr := in.Args[0].Type().(*clc.PointerType); toPtr && !fromPtr {
			return fmt.Errorf("pointer convert from non-pointer %s", in.Args[0].Type())
		}
		if !convertible(in.Args[0].Type(), in.Typ) {
			return fmt.Errorf("no conversion from %s to %s", in.Args[0].Type(), in.Typ)
		}
	case OpExtract, OpInsert, OpShuffle, OpBuild:
		return verifyLanes(in)
	case OpAlloca:
		if _, ok := in.Typ.(*clc.PointerType); !ok {
			return fmt.Errorf("alloca result is not a pointer: %s", in.Typ)
		}
	case OpBarrier:
		if len(in.Args) > 1 {
			return fmt.Errorf("barrier takes at most 1 fence-flags operand")
		}
		if len(in.Args) == 1 && !isScalar(in.Args[0].Type(), clc.ScalarKind.IsInteger) {
			return fmt.Errorf("barrier fence flags are not an integer: %s", in.Args[0].Type())
		}
		return voidResult(in)
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
		if want == 1 && !isScalar(in.Args[0].Type(), clc.ScalarKind.IsInteger) {
			return fmt.Errorf("%s dimension is not an integer: %s", in.Func, in.Args[0].Type())
		}
		if !clc.TypesEqual(in.Typ, clc.TypeULong) {
			return fmt.Errorf("%s gives %s, want ulong", in.Func, in.Typ)
		}
	case OpMath:
		return verifyMath(in)
	case OpCondBr:
		if len(in.Targets) != 2 {
			return fmt.Errorf("condbr needs 2 targets")
		}
		if !scalarOrPointer(in.Args[0].Type()) {
			return fmt.Errorf("condbr on %s, want a scalar or pointer", in.Args[0].Type())
		}
	case OpBr:
		if len(in.Targets) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case OpRet:
		if clc.TypesEqual(f.Ret, clc.TypeVoid) {
			if len(in.Args) != 0 {
				return fmt.Errorf("ret of a value from void function %s", f.Name)
			}
			return nil
		}
		if len(in.Args) != 1 || !clc.TypesEqual(in.Args[0].Type(), f.Ret) {
			return fmt.Errorf("ret needs one value of type %s", f.Ret)
		}
	case OpCall:
		if in.Callee == nil {
			return fmt.Errorf("call without callee")
		}
		ps := in.Callee.Params
		if len(in.Args) != len(ps) {
			return fmt.Errorf("call to %s: %d args, want %d", in.Callee.Name, len(in.Args), len(ps))
		}
		for i, a := range in.Args {
			if !clc.TypesEqual(a.Type(), ps[i].Typ) {
				return fmt.Errorf("call to %s: argument %d is %s, want %s", in.Callee.Name, i, a.Type(), ps[i].Typ)
			}
		}
		if !clc.TypesEqual(in.Typ, in.Callee.Ret) {
			return fmt.Errorf("call to %s gives %s, want %s", in.Callee.Name, in.Typ, in.Callee.Ret)
		}
	default:
		return fmt.Errorf("unknown opcode")
	}
	return nil
}

// verifyOperands checks that every operand of in has type t, which class
// admits.
func verifyOperands(in *Instr, t clc.Type, class func(clc.Type) bool) error {
	if !class(t) {
		return fmt.Errorf("%s on %s", in.Op, t)
	}
	for i, a := range in.Args {
		if !clc.TypesEqual(a.Type(), t) {
			return fmt.Errorf("%s operand %d is %s, want %s", in.Op, i, a.Type(), t)
		}
	}
	return nil
}

// pointerOperand returns the type of in's pointer operand, the first,
// which must obey the chain-shape rule.
func pointerOperand(in *Instr, what string) (*clc.PointerType, error) {
	pt, ok := in.Args[0].Type().(*clc.PointerType)
	if !ok {
		return nil, fmt.Errorf("%s is not a pointer: %s", what, in.Args[0].Type())
	}
	if err := verifyPointerProducer(in.Args[0]); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return pt, nil
}

// voidResult checks that in, which produces nothing, has no result type.
func voidResult(in *Instr) error {
	if in.Producing() {
		return fmt.Errorf("%s gives %s, want void", in.Op, in.Typ)
	}
	return nil
}

// verifyLanes checks a vector shape instruction: the element types, the
// lanes it selects and the lane counts agree.
func verifyLanes(in *Instr) error {
	out, outVec := in.Typ.(*clc.VectorType)
	if in.Op == OpBuild {
		if !outVec || len(in.Args) != out.Len {
			return fmt.Errorf("build of %s from %d lanes", in.Typ, len(in.Args))
		}
		return verifyOperands(in, out.Elem, arithmetic)
	}
	src, ok := in.Args[0].Type().(*clc.VectorType)
	if !ok {
		return fmt.Errorf("%s of non-vector %s", in.Op, in.Args[0].Type())
	}
	want := 1
	switch in.Op {
	case OpExtract:
		if !clc.TypesEqual(in.Typ, src.Elem) {
			return fmt.Errorf("extract from %s gives %s", src, in.Typ)
		}
	case OpInsert:
		if !clc.TypesEqual(in.Typ, src) || !clc.TypesEqual(in.Args[1].Type(), src.Elem) {
			return fmt.Errorf("insert of %s into %s gives %s", in.Args[1].Type(), src, in.Typ)
		}
	case OpShuffle:
		if !outVec || !clc.TypesEqual(out.Elem, src.Elem) {
			return fmt.Errorf("shuffle of %s gives %s", src, in.Typ)
		}
		want = out.Len
	}
	if len(in.Comps) != want {
		return fmt.Errorf("%s selects %d lanes, want %d", in.Op, len(in.Comps), want)
	}
	for _, c := range in.Comps {
		if c < 0 || c >= src.Len {
			return fmt.Errorf("%s lane %d out of range for %s", in.Op, c, src)
		}
	}
	return nil
}

// verifyMath checks a math builtin: a geometric one (dot, length) takes
// operands of one float scalar or vector type and gives its element type;
// any other takes operands of its integer or float result type.
func verifyMath(in *Instr) error {
	b := clc.LookupBuiltin(in.Func)
	if b == nil || (b.Kind != clc.BMath && b.Kind != clc.BGeom) {
		return fmt.Errorf("unknown math builtin %q", in.Func)
	}
	if len(in.Args) != b.Arity {
		return fmt.Errorf("%s needs %d operand(s), has %d", in.Func, b.Arity, len(in.Args))
	}
	if b.Kind == clc.BMath {
		return verifyOperands(in, in.Typ, arithmetic)
	}
	t := in.Args[0].Type()
	if err := verifyOperands(in, t, func(t clc.Type) bool { return clc.ElemKind(t).IsFloat() }); err != nil {
		return err
	}
	if s, ok := in.Typ.(*clc.ScalarType); !ok || s.Kind != clc.ElemKind(t) {
		return fmt.Errorf("%s of %s gives %s, want %s", in.Func, t, in.Typ, clc.ElemKind(t))
	}
	return nil
}

// convertible reports whether OpConvert converts from to to: scalar to
// scalar, pointer to pointer, pointer to integer, or vector to vector of
// one length. No integer becomes a pointer: the chain-shape rule roots
// every pointer at a parameter, alloca or load.
func convertible(from, to clc.Type) bool {
	switch t := to.(type) {
	case *clc.ScalarType:
		switch f := from.(type) {
		case *clc.ScalarType:
			return t.Kind != clc.KVoid && f.Kind != clc.KVoid
		case *clc.PointerType:
			return t.Kind.IsInteger()
		}
	case *clc.PointerType:
		_, ok := from.(*clc.PointerType)
		return ok
	case *clc.VectorType:
		f, ok := from.(*clc.VectorType)
		return ok && f.Len == t.Len
	}
	return false
}

// arithmetic reports whether t is an integer or float scalar or vector:
// what arithmetic and math instructions compute on.
func arithmetic(t clc.Type) bool { return clc.ElemKind(t) != clc.KVoid }

// integral reports whether t is an integer scalar or vector.
func integral(t clc.Type) bool { return clc.ElemKind(t).IsInteger() }

// isScalar reports whether t is a scalar whose kind is in class.
func isScalar(t clc.Type, class func(clc.ScalarKind) bool) bool {
	s, ok := t.(*clc.ScalarType)
	return ok && class(s.Kind)
}

// scalarOrPointer reports whether t is a non-void scalar or a pointer:
// what a comparison or a branch condition reads.
func scalarOrPointer(t clc.Type) bool {
	if _, ok := t.(*clc.PointerType); ok {
		return true
	}
	s, ok := t.(*clc.ScalarType)
	return ok && s.Kind != clc.KVoid
}

// loadable reports whether memory holds values of type t: a scalar, a
// vector or a pointer.
func loadable(t clc.Type) bool {
	_, ptr := t.(*clc.PointerType)
	return ptr || arithmetic(t)
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
// cleanup passes). cfg is f's CFG and defs its definitions by ID, as
// VerifyFunc builds them.
func verifyDominance(f *Function, cfg *CFG, defs []def) error {
	dom := cfg.Dom
	for bi, b := range f.Blocks {
		if !dom.Reachable(bi) {
			continue
		}
		for i, in := range b.Instrs {
			for _, a := range in.Args {
				d, ok := a.(*Instr)
				if !ok {
					continue // constants and parameters dominate everything
				}
				// VerifyFunc has found every operand among defs.
				at := defs[d.ID]
				if di := int(at.block); di == bi {
					if int(at.pos) >= i {
						return fmt.Errorf("block %s: %s uses %s before its definition", b.Name, in.Format(), d)
					}
				} else if !dom.Dominates(di, bi) {
					return fmt.Errorf("block %s: %s uses %s whose definition (block %s) does not dominate the use",
						b.Name, in.Format(), d, d.Block.Name)
				}
			}
		}
	}
	return nil
}
