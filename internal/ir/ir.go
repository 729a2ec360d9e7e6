// Package ir defines the intermediate representation the Grover pass and
// the execution engine operate on. The IR is a typed, register-based,
// LLVM-like representation: functions contain basic blocks, blocks contain
// instructions, every instruction that produces a value is itself a Value
// usable as an operand. Mutable C variables are modeled with Alloca +
// Load/Store (no phi construction is performed); Grover's expression-tree
// builder forwards through single-store allocas, which plays the role the
// paper assigns to stopping at phi nodes.
//
// Memory is addressed through typed pointers that carry an OpenCL address
// space. Pointer arithmetic is expressed with the Index instruction (a
// single-index GEP).
package ir

import (
	"fmt"

	"grover/internal/clc"
)

// Op enumerates instruction opcodes.
type Op int

// Opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca // allocate storage; Type is pointer to the allocated type
	OpLoad   // args: ptr
	OpStore  // args: ptr, value
	OpIndex  // args: ptr, idx → advanced pointer

	// Arithmetic (integer or floating, by result type).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot // bitwise complement

	// Comparisons (result: int 0/1). Signedness from operand types.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpConvert converts arg 0 to the instruction's result type.
	OpConvert

	// Vectors.
	OpExtract // args: vec; Comps[0] selects the lane
	OpInsert  // args: vec, scalar; Comps[0] selects the lane
	OpShuffle // args: vec; Comps selects lanes → smaller/reordered vector
	OpBuild   // args: lanes... → vector

	// Calls.
	OpCall     // user function; Callee set
	OpWorkItem // work-item query; Func set (get_local_id etc.), args: dim
	OpMath     // math builtin; Func set, args: operands
	OpBarrier  // work-group barrier; args: fence flags

	// Control flow (terminators).
	OpBr     // unconditional; Targets[0]
	OpCondBr // args: cond; Targets[0]=then, Targets[1]=else
	OpRet    // args: optional value
)

var opNames = map[Op]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpIndex: "index",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpConvert: "convert",
	OpExtract: "extract", OpInsert: "insert", OpShuffle: "shuffle", OpBuild: "build",
	OpCall: "call", OpWorkItem: "workitem", OpMath: "math", OpBarrier: "barrier",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// scalarOps maps each binary arithmetic and comparison opcode onto the
// operator of clc's scalar semantics, which both engines evaluate.
var scalarOps = [...]clc.Op{
	OpAdd: clc.OpAdd, OpSub: clc.OpSub, OpMul: clc.OpMul, OpDiv: clc.OpDiv, OpRem: clc.OpRem,
	OpAnd: clc.OpAnd, OpOr: clc.OpOr, OpXor: clc.OpXor, OpShl: clc.OpShl, OpShr: clc.OpShr,
	OpEq: clc.OpEq, OpNe: clc.OpNe, OpLt: clc.OpLt, OpLe: clc.OpLe, OpGt: clc.OpGt, OpGe: clc.OpGe,
}

// Scalar returns the clc operator o applies to each scalar or lane, or
// clc.OpInvalid when o is no binary arithmetic or comparison opcode.
func (o Op) Scalar() clc.Op {
	if o >= 0 && int(o) < len(scalarOps) {
		return scalarOps[o]
	}
	return clc.OpInvalid
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// Value is anything usable as an instruction operand.
type Value interface {
	// Type returns the value's type (clc types are reused by the IR).
	Type() clc.Type
	// String returns a short printable reference (e.g. "%5", "42").
	String() string
}

// ConstInt is an integer constant.
type ConstInt struct {
	Val int64
	Typ clc.Type
}

// Type returns the constant's type.
func (c *ConstInt) Type() clc.Type { return c.Typ }
func (c *ConstInt) String() string { return fmt.Sprintf("%d", c.Val) }

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	Val float64
	Typ clc.Type
}

// Type returns the constant's type.
func (c *ConstFloat) Type() clc.Type { return c.Typ }
func (c *ConstFloat) String() string { return fmt.Sprintf("%g", c.Val) }

// IntConst returns an int-typed constant.
func IntConst(v int64) *ConstInt { return &ConstInt{Val: v, Typ: clc.TypeInt} }

// LongConst returns a long-typed constant.
func LongConst(v int64) *ConstInt { return &ConstInt{Val: v, Typ: clc.TypeLong} }

// FloatConst returns a float-typed constant.
func FloatConst(v float64) *ConstFloat { return &ConstFloat{Val: v, Typ: clc.TypeFloat} }

// Param is a function parameter.
type Param struct {
	Name_ string
	Typ   clc.Type
	Index int
	// Space is the address space of the pointee for pointer parameters.
	Space clc.AddrSpace
}

// Type returns the parameter type.
func (p *Param) Type() clc.Type { return p.Typ }
func (p *Param) String() string { return "%" + p.Name_ }

// Instr is a single IR instruction. Instructions producing a value
// implement Value.
type Instr struct {
	// ID numbers a producing instruction within its function (see
	// Function.NextID); it is -1 for the others.
	ID    int
	Op    Op
	Typ   clc.Type // result type; TypeVoid for non-producing instructions
	Args  []Value
	Block *Block

	// Func names the builtin for OpWorkItem/OpMath.
	Func string
	// Callee is the target for OpCall.
	Callee *Function
	// Targets are branch targets for OpBr/OpCondBr.
	Targets []*Block
	// Comps are lane selectors for vector ops.
	Comps []int
	// VarName records the source variable for OpAlloca (diagnostics and
	// Grover's reports).
	VarName string
	// Space is the address space for OpAlloca.
	Space clc.AddrSpace
	// Pos is the originating source position.
	Pos clc.Pos
}

// Type returns the instruction result type.
func (in *Instr) Type() clc.Type { return in.Typ }

func (in *Instr) String() string { return fmt.Sprintf("%%%d", in.ID) }

// Producing reports whether the instruction defines a value.
func (in *Instr) Producing() bool {
	return in.Typ != nil && !clc.TypesEqual(in.Typ, clc.TypeVoid)
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	Fn     *Function
}

// Terminator returns the block's final instruction, or nil when the block
// is not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Function is an IR function.
type Function struct {
	Name     string
	IsKernel bool
	Ret      clc.Type
	Params   []*Param
	Blocks   []*Block

	nextID    int
	nextBlock int
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with a unique name derived from hint.
func (f *Function) NewBlock(hint string) *Block {
	b := &Block{Name: fmt.Sprintf("%s.%d", hint, f.nextBlock), Fn: f}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NextID returns the ID the next producing instruction will get. Every
// producing instruction of f has a distinct ID in [0, NextID()), which
// Verify checks, so a pass can keep per-instruction state in a slice of
// that length.
func (f *Function) NextID() int { return f.nextID }

// AssignIDs renumbers all value-producing instructions (used after
// transformation passes insert or delete instructions).
func (f *Function) AssignIDs() {
	id := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Producing() {
				in.ID = id
				id++
			} else {
				in.ID = -1
			}
		}
	}
	f.nextID = id
}

// Module is a compiled translation unit.
type Module struct {
	Name  string
	Funcs []*Function
}

// Kernel returns the kernel function with the given name, or nil.
func (m *Module) Kernel(name string) *Function {
	for _, f := range m.Funcs {
		if f.IsKernel && f.Name == name {
			return f
		}
	}
	return nil
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Kernels returns all kernel functions in declaration order.
func (m *Module) Kernels() []*Function {
	var out []*Function
	for _, f := range m.Funcs {
		if f.IsKernel {
			out = append(out, f)
		}
	}
	return out
}

// PointeeSize returns the byte size addressed by one Index step on ptr.
// For pointer-to-array it is the array element size; otherwise the pointee
// size.
func PointeeSize(ptr clc.Type) int {
	pt, ok := ptr.(*clc.PointerType)
	if !ok {
		return 0
	}
	if at, ok := pt.Elem.(*clc.ArrayType); ok {
		return at.Elem.Size()
	}
	return pt.Elem.Size()
}

// IndexResultType returns the pointer type produced by Index on ptr.
func IndexResultType(ptr clc.Type) clc.Type {
	pt, ok := ptr.(*clc.PointerType)
	if !ok {
		return ptr
	}
	if at, ok := pt.Elem.(*clc.ArrayType); ok {
		return &clc.PointerType{Elem: at.Elem, Space: pt.Space}
	}
	return pt
}

// PointerSpace returns the address space of a pointer-typed value, or
// ASPrivate for non-pointers.
func PointerSpace(t clc.Type) clc.AddrSpace {
	if pt, ok := t.(*clc.PointerType); ok {
		return pt.Space
	}
	return clc.ASPrivate
}
