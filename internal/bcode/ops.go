// Package bcode is the lowering the engine reads: each ir.Function is
// compiled once into flat register-machine bytecode.
// Values live in dense per-bank register slots (int64, float64, and
// vector lanes) instead of boxed interpreter values, operands and branch
// targets are resolved to indices at compile time, opcodes are
// specialized by scalar/vector type, the GEP+load / GEP+store address
// chains that dominate the benchmark kernels are fused into
// superinstructions, and the loads and stores of a private variable whose
// address never escapes become moves to and from a register of its own
// (slot instructions). Every instruction keeps its originating IR
// instruction and retire count, so an engine built on this form emits the
// interpreter's memory trace bit for bit.
//
// The package registers no backend and executes nothing. The compiled
// form (Inst, BFunc, the Op* opcode space) is the input IR of the engine
// that does: the work-group-vectorized engine in internal/wgvec compiles
// its region programs from these instructions.
package bcode

import (
	"grover/internal/ir"
)

// Opcode enumerates bytecode operations.
type Opcode uint16

const (
	OpNop Opcode = iota

	// Control flow.
	OpJmp     // pc = imm
	OpCondBrI // pc = ri[a] != 0 ? imm : n
	OpCondBrF // pc = rf[a] != 0 ? imm : n
	OpRet     // return void (kernel level: work-item done)
	OpRetI    // return ri[b]
	OpRetF    // return rf[b]
	OpRetVI   // return vi[b]
	OpRetVF   // return vf[b]
	OpBarrier // suspend at a work-group barrier (kernel level only)
	OpCall    // aux[imm]: callee + arg refs; a = dst (-1 none), sub = dst bank
	OpTrap    // raise the error in aux[imm].Name (deferred semantic error)

	// Constants and moves.
	OpConstI // ri[a] = imm
	OpZeroI  // ri[a] = 0
	OpZeroF  // rf[a] = 0
	OpMovI   // ri[a] = ri[b]
	OpMovF   // rf[a] = rf[b]

	// Work-item queries with a compile-time dimension (imm = dim).
	OpGID  // ri[a] = get_global_id(imm)
	OpLID  // ri[a] = get_local_id(imm)
	OpGRP  // ri[a] = get_group_id(imm)
	OpGSZ  // ri[a] = get_global_size(imm)
	OpLSZ  // ri[a] = get_local_size(imm)
	OpNGRP // ri[a] = get_num_groups(imm)
	OpWIQ  // generic: n = query, b = dim register (runtime-bounded)

	// Allocas.
	OpAllocaP // ri[a] = private address frameBase+imm
	OpAllocaL // ri[a] = imm (precomputed tagged __local address)

	// Address computation (single-index GEP).
	OpIndex  // ri[a] = ri[b] + ri[c]*imm
	OpIndexC // ri[a] = ri[b] + imm

	// Scalar loads: a = dst, b = address register, n = traced size.
	OpLdI8
	OpLdU8
	OpLdI16
	OpLdU16
	OpLdI32
	OpLdU32
	OpLdI64
	OpLdF32
	OpLdF64
	// Fused index+load: address is ri[b] + ri[c]*imm.
	OpLdXI8
	OpLdXU8
	OpLdXI16
	OpLdXU16
	OpLdXI32
	OpLdXU32
	OpLdXI64
	OpLdXF32
	OpLdXF64
	// Scalar stores: a = src, b = address register, n = traced size.
	OpStI8
	OpStI16
	OpStI32
	OpStI64
	OpStF32
	OpStF64
	// Fused index+store: address is ri[b] + ri[c]*imm.
	OpStXI8
	OpStXI16
	OpStXI32
	OpStXI64
	OpStXF32
	OpStXF64
	// Vector loads/stores: kind = element kind, sub = lanes, n = traced
	// size; fused variants address through ri[b] + ri[c]*imm.
	OpLdVI
	OpLdVF
	OpLdXVI
	OpLdXVF
	OpStVI
	OpStVF
	OpStXVI
	OpStXVF
	// Slot loads and stores: the memory instructions of a private variable
	// that lives in a register of its own instead of the work-item's stack
	// (fnCompiler.analyzeSlots). a = dst or src, b = the variable's
	// register, kind = its scalar kind, n = traced size, imm = its alloca's
	// frame offset: the access is traced at private address frameBase+imm,
	// where the variable would be.
	OpSlotLdI // ri[a] = ri[b]
	OpSlotLdF // rf[a] = rf[b]
	OpSlotStI // ri[b] = ri[a] as a store and a load of kind leave it
	OpSlotStF // rf[b] = rf[a] as a store and a load of kind leave it

	// 64-bit integer arithmetic (no normalization: the kind's width is 64
	// or the op is normalization-transparent).
	OpAddI
	OpSubI
	OpMulI
	OpAndI
	OpOrI
	OpXorI
	// 32-bit integer arithmetic with C wrapping.
	OpAddI32
	OpSubI32
	OpMulI32
	OpAddU32
	OpSubU32
	OpMulU32
	// Generic integer binary op: sub = ir.Op, kind = scalar kind.
	OpIntBin
	// Double-precision float arithmetic.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	// Single-precision float arithmetic (round to float32).
	OpAddF32
	OpSubF32
	OpMulF32
	OpDivF32
	// Generic float binary op: sub = ir.Op, kind = scalar kind.
	OpFltBin

	// Unary ops (kind = scalar kind for integer normalization).
	OpNegF
	OpNegI
	OpNotI
	OpVNegF
	OpVNegI
	OpVNotI

	// Comparisons (dst = int register; 0 or 1).
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpLtU
	OpLeU
	OpGtU
	OpGeU
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF

	// Conversions.
	OpConvI // ri[a] = normInt(ri[b], kind)
	OpI2F   // rf[a] = round(kind, float64(ri[b]))
	OpU2F   // rf[a] = round(kind, float64(uint64(ri[b])))
	OpF2I   // ri[a] = NaN ? 0 : normInt(int64(rf[b]), kind)
	OpF2F32 // rf[a] = float64(float32(rf[b]))
	OpVConv // lane-wise conversion; sub = from kind, kind = to kind

	// Vector arithmetic: a/b/c are vector registers, kind = element kind.
	OpVAddF
	OpVSubF
	OpVMulF
	OpVDivF
	OpVBinF // generic: sub = ir.Op
	OpVBinI // generic: sub = ir.Op

	// Vector shape ops.
	OpExtI   // ri[a] = vi[b][imm]
	OpExtF   // rf[a] = vf[b][imm]
	OpInsI   // vi[a] = vi[b] with lane imm set to ri[c]
	OpInsF   // vf[a] = vf[b] with lane imm set to rf[c]
	OpShufI  // vi[a][i] = vi[b][comps[i]] (aux[imm])
	OpShufF  // vf[a][i] = vf[b][comps[i]] (aux[imm])
	OpBuildI // vi[a][i] = ri[refs[i]] (aux[imm])
	OpBuildF // vf[a][i] = rf[refs[i]] (aux[imm])

	// Math builtins.
	OpDotVF  // rf[a] = round(kind, Σ vf[b]·vf[c])
	OpDotSS  // rf[a] = rf[b] * rf[c]
	OpLenVF  // rf[a] = round(kind, sqrt(Σ vf[b]²))
	OpLenSS  // rf[a] = |rf[b]|
	OpMathF  // rf[a] = builtin(aux[imm].Refs...); kind rounds
	OpMathI  // ri[a] = builtin(aux[imm].Refs...)
	OpVMathF // vf[a] = lane-wise builtin(aux[imm].Refs...)
	OpVMathI // vi[a] = lane-wise builtin(aux[imm].Refs...)
)

// Work-item query codes for OpWIQ (stored in Inst.N).
const (
	QNone int32 = iota
	QGlobalID
	QLocalID
	QGroupID
	QGlobalSize
	QLocalSize
	QNumGroups
	QWorkDim
)

// Bank identifies a register file.
type Bank uint8

const (
	BankInt Bank = iota
	BankFlt
	BankVecI
	BankVecF
)

// Ref names one register: a bank plus an index within it.
type Ref struct {
	Bank Bank
	Idx  int32
}

// Inst is one bytecode instruction. Operand registers A, B, C are indices
// into the bank implied by the opcode; Imm and N carry immediates, branch
// targets, or aux-table indices. Retire is the number of IR instructions
// this instruction accounts for in the trace (2 for fused
// superinstructions, 0 for synthetic traps covering fall-off-block).
// In is the originating IR instruction: memory ops and barriers need it
// so trace emission is pointer-identical to the interpreter's (the GPU
// warp model coalesces by instruction identity), and every other
// instruction carries it so downstream consumers (wgvec's uniformity
// mapping) can look up per-IR-value analysis facts.
type Inst struct {
	Op     Opcode
	Kind   uint8 // clc.ScalarKind operand
	Sub    uint8 // secondary operand: ir.Op, lane count, bank, or from-kind
	Retire uint8
	A      int32
	B      int32
	C      int32
	N      int32
	Imm    int64
	In     *ir.Instr
}

// Aux carries the variable-length operands that do not fit in an Inst.
type Aux struct {
	Name   string // math builtin name, or trap error message
	Callee *BFunc // OpCall target
	Refs   []Ref  // call arguments, math arguments, or build lanes
	Comps  []int32
}

// BFunc is one compiled function.
type BFunc struct {
	Fn   *ir.Function
	Code []Inst
	Aux  []Aux

	// BlockStart[i] is the pc of the first instruction emitted for
	// Fn.Blocks[i]. Blocks are emitted contiguously in order, so the
	// half-open pc range of block i ends at BlockStart[i+1] (or at
	// len(Code) for the last block).
	BlockStart []int32

	// Register-file shape: scalar bank sizes and per-register lane counts
	// for the vector banks.
	NInt     int
	NFlt     int
	VecILens []int
	VecFLens []int

	// Register-file initialization: the int/float banks open with a
	// constant region (preloaded from these templates) followed by the
	// parameter region; Params[i] names parameter i's register.
	IntConsts []int64
	FltConsts []float64
	Params    []Ref

	FrameSize int // private alloca frame, bytes
	LocalSize int // static __local arena, bytes
}
