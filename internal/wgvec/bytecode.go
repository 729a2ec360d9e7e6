package wgvec

// The bytecode the engine executes: each ir.Function is compiled once
// (compile.go) into flat register-machine code. Values live in dense
// per-bank register slots (int64, float64, and vector lanes) instead of
// boxed interpreter values, operands and branch targets are resolved to
// indices at compile time, a load or store carries the element kind and
// lane count of its access (vm.LoadInt and vm.LoadFloat say how each kind
// sits in memory), the GEP+load / GEP+store address chains that dominate
// the benchmark kernels are fused into superinstructions, and the loads
// and stores of a private variable whose address never escapes become
// moves to and from a register of its own (slot instructions). Every
// instruction keeps its originating IR instruction and retire count, so
// the engine emits the interpreter's memory trace bit for bit.

import (
	"grover/internal/ir"
)

// opcode enumerates bytecode operations.
type opcode uint16

const (
	opNop opcode = iota

	// Control flow.
	opJmp     // pc = imm
	opCondBrI // pc = ri[a] != 0 ? imm : n
	opCondBrF // pc = rf[a] != 0 ? imm : n
	opRet     // return void (kernel level: work-item done)
	opRetI    // return ri[b]
	opRetF    // return rf[b]
	opRetVI   // return vi[b]
	opRetVF   // return vf[b]
	opBarrier // suspend at a work-group barrier (kernel level only)
	opCall    // aux[imm]: callee + arg refs; a = dst (-1 none), sub = dst bank

	// Constants and moves.
	opConstI // ri[a] = imm
	opMovI   // ri[a] = ri[b]
	opMovF   // rf[a] = rf[b]

	// Work-item queries with a compile-time dimension (imm = dim).
	opGID  // ri[a] = get_global_id(imm)
	opLID  // ri[a] = get_local_id(imm)
	opGRP  // ri[a] = get_group_id(imm)
	opGSZ  // ri[a] = get_global_size(imm)
	opLSZ  // ri[a] = get_local_size(imm)
	opNGRP // ri[a] = get_num_groups(imm)
	opWIQ  // generic: n = query, b = dim register (runtime-bounded)

	// Allocas.
	opAllocaP // ri[a] = private address frameBase+imm
	opAllocaL // ri[a] = imm (precomputed tagged __local address)

	// Address computation (single-index GEP).
	opIndex  // ri[a] = ri[b] + ri[c]*imm
	opIndexC // ri[a] = ri[b] + imm

	// Loads and stores: kind = element kind (a pointer is a ulong), sub =
	// lanes (0: a scalar register), n = traced size, a = dst or src, b =
	// address register. The X forms address ri[b] + ri[c]*imm (fused
	// index+load, index+store).
	opLd
	opLdX
	opSt
	opStX
	// Slot loads and stores: the memory instructions of a private variable
	// that lives in a register of its own instead of the work-item's stack
	// (fnCompiler.analyzeSlots). a = dst or src, b = the variable's
	// register (float bank for a float kind), kind = its scalar kind, n =
	// traced size, imm = its alloca's frame offset: the access is traced at
	// private address frameBase+imm, where the variable would be.
	opSlotLd // reg[a] = reg[b]
	opSlotSt // reg[b] = reg[a] as a store and a load of kind leave it

	// Binary arithmetic. The specialized opcodes are the forms a CPU profile
	// of the sweeps shows; every other operator and kind runs the generic
	// op, which calls clc's one copy of the semantics.
	opAddI   // ri[a] = ri[b] + ri[c] (a 64-bit kind, or a pointer)
	opAddI32 // int: wraps to 32 bits
	opSubI32
	opMulI32
	opIntBin // generic: sub = clc.Op, kind = scalar kind
	opAddF32 // float: rounds to float32
	opSubF32
	opMulF32
	opFltBin // generic: sub = clc.Op, kind = scalar kind

	// Unary ops (kind = scalar kind for integer normalization).
	opNegF
	opNegI
	opNotI
	opVNegF
	opVNegI
	opVNotI

	// Comparisons (dst = int register; 0 or 1). The signed forms also
	// answer == and != of any integer kind and every pointer comparison.
	opEqI
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opCmpI // generic: sub = clc.Op, kind = scalar kind (unsigned ordering)
	opCmpF // generic: sub = clc.Op

	// Conversions.
	opConvI // ri[a] = clc.NormInt(ri[b], kind)
	opI2F   // rf[a] = round(kind, float64(ri[b]))
	opU2F   // rf[a] = round(kind, float64(uint64(ri[b])))
	opF2I   // ri[a] = clc.FloatToInt(rf[b], kind)
	opF2F32 // rf[a] = float64(float32(rf[b]))
	opVConv // lane-wise conversion; sub = from kind, kind = to kind

	// Vector arithmetic: a/b/c are vector registers, kind = element kind.
	opVAddF // float4 and the like: rounds to float32
	opVMulF
	opVBinF // generic: sub = clc.Op
	opVBinI // generic: sub = clc.Op

	// Vector shape ops.
	opExtI   // ri[a] = vi[b][imm]
	opExtF   // rf[a] = vf[b][imm]
	opInsI   // vi[a] = vi[b] with lane imm set to ri[c]
	opInsF   // vf[a] = vf[b] with lane imm set to rf[c]
	opShufI  // vi[a][i] = vi[b][comps[i]] (aux[imm])
	opShufF  // vf[a][i] = vf[b][comps[i]] (aux[imm])
	opBuildI // vi[a][i] = ri[refs[i]] (aux[imm])
	opBuildF // vf[a][i] = rf[refs[i]] (aux[imm])

	// Math builtins.
	opDotVF  // rf[a] = round(kind, Σ vf[b]·vf[c])
	opDotSS  // rf[a] = rf[b] * rf[c]
	opLenVF  // rf[a] = round(kind, sqrt(Σ vf[b]²))
	opLenSS  // rf[a] = |rf[b]|
	opMathF  // rf[a] = builtin(aux[imm].Refs...); kind rounds
	opMathI  // ri[a] = builtin(aux[imm].Refs...)
	opVMathF // vf[a] = lane-wise builtin(aux[imm].Refs...)
	opVMathI // vi[a] = lane-wise builtin(aux[imm].Refs...)
)

// Work-item query codes for opWIQ (stored in inst.N).
const (
	qGlobalID int32 = iota
	qLocalID
	qGroupID
	qGlobalSize
	qLocalSize
	qNumGroups
	qWorkDim
)

// bank identifies a register file.
type bank uint8

const (
	bankInt bank = iota
	bankFlt
	bankVecI
	bankVecF
)

// ref names one register: a bank plus an index within it.
type ref struct {
	Bank bank
	Idx  int32
}

// inst is one bytecode instruction. Operand registers A, B, C are indices
// into the bank implied by the opcode; Imm and N carry immediates, branch
// targets, or aux-table indices. Retire is the number of IR instructions
// this instruction accounts for in the trace (2 for fused
// superinstructions).
// In is the originating IR instruction: memory ops and barriers need it
// so trace emission is pointer-identical to the interpreter's (the GPU
// warp model coalesces by instruction identity), and every other
// instruction carries it so the uniformity mapping (annotate) can look up
// per-IR-value analysis facts.
type inst struct {
	Op     opcode
	Kind   uint8 // clc.ScalarKind operand
	Sub    uint8 // secondary operand: clc.Op, lane count, bank, or from-kind
	Retire uint8
	A      int32
	B      int32
	C      int32
	N      int32
	Imm    int64
	In     *ir.Instr
}

// aux carries the variable-length operands that do not fit in an inst.
type aux struct {
	Name   string // math builtin name
	Callee *bfunc // opCall target
	Refs   []ref  // call arguments, math arguments, or build lanes
	Comps  []int32
}

// bfunc is one compiled function: its bytecode, its register-file shape,
// and the scheduling and uniformity metadata the executor reads.
type bfunc struct {
	Fn   *ir.Function
	Code []inst
	Aux  []aux

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
	Params    []ref

	FrameSize int // private alloca frame, bytes

	// Scheduling metadata (annotate): the pc → block map, the
	// reverse-post-order block priorities the reconvergence scheduler picks
	// by, and which instructions may execute once per group.
	blockOf []int32 // pc → block index
	prio    []int32 // block index → scheduling priority (RPO position)
	uniform []bool  // pc → eligible for execute-once-and-broadcast
}

// noKey is past every program point's scheduling key.
const noKey = int64(1) << 62

// key orders program points for the scheduler: block priority, then pc.
func (bf *bfunc) key(pc int32) int64 {
	return int64(bf.prio[bf.blockOf[pc]])<<32 | int64(pc)
}
