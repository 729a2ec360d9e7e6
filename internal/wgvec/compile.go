package wgvec

import (
	"fmt"
	"math"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// fnCompiler holds per-function compilation state.
type fnCompiler struct {
	p     *vm.Program
	funcs map[*ir.Function]*bfunc // every function's compiled form, callees included
	f     *ir.Function
	bf    *bfunc

	vals   map[ir.Value]ref
	intIdx map[int64]int32
	fltIdx map[uint64]int32
	sealed bool // constant region closed; late interning is a bug

	fusedIdx map[*ir.Instr]bool      // index instrs folded into a memory op
	fuseWith map[*ir.Instr]*ir.Instr // memory op → its folded index

	slots map[ir.Value]slot // private alloca → the register its variable lives in

	code    []inst
	auxes   []aux
	blockPC map[*ir.Block]int32
	fixups  []fixup
	err     error // the first instruction the compiler has no form for
}

// slot is a private variable kept in a register: the register, and the
// scalar kind its stores and loads convert through.
type slot struct {
	reg  ref
	kind clc.ScalarKind
}

// fixup is a branch-target patch applied after all block PCs are known.
type fixup struct {
	pc   int32
	slot uint8 // 0 patches imm, 1 patches n
	blk  *ir.Block
}

// compileFunc lowers f, which ir.Verify has accepted, into its shell
// funcs[f]; the other shells are there so a call can name a callee not
// compiled yet.
func compileFunc(p *vm.Program, funcs map[*ir.Function]*bfunc, f *ir.Function) error {
	fc := &fnCompiler{
		p: p, funcs: funcs, f: f, bf: funcs[f],
		vals:     map[ir.Value]ref{},
		intIdx:   map[int64]int32{},
		fltIdx:   map[uint64]int32{},
		fusedIdx: map[*ir.Instr]bool{},
		fuseWith: map[*ir.Instr]*ir.Instr{},
		slots:    map[ir.Value]slot{},
		blockPC:  map[*ir.Block]int32{},
	}
	bf := fc.bf
	bf.FrameSize = p.FrameSize(f)

	// Register numbering per bank: constants first (so the preload
	// templates are a literal prefix of the register file), then
	// parameters, then instruction results.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch t := a.(type) {
				case *ir.ConstInt:
					fc.intConst(t.Val)
				case *ir.ConstFloat:
					fc.fltConst(t.Val)
				}
			}
		}
	}
	fc.sealed = true
	bf.Params = make([]ref, len(f.Params))
	for i, p := range f.Params {
		r := fc.alloc(p.Typ)
		bf.Params[i] = r
		fc.vals[p] = r
	}

	fc.analyzeFusion()
	fc.analyzeSlots()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Producing() && !fc.fusedIdx[in] {
				fc.vals[in] = fc.alloc(in.Typ)
			}
			if s, ok := fc.slots[in]; ok {
				s.reg = fc.alloc(in.Typ.(*clc.PointerType).Elem)
				fc.slots[in] = s
			}
		}
	}

	bf.BlockStart = make([]int32, len(f.Blocks))
	for bi, b := range f.Blocks {
		fc.blockPC[b] = int32(len(fc.code))
		bf.BlockStart[bi] = int32(len(fc.code))
		for _, in := range b.Instrs {
			if fc.fusedIdx[in] {
				continue
			}
			start := len(fc.code)
			fc.emit(in)
			// Stamp the originating IR instruction on everything just
			// emitted; memory ops and barriers set it themselves.
			for j := start; j < len(fc.code); j++ {
				if fc.code[j].In == nil {
					fc.code[j].In = in
				}
			}
		}
	}
	for _, fx := range fc.fixups {
		pc := fc.blockPC[fx.blk]
		if fx.slot == 0 {
			fc.code[fx.pc].Imm = int64(pc)
		} else {
			fc.code[fx.pc].N = pc
		}
	}
	bf.Code = fc.code
	bf.Aux = fc.auxes
	return fc.err
}

// alloc assigns a fresh register for a value of type t.
func (fc *fnCompiler) alloc(t clc.Type) ref {
	bf := fc.bf
	switch tt := t.(type) {
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			bf.VecFLens = append(bf.VecFLens, tt.Len)
			return ref{bankVecF, int32(len(bf.VecFLens) - 1)}
		}
		bf.VecILens = append(bf.VecILens, tt.Len)
		return ref{bankVecI, int32(len(bf.VecILens) - 1)}
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			bf.NFlt++
			return ref{bankFlt, int32(bf.NFlt - 1)}
		}
	}
	// Integers, pointers, and anything else addressable as a word.
	bf.NInt++
	return ref{bankInt, int32(bf.NInt - 1)}
}

// intConst interns an integer constant into the int bank's const region.
func (fc *fnCompiler) intConst(v int64) int32 {
	if i, ok := fc.intIdx[v]; ok {
		return i
	}
	if fc.sealed {
		panic("wgvec: constant interned after the const region was sealed")
	}
	i := int32(fc.bf.NInt)
	fc.bf.NInt++
	fc.bf.IntConsts = append(fc.bf.IntConsts, v)
	fc.intIdx[v] = i
	return i
}

// fltConst interns a float constant (keyed by bit pattern).
func (fc *fnCompiler) fltConst(v float64) int32 {
	key := math.Float64bits(v)
	if i, ok := fc.fltIdx[key]; ok {
		return i
	}
	if fc.sealed {
		panic("wgvec: constant interned after the const region was sealed")
	}
	i := int32(fc.bf.NFlt)
	fc.bf.NFlt++
	fc.bf.FltConsts = append(fc.bf.FltConsts, v)
	fc.fltIdx[key] = i
	return i
}

// reg resolves v to its register, in the bank its type lives in: verified
// IR gives every operand the type its instruction reads.
func (fc *fnCompiler) reg(v ir.Value) ref {
	switch t := v.(type) {
	case *ir.ConstInt:
		return ref{bankInt, fc.intConst(t.Val)}
	case *ir.ConstFloat:
		return ref{bankFlt, fc.fltConst(t.Val)}
	}
	return fc.vals[v]
}

// idx is the register index of v.
func (fc *fnCompiler) idx(v ir.Value) int32 { return fc.reg(v).Idx }

// analyzeFusion marks single-use same-block index instructions whose only
// consumer is the address operand of a load or store, with no barrier in
// between. Such a GEP folds into the memory op as a superinstruction; the
// fused op retires 2 IR instructions so per-round Instrs totals stay
// bit-identical to the interpreter. SSA form (defs dominate uses, each
// register written by exactly one instruction) makes moving the address
// computation to the memory op safe; barriers are excluded because fusing
// across one would shift the GEP's retirement into the next scheduling
// round.
func (fc *fnCompiler) analyzeFusion() {
	uses := map[*ir.Instr]int{}
	for _, b := range fc.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if ai, ok := a.(*ir.Instr); ok && ai.Op == ir.OpIndex {
					uses[ai]++
				}
			}
		}
	}
	for _, b := range fc.f.Blocks {
		pos := map[*ir.Instr]int{}
		barriers := make([]int, len(b.Instrs))
		nb := 0
		for i, in := range b.Instrs {
			pos[in] = i
			barriers[i] = nb
			if in.Op == ir.OpBarrier {
				nb++
			}
		}
		for i, in := range b.Instrs {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			idx, ok := in.Args[0].(*ir.Instr)
			if !ok || idx.Op != ir.OpIndex || uses[idx] != 1 {
				continue
			}
			j, sameBlock := pos[idx]
			if !sameBlock || barriers[j] != barriers[i] {
				continue
			}
			fc.fusedIdx[idx] = true
			fc.fuseWith[in] = idx
		}
	}
}

// analyzeSlots picks the private variables that live in a register of
// their own rather than on the work-item's stack, and enters them in
// fc.slots with their scalar kinds (the registers come with everybody
// else's): allocas of scalar or pointer type whose address never escapes
// (ir.AllocaUses), so that every access is a direct load or store of the
// whole variable, each moving a value of the variable's own type (Verify
// holds a load and a store to the pointee type). A store to such a
// variable followed by a load is then a conversion through its kind and
// nothing else, which is what the slot instructions do; the accesses are
// still traced at the address the alloca has in the frame, and the alloca
// instruction itself still executes. Vectors, arrays and anything whose
// address goes elsewhere stay in memory.
func (fc *fnCompiler) analyzeSlots() {
	for a, u := range ir.AllocaUses(fc.f) {
		pt := a.Typ.(*clc.PointerType)
		if a.Space == clc.ASLocal || u.Escapes {
			continue
		}
		if k, ok := slotKind(pt.Elem); ok {
			fc.slots[a] = slot{kind: k}
		}
	}
}

// slotKind returns the scalar kind a value of type t is stored and loaded
// as, or false when t is not something a slot can hold.
func slotKind(t clc.Type) (clc.ScalarKind, bool) {
	k, lanes, ok := memKind(t)
	return k, ok && lanes == 0
}

// memKind returns the element kind and lane count (0 for a scalar) of a
// value of type t in memory — a pointer goes through memory as an unsigned
// 64-bit word — or false when t is nothing a load or store moves.
func memKind(t clc.Type) (clc.ScalarKind, uint8, bool) {
	switch tt := t.(type) {
	case *clc.ScalarType:
		return tt.Kind, 0, tt.Kind != clc.KVoid
	case *clc.VectorType:
		return tt.Elem.Kind, uint8(tt.Len), true
	case *clc.PointerType:
		return clc.KULong, 0, true
	}
	return 0, 0, false
}

func (fc *fnCompiler) add(i inst) int32 {
	if i.Retire == 0 {
		i.Retire = 1
	}
	fc.code = append(fc.code, i)
	return int32(len(fc.code) - 1)
}

// fail records that in has no bytecode form: verified IR never reaches
// it, and Compile returns the error.
func (fc *fnCompiler) fail(in *ir.Instr) {
	if fc.err == nil {
		fc.err = fmt.Errorf("wgvec: function %s: no bytecode for %s", fc.f.Name, in.Format())
	}
}

func (fc *fnCompiler) auxAdd(a aux) int64 {
	fc.auxes = append(fc.auxes, a)
	return int64(len(fc.auxes) - 1)
}

// memAddr resolves the address operand of a load/store: either the fused
// base+index pair (retire 2) or a plain address register.
func (fc *fnCompiler) memAddr(in *ir.Instr) (base, idx ref, step int64, fused bool) {
	if gep := fc.fuseWith[in]; gep != nil {
		step = int64(ir.PointeeSize(gep.Args[0].Type()))
		return fc.reg(gep.Args[0]), fc.reg(gep.Args[1]), step, true
	}
	return fc.reg(in.Args[0]), ref{}, 0, false
}

// emit translates one IR instruction into bytecode.
func (fc *fnCompiler) emit(in *ir.Instr) {
	d := fc.vals[in].Idx // the destination register, if in produces a value
	switch in.Op {
	case ir.OpAlloca:
		if in.Space == clc.ASLocal {
			addr := vm.MakeAddr(clc.ASLocal, uint64(fc.p.AllocaOffset(in, fc.f)))
			fc.add(inst{Op: opAllocaL, A: d, Imm: int64(addr)})
		} else {
			fc.add(inst{Op: opAllocaP, A: d, Imm: int64(fc.p.AllocaOffset(in, fc.f))})
		}

	case ir.OpLoad:
		fc.emitLoad(in, d)

	case ir.OpStore:
		fc.emitStore(in)

	case ir.OpIndex:
		base := fc.idx(in.Args[0])
		step := int64(ir.PointeeSize(in.Args[0].Type()))
		if ci, isC := in.Args[1].(*ir.ConstInt); isC {
			fc.add(inst{Op: opIndexC, A: d, B: base, Imm: ci.Val * step})
		} else {
			fc.add(inst{Op: opIndex, A: d, B: base, C: fc.idx(in.Args[1]), Imm: step})
		}

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		fc.emitBin(in, d)

	case ir.OpNeg, ir.OpNot:
		fc.emitUn(in, d)

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		fc.emitCmp(in, d)

	case ir.OpConvert:
		fc.emitConvert(in, d)

	case ir.OpExtract:
		op := opExtI
		if clc.ElemKind(in.Typ).IsFloat() {
			op = opExtF
		}
		fc.add(inst{Op: op, A: d, B: fc.idx(in.Args[0]), Imm: int64(in.Comps[0])})

	case ir.OpInsert:
		op := opInsI
		if clc.ElemKind(in.Typ).IsFloat() {
			op = opInsF
		}
		fc.add(inst{Op: op, A: d, B: fc.idx(in.Args[0]), C: fc.idx(in.Args[1]), Imm: int64(in.Comps[0])})

	case ir.OpShuffle:
		comps := make([]int32, len(in.Comps))
		for i, c := range in.Comps {
			comps[i] = int32(c)
		}
		op := opShufI
		if clc.ElemKind(in.Typ).IsFloat() {
			op = opShufF
		}
		fc.add(inst{Op: op, A: d, B: fc.idx(in.Args[0]), Imm: fc.auxAdd(aux{Comps: comps})})

	case ir.OpBuild:
		op := opBuildI
		if clc.ElemKind(in.Typ).IsFloat() {
			op = opBuildF
		}
		fc.add(inst{Op: op, A: d, Imm: fc.auxAdd(aux{Refs: fc.refs(in.Args)})})

	case ir.OpWorkItem:
		fc.emitWorkItem(in, d)

	case ir.OpMath:
		fc.emitMath(in, d)

	case ir.OpBarrier:
		fc.add(inst{Op: opBarrier, In: in})

	case ir.OpCall:
		i := inst{Op: opCall, A: -1, Imm: fc.auxAdd(aux{Callee: fc.funcs[in.Callee], Refs: fc.refs(in.Args)})}
		if in.Producing() {
			r := fc.vals[in]
			i.A, i.Sub = r.Idx, uint8(r.Bank)
		}
		fc.add(i)

	case ir.OpBr:
		pc := fc.add(inst{Op: opJmp})
		fc.fixups = append(fc.fixups, fixup{pc: pc, slot: 0, blk: in.Targets[0]})

	case ir.OpCondBr:
		op := opCondBrI
		if clc.ElemKind(in.Args[0].Type()).IsFloat() {
			op = opCondBrF
		}
		pc := fc.add(inst{Op: op, A: fc.idx(in.Args[0])})
		fc.fixups = append(fc.fixups,
			fixup{pc: pc, slot: 0, blk: in.Targets[0]},
			fixup{pc: pc, slot: 1, blk: in.Targets[1]})

	case ir.OpRet:
		if len(in.Args) == 0 {
			fc.add(inst{Op: opRet})
			return
		}
		r := fc.reg(in.Args[0])
		fc.add(inst{Op: [...]opcode{bankInt: opRetI, bankFlt: opRetF, bankVecI: opRetVI, bankVecF: opRetVF}[r.Bank], B: r.Idx})

	default:
		fc.fail(in)
	}
}

// refs resolves each of vs to its register.
func (fc *fnCompiler) refs(vs []ir.Value) []ref {
	refs := make([]ref, len(vs))
	for i, v := range vs {
		refs[i] = fc.reg(v)
	}
	return refs
}

func (fc *fnCompiler) emitLoad(in *ir.Instr, d int32) {
	if s, ok := fc.slots[in.Args[0]]; ok {
		fc.code = append(fc.code, inst{Op: opSlotLd, Kind: uint8(s.kind), A: d, B: s.reg.Idx,
			N: int32(in.Typ.Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	i := fc.memInst(in, in.Typ, opLd, opLdX)
	i.A = d
	fc.code = append(fc.code, i)
}

// memInst builds the load or store in makes of a value of type t: its
// kind, lanes and address operands, and the opcode op, or opX when an
// index instruction folds into it.
func (fc *fnCompiler) memInst(in *ir.Instr, t clc.Type, op, opX opcode) inst {
	k, lanes, _ := memKind(t)
	base, idx, step, fused := fc.memAddr(in)
	i := inst{Op: op, Kind: uint8(k), Sub: lanes, B: base.Idx, C: idx.Idx, Imm: step,
		N: int32(t.Size()), Retire: 1, In: in}
	if fused {
		i.Op, i.Retire = opX, 2
	}
	return i
}

// slotOffset returns the frame offset of the alloca a slot load or store
// goes to.
func (fc *fnCompiler) slotOffset(in *ir.Instr) int64 {
	return int64(fc.p.AllocaOffset(in.Args[0].(*ir.Instr), fc.f))
}

func (fc *fnCompiler) emitStore(in *ir.Instr) {
	v := in.Args[1]
	if s, ok := fc.slots[in.Args[0]]; ok {
		fc.code = append(fc.code, inst{Op: opSlotSt, Kind: uint8(s.kind), A: fc.idx(v), B: s.reg.Idx,
			N: int32(v.Type().Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	i := fc.memInst(in, v.Type(), opSt, opStX)
	i.A = fc.idx(v)
	fc.code = append(fc.code, i)
}

func (fc *fnCompiler) emitBin(in *ir.Instr, d int32) {
	sop := in.Op.Scalar()
	ops, ok := binOps[sop]
	if !ok {
		ops = genericBin
	}
	i := inst{Sub: uint8(sop), A: d, B: fc.idx(in.Args[0]), C: fc.idx(in.Args[1])}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		i.Kind = uint8(tt.Kind)
		switch tt.Kind {
		case clc.KFloat:
			i.Op = ops.f32
		case clc.KDouble:
			i.Op = opFltBin
		// Specializations hold for arbitrary (even unnormalized) inputs:
		// wrap-to-32 equals NormInt after the raw 64-bit op, and 64-bit
		// kinds need no normalization at all.
		case clc.KLong, clc.KULong:
			i.Op = ops.i64
		case clc.KInt:
			i.Op = ops.i32
		default:
			i.Op = opIntBin
		}
	case *clc.VectorType:
		i.Kind = uint8(tt.Elem.Kind)
		switch ek := tt.Elem.Kind; {
		case ek == clc.KFloat:
			i.Op = ops.vf32
		case ek.IsFloat():
			i.Op = opVBinF
		default:
			i.Op = opVBinI
		}
	}
	fc.add(i)
}

// binForms names the specialized opcodes of one binary operator: on float
// (not double) scalars and vectors, and on 64-bit and int integers. Every
// other kind runs the generic op.
type binForms struct{ f32, vf32, i64, i32 opcode }

// genericBin is the forms of an operator with no specialization: each
// reads the operator from Sub.
var genericBin = binForms{opFltBin, opVBinF, opIntBin, opIntBin}

// binOps maps each operator with a specialized opcode to its forms: the
// ones a CPU profile of the sweeps shows (EXPERIMENTS.md).
var binOps = map[clc.Op]binForms{
	clc.OpAdd: {opAddF32, opVAddF, opAddI, opAddI32},
	clc.OpSub: {opSubF32, opVBinF, opIntBin, opSubI32},
	clc.OpMul: {opMulF32, opVMulF, opIntBin, opMulI32},
}

// emitUn emits a negation or, on integers only, a complement.
func (fc *fnCompiler) emitUn(in *ir.Instr, d int32) {
	a := fc.idx(in.Args[0])
	not := in.Op == ir.OpNot
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		switch {
		case tt.Kind.IsFloat():
			fc.add(inst{Op: opNegF, A: d, B: a})
		case not:
			fc.add(inst{Op: opNotI, Kind: uint8(tt.Kind), A: d, B: a})
		default:
			fc.add(inst{Op: opNegI, Kind: uint8(tt.Kind), A: d, B: a})
		}
	case *clc.VectorType:
		switch {
		case tt.Elem.Kind.IsFloat():
			fc.add(inst{Op: opVNegF, A: d, B: a})
		case not:
			fc.add(inst{Op: opVNotI, Kind: uint8(tt.Elem.Kind), A: d, B: a})
		default:
			fc.add(inst{Op: opVNegI, Kind: uint8(tt.Elem.Kind), A: d, B: a})
		}
	}
}

// emitCmp emits a comparison of two scalars or two pointers.
func (fc *fnCompiler) emitCmp(in *ir.Instr, d int32) {
	i := inst{Sub: uint8(in.Op.Scalar()), A: d, B: fc.idx(in.Args[0]), C: fc.idx(in.Args[1])}
	ot, isScalar := in.Args[0].Type().(*clc.ScalarType)
	switch {
	case isScalar && ot.Kind.IsFloat():
		i.Op = opCmpF
	case isScalar && ot.Kind.IsUnsigned() && in.Op != ir.OpEq && in.Op != ir.OpNe:
		i.Op, i.Kind = opCmpI, uint8(ot.Kind)
	default:
		i.Op = opEqI + opcode(in.Op-ir.OpEq) // OpEq..OpGe are contiguous
	}
	fc.add(i)
}

func (fc *fnCompiler) emitConvert(in *ir.Instr, d int32) {
	a := fc.idx(in.Args[0])
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		from := clc.KULong // a pointer converts as its address
		if ft, ok := in.Args[0].Type().(*clc.ScalarType); ok {
			from = ft.Kind
		}
		fc.emitScalarConvert(d, a, from, tt.Kind)
	case *clc.PointerType:
		fc.add(inst{Op: opMovI, A: d, B: a})
	case *clc.VectorType:
		ft := in.Args[0].Type().(*clc.VectorType)
		fc.add(inst{Op: opVConv, Sub: uint8(ft.Elem.Kind), Kind: uint8(tt.Elem.Kind), A: d, B: a})
	}
}

// emitScalarConvert specializes scalar-to-scalar conversions.
func (fc *fnCompiler) emitScalarConvert(d, a int32, from, to clc.ScalarKind) {
	switch {
	case from.IsFloat() && to.IsFloat():
		if to == clc.KFloat {
			fc.add(inst{Op: opF2F32, A: d, B: a})
		} else {
			fc.add(inst{Op: opMovF, A: d, B: a})
		}
	case from.IsFloat():
		fc.add(inst{Op: opF2I, Kind: uint8(to), A: d, B: a})
	case to.IsFloat():
		op := opI2F
		if from.IsUnsigned() {
			op = opU2F
		}
		fc.add(inst{Op: op, Kind: uint8(to), A: d, B: a})
	case to == clc.KLong || to == clc.KULong:
		fc.add(inst{Op: opMovI, A: d, B: a})
	default:
		fc.add(inst{Op: opConvI, Kind: uint8(to), A: d, B: a})
	}
}

// emitWorkItem emits a work-item query. A constant dimension folds into a
// specialized opcode; any other is resolved at runtime. Outside
// dimensions 0-2 an id is 0 and a size 1 (OpenCL 1.2 §6.12.1).
func (fc *fnCompiler) emitWorkItem(in *ir.Instr, d int32) {
	q := wiQueries[in.Func]
	if q == qWorkDim {
		fc.add(inst{Op: opConstI, A: d, Imm: 3})
		return
	}
	dim, isConst := in.Args[0].(*ir.ConstInt)
	switch {
	case !isConst:
		fc.add(inst{Op: opWIQ, A: d, B: fc.idx(in.Args[0]), N: q})
	case dim.Val < 0 || dim.Val > 2:
		fc.add(inst{Op: opConstI, A: d, Imm: outsideDims(q)})
	default:
		fc.add(inst{Op: wiOps[q], A: d, Imm: dim.Val})
	}
}

// wiQueries maps each work-item query to its code.
var wiQueries = map[string]int32{
	"get_global_id": qGlobalID, "get_local_id": qLocalID, "get_group_id": qGroupID,
	"get_global_size": qGlobalSize, "get_local_size": qLocalSize, "get_num_groups": qNumGroups,
	"get_work_dim": qWorkDim,
}

// wiOps is the constant-dimension opcode of each query that takes one.
var wiOps = [...]opcode{
	qGlobalID: opGID, qLocalID: opLID, qGroupID: opGRP,
	qGlobalSize: opGSZ, qLocalSize: opLSZ, qNumGroups: opNGRP,
}

// outsideDims is what query q answers for a dimension outside 0-2: 1 for
// a size, 0 for an id.
func outsideDims(q int32) int64 {
	if q == qGlobalSize || q == qLocalSize || q == qNumGroups {
		return 1
	}
	return 0
}

func (fc *fnCompiler) emitMath(in *ir.Instr, d int32) {
	a := fc.idx(in.Args[0])
	if in.Func == "dot" || in.Func == "length" {
		// Geometric builtins: float operands, a float result.
		vt, isVec := in.Args[0].Type().(*clc.VectorType)
		switch {
		case in.Func == "length" && isVec:
			fc.add(inst{Op: opLenVF, Kind: uint8(vt.Elem.Kind), A: d, B: a})
		case in.Func == "length":
			fc.add(inst{Op: opLenSS, A: d, B: a})
		case isVec:
			fc.add(inst{Op: opDotVF, Kind: uint8(vt.Elem.Kind), A: d, B: a, C: fc.idx(in.Args[1])})
		default:
			fc.add(inst{Op: opDotSS, A: d, B: a, C: fc.idx(in.Args[1])})
		}
		return
	}
	ax := fc.auxAdd(aux{Name: in.Func, Refs: fc.refs(in.Args)})
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		op := opMathI
		if tt.Kind.IsFloat() {
			op = opMathF
		}
		fc.add(inst{Op: op, Kind: uint8(tt.Kind), A: d, Imm: ax})
	case *clc.VectorType:
		op := opVMathI
		if tt.Elem.Kind.IsFloat() {
			op = opVMathF
		}
		fc.add(inst{Op: op, Kind: uint8(tt.Elem.Kind), A: d, Imm: ax})
	}
}
