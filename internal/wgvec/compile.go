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

// compileFunc lowers f into its shell funcs[f]; the other shells are
// there so a call can name a callee not compiled yet.
func compileFunc(p *vm.Program, funcs map[*ir.Function]*bfunc, f *ir.Function) {
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
	// parameters, then instruction results. Zero constants are always
	// present: they stand in for the interpreter's boxed-value semantics
	// where reading the float field of an integer value (or vice versa)
	// yields zero.
	fc.intConst(0)
	fc.fltConst(0)
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
		if b.Terminator() == nil {
			// The interpreter raises this before counting the fetch,
			// hence retire 0.
			fc.trap(fmt.Sprintf("vm: fell off block %s", b.Name), 0)
		}
	}
	if len(fc.code) == 0 {
		fc.trap(fmt.Sprintf("vm: fell off block entry in %s", f.Name), 0)
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

// operand resolves v to its natural register.
func (fc *fnCompiler) operand(v ir.Value) (ref, bool) {
	switch t := v.(type) {
	case *ir.ConstInt:
		return ref{bankInt, fc.intConst(t.Val)}, true
	case *ir.ConstFloat:
		return ref{bankFlt, fc.fltConst(t.Val)}, true
	}
	r, ok := fc.vals[v]
	return r, ok
}

// scalarRef resolves v for a context that reads the given scalar bank.
// When the value's natural bank differs, the shared zero constant is
// substituted, mirroring the interpreter's boxed values where the unused
// field of an rv is zero.
func (fc *fnCompiler) scalarRef(v ir.Value, b bank) ref {
	r, ok := fc.operand(v)
	if ok && r.Bank == b {
		return r
	}
	if b == bankFlt {
		return ref{bankFlt, fc.fltIdx[0]}
	}
	return ref{bankInt, fc.intIdx[0]}
}

// vecRef resolves v for a context that reads the given vector bank, or
// reports failure (the interpreter would fault on a nil lane slice).
func (fc *fnCompiler) vecRef(v ir.Value, b bank) (ref, bool) {
	r, ok := fc.operand(v)
	if !ok || r.Bank != b {
		return ref{}, false
	}
	return r, true
}

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
// whole variable, each moving a value of the variable's own kind. A store
// to such a variable followed by a load is then a conversion through that
// kind and nothing else, which is what the slot instructions do; the
// accesses are still traced at the address the alloca has in the frame,
// and the alloca instruction itself still executes. Vectors, arrays and
// anything whose address goes elsewhere stay in memory.
func (fc *fnCompiler) analyzeSlots() {
	for a, u := range ir.AllocaUses(fc.f) {
		pt, isPtr := a.Typ.(*clc.PointerType)
		if a.Space == clc.ASLocal || u.Escapes || !isPtr {
			continue
		}
		if k, ok := slotKind(pt.Elem); ok {
			fc.slots[a] = slot{kind: k}
		}
	}
	for _, b := range fc.f.Blocks {
		for _, in := range b.Instrs {
			var moved clc.Type
			switch in.Op {
			case ir.OpLoad:
				moved = in.Typ
			case ir.OpStore:
				moved = in.Args[1].Type()
			default:
				continue
			}
			if s, tracked := fc.slots[in.Args[0]]; tracked {
				if k, ok := slotKind(moved); !ok || k != s.kind {
					delete(fc.slots, in.Args[0])
				}
			}
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

// trap emits an instruction that raises msg when executed. It stands in
// for constructs whose error the interpreter only raises at runtime, so
// dead invalid code stays launchable on both backends.
func (fc *fnCompiler) trap(msg string, retire uint8) {
	ax := fc.auxAdd(aux{Name: msg})
	fc.code = append(fc.code, inst{Op: opTrap, Retire: retire, Imm: ax})
}

func (fc *fnCompiler) auxAdd(a aux) int64 {
	fc.auxes = append(fc.auxes, a)
	return int64(len(fc.auxes) - 1)
}

// dst returns the destination register of a producing instruction.
func (fc *fnCompiler) dst(in *ir.Instr) (ref, bool) {
	r, ok := fc.vals[in]
	return r, ok
}

// memAddr resolves the address operand of a load/store: either the fused
// base+index pair (retire 2) or a plain address register.
func (fc *fnCompiler) memAddr(in *ir.Instr) (base, idx ref, step int64, fused bool) {
	if gep := fc.fuseWith[in]; gep != nil {
		base = fc.scalarRef(gep.Args[0], bankInt)
		idx = fc.scalarRef(gep.Args[1], bankInt)
		step = int64(ir.PointeeSize(gep.Args[0].Type()))
		return base, idx, step, true
	}
	return fc.scalarRef(in.Args[0], bankInt), ref{}, 0, false
}

// emit translates one IR instruction into bytecode.
func (fc *fnCompiler) emit(in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		d, ok := fc.dst(in)
		if !ok || d.Bank != bankInt {
			fc.trap(fmt.Sprintf("vm: alloca %s without pointer register", in.VarName), 1)
			return
		}
		if in.Space == clc.ASLocal {
			addr := vm.MakeAddr(clc.ASLocal, uint64(fc.p.AllocaOffset(in, fc.f)))
			fc.add(inst{Op: opAllocaL, A: d.Idx, Imm: int64(addr)})
		} else {
			fc.add(inst{Op: opAllocaP, A: d.Idx, Imm: int64(fc.p.AllocaOffset(in, fc.f))})
		}

	case ir.OpLoad:
		fc.emitLoad(in)

	case ir.OpStore:
		fc.emitStore(in)

	case ir.OpIndex:
		d, ok := fc.dst(in)
		if !ok || d.Bank != bankInt {
			fc.trap("vm: index without pointer register", 1)
			return
		}
		base := fc.scalarRef(in.Args[0], bankInt)
		step := int64(ir.PointeeSize(in.Args[0].Type()))
		if ci, isC := in.Args[1].(*ir.ConstInt); isC {
			fc.add(inst{Op: opIndexC, A: d.Idx, B: base.Idx, Imm: ci.Val * step})
		} else {
			idx := fc.scalarRef(in.Args[1], bankInt)
			fc.add(inst{Op: opIndex, A: d.Idx, B: base.Idx, C: idx.Idx, Imm: step})
		}

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		fc.emitBin(in)

	case ir.OpNeg, ir.OpNot:
		fc.emitUn(in)

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		fc.emitCmp(in)

	case ir.OpConvert:
		fc.emitConvert(in)

	case ir.OpExtract:
		fc.emitExtract(in)

	case ir.OpInsert:
		fc.emitInsert(in)

	case ir.OpShuffle:
		fc.emitShuffle(in)

	case ir.OpBuild:
		fc.emitBuild(in)

	case ir.OpWorkItem:
		fc.emitWorkItem(in)

	case ir.OpMath:
		fc.emitMath(in)

	case ir.OpBarrier:
		fc.add(inst{Op: opBarrier, In: in})

	case ir.OpCall:
		fc.emitCall(in)

	case ir.OpBr:
		pc := fc.add(inst{Op: opJmp})
		fc.fixups = append(fc.fixups, fixup{pc: pc, slot: 0, blk: in.Targets[0]})

	case ir.OpCondBr:
		op := opCondBrI
		cb := bankInt
		if s, ok := in.Args[0].Type().(*clc.ScalarType); ok && s.Kind.IsFloat() {
			op, cb = opCondBrF, bankFlt
		}
		cond := fc.scalarRef(in.Args[0], cb)
		pc := fc.add(inst{Op: op, A: cond.Idx})
		fc.fixups = append(fc.fixups,
			fixup{pc: pc, slot: 0, blk: in.Targets[0]},
			fixup{pc: pc, slot: 1, blk: in.Targets[1]})

	case ir.OpRet:
		if len(in.Args) == 0 {
			fc.add(inst{Op: opRet})
			return
		}
		r, ok := fc.operand(in.Args[0])
		if !ok {
			fc.add(inst{Op: opRet})
			return
		}
		switch r.Bank {
		case bankInt:
			fc.add(inst{Op: opRetI, B: r.Idx})
		case bankFlt:
			fc.add(inst{Op: opRetF, B: r.Idx})
		case bankVecI:
			fc.add(inst{Op: opRetVI, B: r.Idx})
		case bankVecF:
			fc.add(inst{Op: opRetVF, B: r.Idx})
		}

	default:
		fc.trap(fmt.Sprintf("vm: unhandled op %s", in.Op), 1)
	}
}

func (fc *fnCompiler) emitLoad(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap("vm: load without destination register", 1)
		return
	}
	if s, ok := fc.slots[in.Args[0]]; ok {
		fc.code = append(fc.code, inst{Op: opSlotLd, Kind: uint8(s.kind), A: d.Idx, B: s.reg.Idx,
			N: int32(in.Typ.Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	i := fc.memInst(in, in.Typ, opLd, opLdX)
	if i.Op == opTrap {
		fc.trap(fmt.Sprintf("vm: load of unsupported type %s", in.Typ), i.Retire)
		return
	}
	i.A = d.Idx
	fc.code = append(fc.code, i)
}

// memInst builds the load or store in makes of a value of type t: its
// kind, lanes and address operands, and the opcode op, or opX when an
// index instruction folds into it. Its Op is opTrap when memory holds no
// value of type t.
func (fc *fnCompiler) memInst(in *ir.Instr, t clc.Type, op, opX opcode) inst {
	k, lanes, ok := memKind(t)
	base, idx, step, fused := fc.memAddr(in)
	i := inst{Op: op, Kind: uint8(k), Sub: lanes, B: base.Idx, C: idx.Idx, Imm: step,
		N: int32(t.Size()), Retire: 1, In: in}
	if fused {
		i.Op, i.Retire = opX, 2
	}
	if !ok {
		i.Op = opTrap
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
		fc.code = append(fc.code, inst{Op: opSlotSt, Kind: uint8(s.kind), A: fc.scalarRef(v, s.reg.Bank).Idx, B: s.reg.Idx,
			N: int32(v.Type().Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	i := fc.memInst(in, v.Type(), opSt, opStX)
	src, ok := ref{}, i.Op != opTrap
	switch k := clc.ScalarKind(i.Kind); {
	case !ok:
	case i.Sub > 0 && k.IsFloat():
		src, ok = fc.vecRef(v, bankVecF)
	case i.Sub > 0:
		src, ok = fc.vecRef(v, bankVecI)
	case k.IsFloat():
		src = fc.scalarRef(v, bankFlt)
	default:
		src = fc.scalarRef(v, bankInt)
	}
	if !ok {
		fc.trap(fmt.Sprintf("vm: store of unsupported type %s", v.Type()), i.Retire)
		return
	}
	i.A = src.Idx
	fc.code = append(fc.code, i)
}

func (fc *fnCompiler) emitBin(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap(fmt.Sprintf("vm: binary op %s without register", in.Op), 1)
		return
	}
	sop := in.Op.Scalar()
	ops, ok := binOps[sop]
	if !ok {
		ops = genericBin
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			a := fc.scalarRef(in.Args[0], bankFlt)
			b := fc.scalarRef(in.Args[1], bankFlt)
			op := ops.f
			if tt.Kind == clc.KFloat {
				op = ops.f32
			}
			fc.add(inst{Op: op, Kind: uint8(tt.Kind), Sub: uint8(sop),
				A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], bankInt)
		b := fc.scalarRef(in.Args[1], bankInt)
		// Specializations hold for arbitrary (even unnormalized) inputs:
		// wrap-to-32 equals NormInt after the raw 64-bit op, and 64-bit
		// kinds need no normalization at all. Narrow kinds and the
		// div/rem/shift family keep the generic path.
		op := pickIntOp(tt.Kind, ops.i64, ops.i32, ops.u32)
		fc.add(inst{Op: op, Kind: uint8(tt.Kind), Sub: uint8(sop),
			A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.VectorType:
		ek := tt.Elem.Kind
		if ek.IsFloat() {
			a, okA := fc.vecRef(in.Args[0], bankVecF)
			b, okB := fc.vecRef(in.Args[1], bankVecF)
			if !okA || !okB || d.Bank != bankVecF {
				fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
				return
			}
			fc.add(inst{Op: ops.vf, Kind: uint8(ek), Sub: uint8(sop),
				A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a, okA := fc.vecRef(in.Args[0], bankVecI)
		b, okB := fc.vecRef(in.Args[1], bankVecI)
		if !okA || !okB || d.Bank != bankVecI {
			fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
			return
		}
		fc.add(inst{Op: opVBinI, Kind: uint8(ek), Sub: uint8(sop),
			A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.PointerType:
		// Raw byte arithmetic on pointers, no normalization.
		a := fc.scalarRef(in.Args[0], bankInt)
		b := fc.scalarRef(in.Args[1], bankInt)
		switch in.Op {
		case ir.OpAdd:
			fc.add(inst{Op: opAddI, A: d.Idx, B: a.Idx, C: b.Idx})
		case ir.OpSub:
			fc.add(inst{Op: opSubI, A: d.Idx, B: a.Idx, C: b.Idx})
		default:
			fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
		}
	default:
		fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
	}
}

// binForms names the opcodes one binary operator runs as: on double and
// float scalars, on float vectors, and on 64-bit, int and uint integers.
type binForms struct{ f, f32, vf, i64, i32, u32 opcode }

// genericBin is the forms of an operator with no specialization: each
// reads the operator from Sub.
var genericBin = binForms{opFltBin, opFltBin, opVBinF, opIntBin, opIntBin, opIntBin}

// binOps maps each operator with a specialized opcode to its forms.
var binOps = map[clc.Op]binForms{
	clc.OpAdd: {opAddF, opAddF32, opVAddF, opAddI, opAddI32, opAddU32},
	clc.OpSub: {opSubF, opSubF32, opVSubF, opSubI, opSubI32, opSubU32},
	clc.OpMul: {opMulF, opMulF32, opVMulF, opMulI, opMulI32, opMulU32},
	clc.OpDiv: {opDivF, opDivF32, opVDivF, opIntBin, opIntBin, opIntBin},
	clc.OpAnd: {opFltBin, opFltBin, opVBinF, opAndI, opIntBin, opIntBin},
	clc.OpOr:  {opFltBin, opFltBin, opVBinF, opOrI, opIntBin, opIntBin},
	clc.OpXor: {opFltBin, opFltBin, opVBinF, opXorI, opIntBin, opIntBin},
}

// pickIntOp selects the specialized opcode for an integer Kind: raw64 for
// 64-bit kinds, the wrapping 32-bit variants for int/uint, generic
// otherwise.
func pickIntOp(k clc.ScalarKind, raw64, i32, u32 opcode) opcode {
	switch k {
	case clc.KLong, clc.KULong:
		return raw64
	case clc.KInt:
		return i32
	case clc.KUInt:
		return u32
	}
	return opIntBin
}

func (fc *fnCompiler) emitUn(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap(fmt.Sprintf("vm: unary op %s without register", in.Op), 1)
		return
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			if in.Op != ir.OpNeg {
				fc.trap(fmt.Sprintf("vm: %s on float", in.Op), 1)
				return
			}
			a := fc.scalarRef(in.Args[0], bankFlt)
			fc.add(inst{Op: opNegF, A: d.Idx, B: a.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], bankInt)
		op := opNotI
		if in.Op == ir.OpNeg {
			op = opNegI
		}
		fc.add(inst{Op: op, Kind: uint8(tt.Kind), A: d.Idx, B: a.Idx})
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			a, okA := fc.vecRef(in.Args[0], bankVecF)
			if !okA || d.Bank != bankVecF {
				fc.trap(fmt.Sprintf("vm: unary op %s on unsupported type %s", in.Op, in.Typ), 1)
				return
			}
			// The interpreter negates float vectors for both Neg and Not;
			// replicated bit for bit.
			fc.add(inst{Op: opVNegF, A: d.Idx, B: a.Idx})
			return
		}
		a, okA := fc.vecRef(in.Args[0], bankVecI)
		if !okA || d.Bank != bankVecI {
			fc.trap(fmt.Sprintf("vm: unary op %s on unsupported type %s", in.Op, in.Typ), 1)
			return
		}
		op := opVNotI
		if in.Op == ir.OpNeg {
			op = opVNegI
		}
		fc.add(inst{Op: op, Kind: uint8(tt.Elem.Kind), A: d.Idx, B: a.Idx})
	default:
		fc.trap(fmt.Sprintf("vm: unary op %s on unsupported type %s", in.Op, in.Typ), 1)
	}
}

func (fc *fnCompiler) emitCmp(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap(fmt.Sprintf("vm: compare %s without register", in.Op), 1)
		return
	}
	if d.Bank == bankFlt {
		// A float-typed compare result: the interpreter boxes {i: 0/1}
		// and any float-reading consumer sees zero.
		fc.add(inst{Op: opZeroF, A: d.Idx})
		return
	}
	if d.Bank != bankInt {
		fc.trap(fmt.Sprintf("vm: compare %s with vector result", in.Op), 1)
		return
	}
	rel := in.Op - ir.OpEq // opEq..OpGe are contiguous
	switch ot := in.Args[0].Type().(type) {
	case *clc.ScalarType:
		if ot.Kind.IsFloat() {
			a := fc.scalarRef(in.Args[0], bankFlt)
			b := fc.scalarRef(in.Args[1], bankFlt)
			fc.add(inst{Op: opEqF + opcode(rel), A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], bankInt)
		b := fc.scalarRef(in.Args[1], bankInt)
		op := opEqI + opcode(rel)
		if ot.Kind.IsUnsigned() && in.Op != ir.OpEq && in.Op != ir.OpNe {
			op = opLtU + opcode(in.Op-ir.OpLt)
		}
		fc.add(inst{Op: op, A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.PointerType:
		a := fc.scalarRef(in.Args[0], bankInt)
		b := fc.scalarRef(in.Args[1], bankInt)
		fc.add(inst{Op: opEqI + opcode(rel), A: d.Idx, B: a.Idx, C: b.Idx})
	default:
		// Vector (and any other) comparisons fall through to zero in the
		// interpreter.
		fc.add(inst{Op: opZeroI, A: d.Idx})
	}
}

func (fc *fnCompiler) emitConvert(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap("vm: convert without register", 1)
		return
	}
	from := in.Args[0].Type()
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		switch ft := from.(type) {
		case *clc.ScalarType:
			fc.emitScalarConvert(in, d, ft.Kind, tt.Kind)
			return
		case *clc.PointerType:
			a := fc.scalarRef(in.Args[0], bankInt)
			if tt.Kind == clc.KLong || tt.Kind == clc.KULong {
				fc.add(inst{Op: opMovI, A: d.Idx, B: a.Idx})
			} else {
				fc.add(inst{Op: opConvI, Kind: uint8(tt.Kind), A: d.Idx, B: a.Idx})
			}
			return
		}
		fc.trap(fmt.Sprintf("vm: unsupported conversion %s → %s", from, in.Typ), 1)
	case *clc.PointerType:
		// The interpreter reuses the boxed value's integer field; for a
		// float source that field is zero.
		r, okR := fc.operand(in.Args[0])
		if okR && r.Bank == bankInt {
			fc.add(inst{Op: opMovI, A: d.Idx, B: r.Idx})
		} else {
			fc.add(inst{Op: opZeroI, A: d.Idx})
		}
	case *clc.VectorType:
		ft, okV := from.(*clc.VectorType)
		if !okV || ft.Len != tt.Len {
			fc.trap(fmt.Sprintf("vm: bad vector conversion %s → %s", from, in.Typ), 1)
			return
		}
		sb := bankVecI
		if ft.Elem.Kind.IsFloat() {
			sb = bankVecF
		}
		src, okS := fc.vecRef(in.Args[0], sb)
		if !okS {
			fc.trap(fmt.Sprintf("vm: bad vector conversion %s → %s", from, in.Typ), 1)
			return
		}
		fc.add(inst{Op: opVConv, Sub: uint8(ft.Elem.Kind), Kind: uint8(tt.Elem.Kind),
			A: d.Idx, B: src.Idx})
	default:
		fc.trap(fmt.Sprintf("vm: unsupported conversion %s → %s", from, in.Typ), 1)
	}
}

// emitScalarConvert specializes scalar-to-scalar conversions.
func (fc *fnCompiler) emitScalarConvert(in *ir.Instr, d ref, from, to clc.ScalarKind) {
	switch {
	case from.IsFloat() && to.IsFloat():
		a := fc.scalarRef(in.Args[0], bankFlt)
		if to == clc.KFloat {
			fc.add(inst{Op: opF2F32, A: d.Idx, B: a.Idx})
		} else {
			fc.add(inst{Op: opMovF, A: d.Idx, B: a.Idx})
		}
	case from.IsFloat():
		a := fc.scalarRef(in.Args[0], bankFlt)
		fc.add(inst{Op: opF2I, Kind: uint8(to), A: d.Idx, B: a.Idx})
	case to.IsFloat():
		a := fc.scalarRef(in.Args[0], bankInt)
		op := opI2F
		if from.IsUnsigned() {
			op = opU2F
		}
		fc.add(inst{Op: op, Kind: uint8(to), A: d.Idx, B: a.Idx})
	default:
		a := fc.scalarRef(in.Args[0], bankInt)
		if to == clc.KLong || to == clc.KULong {
			fc.add(inst{Op: opMovI, A: d.Idx, B: a.Idx})
		} else {
			fc.add(inst{Op: opConvI, Kind: uint8(to), A: d.Idx, B: a.Idx})
		}
	}
}

func (fc *fnCompiler) emitExtract(in *ir.Instr) {
	d, ok := fc.dst(in)
	vt, okT := in.Args[0].Type().(*clc.VectorType)
	if !ok || !okT {
		fc.trap("vm: extract on non-vector operand", 1)
		return
	}
	lane := int64(in.Comps[0])
	if vt.Elem.Kind.IsFloat() {
		src, okS := fc.vecRef(in.Args[0], bankVecF)
		if !okS || d.Bank != bankFlt {
			fc.trap("vm: extract on non-vector operand", 1)
			return
		}
		fc.add(inst{Op: opExtF, A: d.Idx, B: src.Idx, Imm: lane})
		return
	}
	src, okS := fc.vecRef(in.Args[0], bankVecI)
	if !okS || d.Bank != bankInt {
		fc.trap("vm: extract on non-vector operand", 1)
		return
	}
	fc.add(inst{Op: opExtI, A: d.Idx, B: src.Idx, Imm: lane})
}

func (fc *fnCompiler) emitInsert(in *ir.Instr) {
	d, ok := fc.dst(in)
	vt, okT := in.Typ.(*clc.VectorType)
	if !ok || !okT {
		fc.trap("vm: insert on non-vector operand", 1)
		return
	}
	lane := int64(in.Comps[0])
	if vt.Elem.Kind.IsFloat() {
		src, okS := fc.vecRef(in.Args[0], bankVecF)
		if !okS || d.Bank != bankVecF {
			fc.trap("vm: insert on non-vector operand", 1)
			return
		}
		sc := fc.scalarRef(in.Args[1], bankFlt)
		fc.add(inst{Op: opInsF, A: d.Idx, B: src.Idx, C: sc.Idx, Imm: lane})
		return
	}
	src, okS := fc.vecRef(in.Args[0], bankVecI)
	if !okS || d.Bank != bankVecI {
		fc.trap("vm: insert on non-vector operand", 1)
		return
	}
	sc := fc.scalarRef(in.Args[1], bankInt)
	fc.add(inst{Op: opInsI, A: d.Idx, B: src.Idx, C: sc.Idx, Imm: lane})
}

func (fc *fnCompiler) emitShuffle(in *ir.Instr) {
	d, ok := fc.dst(in)
	vt, okT := in.Typ.(*clc.VectorType)
	if !ok || !okT {
		fc.trap("vm: shuffle on non-vector operand", 1)
		return
	}
	comps := make([]int32, len(in.Comps))
	for i, c := range in.Comps {
		comps[i] = int32(c)
	}
	ax := fc.auxAdd(aux{Comps: comps})
	if vt.Elem.Kind.IsFloat() {
		src, okS := fc.vecRef(in.Args[0], bankVecF)
		if !okS || d.Bank != bankVecF {
			fc.trap("vm: shuffle on non-vector operand", 1)
			return
		}
		fc.add(inst{Op: opShufF, A: d.Idx, B: src.Idx, Imm: ax})
		return
	}
	src, okS := fc.vecRef(in.Args[0], bankVecI)
	if !okS || d.Bank != bankVecI {
		fc.trap("vm: shuffle on non-vector operand", 1)
		return
	}
	fc.add(inst{Op: opShufI, A: d.Idx, B: src.Idx, Imm: ax})
}

func (fc *fnCompiler) emitBuild(in *ir.Instr) {
	d, ok := fc.dst(in)
	vt, okT := in.Typ.(*clc.VectorType)
	if !ok || !okT {
		fc.trap("vm: build on non-vector type", 1)
		return
	}
	eb := bankInt
	op := opBuildI
	want := bankVecI
	if vt.Elem.Kind.IsFloat() {
		eb, op, want = bankFlt, opBuildF, bankVecF
	}
	if d.Bank != want {
		fc.trap("vm: build on non-vector type", 1)
		return
	}
	refs := make([]ref, len(in.Args))
	for i, a := range in.Args {
		refs[i] = fc.scalarRef(a, eb)
	}
	ax := fc.auxAdd(aux{Refs: refs})
	fc.add(inst{Op: op, A: d.Idx, Imm: ax})
}

func (fc *fnCompiler) emitWorkItem(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap("vm: work-item query without register", 1)
		return
	}
	if d.Bank == bankFlt {
		fc.add(inst{Op: opZeroF, A: d.Idx})
		return
	}
	if d.Bank != bankInt {
		fc.trap(fmt.Sprintf("vm: work-item query %s with vector result", in.Func), 1)
		return
	}
	var q int32
	switch in.Func {
	case "get_global_id":
		q = qGlobalID
	case "get_local_id":
		q = qLocalID
	case "get_group_id":
		q = qGroupID
	case "get_global_size":
		q = qGlobalSize
	case "get_local_size":
		q = qLocalSize
	case "get_num_groups":
		q = qNumGroups
	case "get_work_dim":
		q = qWorkDim
	default:
		q = qNone
	}
	// Dimension argument: constants (including the no-arg default 0) fold
	// into specialized opcodes; anything else is resolved at runtime.
	d64 := int64(0)
	dynamic := false
	if len(in.Args) > 0 {
		switch t := in.Args[0].(type) {
		case *ir.ConstInt:
			d64 = t.Val
		case *ir.ConstFloat:
			d64 = 0 // the interpreter reads the int field of the box: zero
		default:
			dynamic = true
		}
	}
	if dynamic {
		dim := fc.scalarRef(in.Args[0], bankInt)
		fc.add(inst{Op: opWIQ, A: d.Idx, B: dim.Idx, N: q})
		return
	}
	if d64 < 0 || d64 > 2 || q == qNone {
		fc.add(inst{Op: opZeroI, A: d.Idx})
		return
	}
	switch q {
	case qGlobalID:
		fc.add(inst{Op: opGID, A: d.Idx, Imm: d64})
	case qLocalID:
		fc.add(inst{Op: opLID, A: d.Idx, Imm: d64})
	case qGroupID:
		fc.add(inst{Op: opGRP, A: d.Idx, Imm: d64})
	case qGlobalSize:
		fc.add(inst{Op: opGSZ, A: d.Idx, Imm: d64})
	case qLocalSize:
		fc.add(inst{Op: opLSZ, A: d.Idx, Imm: d64})
	case qNumGroups:
		fc.add(inst{Op: opNGRP, A: d.Idx, Imm: d64})
	case qWorkDim:
		fc.add(inst{Op: opConstI, A: d.Idx, Imm: 3})
	}
}

func (fc *fnCompiler) emitMath(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap(fmt.Sprintf("vm: math builtin %q without register", in.Func), 1)
		return
	}
	// Geometric reductions: vector args, scalar float result.
	switch in.Func {
	case "dot", "length":
		if vt, isVec := in.Args[0].Type().(*clc.VectorType); isVec {
			if d.Bank != bankFlt {
				// An integer-typed consumer of the boxed float sees zero.
				fc.add(inst{Op: opZeroI, A: d.Idx})
				return
			}
			a, okA := fc.vecRef(in.Args[0], bankVecF)
			if !okA {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Args[0].Type()), 1)
				return
			}
			if in.Func == "length" {
				fc.add(inst{Op: opLenVF, Kind: uint8(vt.Elem.Kind), A: d.Idx, B: a.Idx})
				return
			}
			b, okB := fc.vecRef(in.Args[1], bankVecF)
			if !okB {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Args[1].Type()), 1)
				return
			}
			fc.add(inst{Op: opDotVF, Kind: uint8(vt.Elem.Kind), A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		if d.Bank != bankFlt {
			fc.add(inst{Op: opZeroI, A: d.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], bankFlt)
		if in.Func == "length" {
			fc.add(inst{Op: opLenSS, A: d.Idx, B: a.Idx})
			return
		}
		b := fc.scalarRef(in.Args[1], bankFlt)
		fc.add(inst{Op: opDotSS, A: d.Idx, B: a.Idx, C: b.Idx})
		return
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			refs := make([]ref, len(in.Args))
			for i, a := range in.Args {
				refs[i] = fc.scalarRef(a, bankFlt)
			}
			ax := fc.auxAdd(aux{Name: in.Func, Refs: refs})
			fc.add(inst{Op: opMathF, Kind: uint8(tt.Kind), A: d.Idx, Imm: ax})
			return
		}
		refs := make([]ref, len(in.Args))
		for i, a := range in.Args {
			refs[i] = fc.scalarRef(a, bankInt)
		}
		ax := fc.auxAdd(aux{Name: in.Func, Refs: refs})
		fc.add(inst{Op: opMathI, Kind: uint8(tt.Kind), A: d.Idx, Imm: ax})
	case *clc.VectorType:
		vb := bankVecI
		op := opVMathI
		if tt.Elem.Kind.IsFloat() {
			vb, op = bankVecF, opVMathF
		}
		if d.Bank != vb {
			fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
			return
		}
		refs := make([]ref, len(in.Args))
		for i, a := range in.Args {
			r, okR := fc.vecRef(a, vb)
			if !okR {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
				return
			}
			refs[i] = r
		}
		ax := fc.auxAdd(aux{Name: in.Func, Refs: refs})
		fc.add(inst{Op: op, Kind: uint8(tt.Elem.Kind), A: d.Idx, Imm: ax})
	default:
		fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
	}
}

func (fc *fnCompiler) emitCall(in *ir.Instr) {
	callee := fc.funcs[in.Callee]
	if callee == nil {
		fc.trap("vm: call to unknown function", 1)
		return
	}
	if len(in.Args) != len(callee.Fn.Params) {
		fc.trap(fmt.Sprintf("vm: call to %s with %d args, want %d",
			callee.Fn.Name, len(in.Args), len(callee.Fn.Params)), 1)
		return
	}
	refs := make([]ref, len(in.Args))
	for i, a := range in.Args {
		switch callee.Params[i].Bank {
		case bankInt:
			refs[i] = fc.scalarRef(a, bankInt)
		case bankFlt:
			refs[i] = fc.scalarRef(a, bankFlt)
		default:
			r, okR := fc.vecRef(a, callee.Params[i].Bank)
			if !okR {
				fc.trap(fmt.Sprintf("vm: call to %s with mismatched vector argument %d",
					callee.Fn.Name, i), 1)
				return
			}
			refs[i] = r
		}
	}
	i := inst{Op: opCall, A: -1, Imm: fc.auxAdd(aux{Callee: callee, Refs: refs})}
	if in.Producing() {
		d, okD := fc.dst(in)
		if !okD {
			fc.trap("vm: call without destination register", 1)
			return
		}
		i.A = d.Idx
		i.Sub = uint8(d.Bank)
	}
	fc.add(i)
}
