package bcode

import (
	"context"
	"fmt"
	"math"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/telemetry"
	"grover/internal/vm"
)

// Machine is a prepared program compiled to bytecode: one BFunc per
// function of the module. It executes nothing itself; wgvec builds its
// region programs from it.
type Machine struct {
	p     *vm.Program
	funcs map[*ir.Function]*BFunc
}

// Compile translates every function of a prepared program to bytecode.
func Compile(p *vm.Program) (*Machine, error) {
	return CompileCtx(context.Background(), p)
}

// CompileCtx is Compile recording a bcode.compile span into the trace
// carried by ctx, if any.
func CompileCtx(ctx context.Context, p *vm.Program) (*Machine, error) {
	defer telemetry.StartSpan(ctx, "bcode.compile")()
	m := &Machine{p: p, funcs: map[*ir.Function]*BFunc{}}
	// Shells first so call sites can reference not-yet-compiled callees.
	for _, f := range p.Module.Funcs {
		m.funcs[f] = &BFunc{Fn: f}
	}
	for _, f := range p.Module.Funcs {
		if err := m.compileFunc(f); err != nil {
			return nil, fmt.Errorf("bcode: %s: %w", f.Name, err)
		}
	}
	return m, nil
}

// Program returns the prepared program this machine was compiled from.
func (m *Machine) Program() *vm.Program { return m.p }

// Func returns the compiled form of f, or nil if f is not part of the
// machine's module.
func (m *Machine) Func(f *ir.Function) *BFunc { return m.funcs[f] }

// fnCompiler holds per-function compilation state.
type fnCompiler struct {
	m  *Machine
	p  *vm.Program
	f  *ir.Function
	bf *BFunc

	vals   map[ir.Value]Ref
	intIdx map[int64]int32
	fltIdx map[uint64]int32
	sealed bool // constant region closed; late interning is a bug

	fusedIdx map[*ir.Instr]bool      // index instrs folded into a memory op
	fuseWith map[*ir.Instr]*ir.Instr // memory op → its folded index

	slots map[ir.Value]slot // private alloca → the register its variable lives in

	code    []Inst
	auxes   []Aux
	blockPC map[*ir.Block]int32
	fixups  []fixup
}

// slot is a private variable kept in a register: the register, and the
// scalar kind its stores and loads convert through.
type slot struct {
	reg  Ref
	kind clc.ScalarKind
}

// fixup is a branch-target patch applied after all block PCs are known.
type fixup struct {
	pc   int32
	slot uint8 // 0 patches imm, 1 patches n
	blk  *ir.Block
}

func (m *Machine) compileFunc(f *ir.Function) error {
	fc := &fnCompiler{
		m: m, p: m.p, f: f, bf: m.funcs[f],
		vals:     map[ir.Value]Ref{},
		intIdx:   map[int64]int32{},
		fltIdx:   map[uint64]int32{},
		fusedIdx: map[*ir.Instr]bool{},
		fuseWith: map[*ir.Instr]*ir.Instr{},
		slots:    map[ir.Value]slot{},
		blockPC:  map[*ir.Block]int32{},
	}
	bf := fc.bf
	bf.FrameSize = m.p.FrameSize(f)
	bf.LocalSize = m.p.LocalStaticSize(f)

	// Register numbering per Bank: constants first (so the preload
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
	bf.Params = make([]Ref, len(f.Params))
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
	return nil
}

// alloc assigns a fresh register for a value of type t.
func (fc *fnCompiler) alloc(t clc.Type) Ref {
	bf := fc.bf
	switch tt := t.(type) {
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			bf.VecFLens = append(bf.VecFLens, tt.Len)
			return Ref{BankVecF, int32(len(bf.VecFLens) - 1)}
		}
		bf.VecILens = append(bf.VecILens, tt.Len)
		return Ref{BankVecI, int32(len(bf.VecILens) - 1)}
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			bf.NFlt++
			return Ref{BankFlt, int32(bf.NFlt - 1)}
		}
	}
	// Integers, pointers, and anything else addressable as a word.
	bf.NInt++
	return Ref{BankInt, int32(bf.NInt - 1)}
}

// intConst interns an integer constant into the int Bank's const region.
func (fc *fnCompiler) intConst(v int64) int32 {
	if i, ok := fc.intIdx[v]; ok {
		return i
	}
	if fc.sealed {
		panic("bcode: constant interned after the const region was sealed")
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
		panic("bcode: constant interned after the const region was sealed")
	}
	i := int32(fc.bf.NFlt)
	fc.bf.NFlt++
	fc.bf.FltConsts = append(fc.bf.FltConsts, v)
	fc.fltIdx[key] = i
	return i
}

// operand resolves v to its natural register.
func (fc *fnCompiler) operand(v ir.Value) (Ref, bool) {
	switch t := v.(type) {
	case *ir.ConstInt:
		return Ref{BankInt, fc.intConst(t.Val)}, true
	case *ir.ConstFloat:
		return Ref{BankFlt, fc.fltConst(t.Val)}, true
	}
	r, ok := fc.vals[v]
	return r, ok
}

// scalarRef resolves v for a context that reads the given scalar Bank.
// When the value's natural Bank differs, the shared zero constant is
// substituted, mirroring the interpreter's boxed values where the unused
// field of an rv is zero.
func (fc *fnCompiler) scalarRef(v ir.Value, b Bank) Ref {
	r, ok := fc.operand(v)
	if ok && r.Bank == b {
		return r
	}
	if b == BankFlt {
		return Ref{BankFlt, fc.fltIdx[0]}
	}
	return Ref{BankInt, fc.intIdx[0]}
}

// vecRef resolves v for a context that reads the given vector Bank, or
// reports failure (the interpreter would fault on a nil lane slice).
func (fc *fnCompiler) vecRef(v ir.Value, b Bank) (Ref, bool) {
	r, ok := fc.operand(v)
	if !ok || r.Bank != b {
		return Ref{}, false
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
// as — a pointer goes through memory as an unsigned 64-bit word — or false
// when t is not something a slot can hold.
func slotKind(t clc.Type) (clc.ScalarKind, bool) {
	switch tt := t.(type) {
	case *clc.ScalarType:
		return tt.Kind, ldOp(tt.Kind) != OpNop
	case *clc.PointerType:
		return clc.KULong, true
	}
	return 0, false
}

func (fc *fnCompiler) add(i Inst) int32 {
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
	ax := fc.auxAdd(Aux{Name: msg})
	fc.code = append(fc.code, Inst{Op: OpTrap, Retire: retire, Imm: ax})
}

func (fc *fnCompiler) auxAdd(a Aux) int64 {
	fc.auxes = append(fc.auxes, a)
	return int64(len(fc.auxes) - 1)
}

// dst returns the destination register of a producing instruction.
func (fc *fnCompiler) dst(in *ir.Instr) (Ref, bool) {
	r, ok := fc.vals[in]
	return r, ok
}

// ldOp returns the specialized scalar-load Opcode for a kind.
func ldOp(k clc.ScalarKind) Opcode {
	switch k {
	case clc.KBool, clc.KUChar:
		return OpLdU8
	case clc.KChar:
		return OpLdI8
	case clc.KShort:
		return OpLdI16
	case clc.KUShort:
		return OpLdU16
	case clc.KInt:
		return OpLdI32
	case clc.KUInt:
		return OpLdU32
	case clc.KLong, clc.KULong:
		return OpLdI64
	case clc.KFloat:
		return OpLdF32
	case clc.KDouble:
		return OpLdF64
	}
	return OpNop
}

// stOp returns the specialized scalar-store Opcode for a kind.
func stOp(k clc.ScalarKind) Opcode {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		return OpStI8
	case clc.KShort, clc.KUShort:
		return OpStI16
	case clc.KInt, clc.KUInt:
		return OpStI32
	case clc.KLong, clc.KULong:
		return OpStI64
	case clc.KFloat:
		return OpStF32
	case clc.KDouble:
		return OpStF64
	}
	return OpNop
}

// memAddr resolves the address operand of a load/store: either the fused
// base+index pair (retire 2) or a plain address register.
func (fc *fnCompiler) memAddr(in *ir.Instr) (base, idx Ref, step int64, fused bool) {
	if gep := fc.fuseWith[in]; gep != nil {
		base = fc.scalarRef(gep.Args[0], BankInt)
		idx = fc.scalarRef(gep.Args[1], BankInt)
		step = int64(ir.PointeeSize(gep.Args[0].Type()))
		return base, idx, step, true
	}
	return fc.scalarRef(in.Args[0], BankInt), Ref{}, 0, false
}

// emit translates one IR instruction into bytecode.
func (fc *fnCompiler) emit(in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		d, ok := fc.dst(in)
		if !ok || d.Bank != BankInt {
			fc.trap(fmt.Sprintf("vm: alloca %s without pointer register", in.VarName), 1)
			return
		}
		if in.Space == clc.ASLocal {
			addr := vm.MakeAddr(clc.ASLocal, uint64(fc.p.AllocaOffset(in, fc.f)))
			fc.add(Inst{Op: OpAllocaL, A: d.Idx, Imm: int64(addr)})
		} else {
			fc.add(Inst{Op: OpAllocaP, A: d.Idx, Imm: int64(fc.p.AllocaOffset(in, fc.f))})
		}

	case ir.OpLoad:
		fc.emitLoad(in)

	case ir.OpStore:
		fc.emitStore(in)

	case ir.OpIndex:
		d, ok := fc.dst(in)
		if !ok || d.Bank != BankInt {
			fc.trap("vm: index without pointer register", 1)
			return
		}
		base := fc.scalarRef(in.Args[0], BankInt)
		step := int64(ir.PointeeSize(in.Args[0].Type()))
		if ci, isC := in.Args[1].(*ir.ConstInt); isC {
			fc.add(Inst{Op: OpIndexC, A: d.Idx, B: base.Idx, Imm: ci.Val * step})
		} else {
			idx := fc.scalarRef(in.Args[1], BankInt)
			fc.add(Inst{Op: OpIndex, A: d.Idx, B: base.Idx, C: idx.Idx, Imm: step})
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
		fc.add(Inst{Op: OpBarrier, In: in})

	case ir.OpCall:
		fc.emitCall(in)

	case ir.OpBr:
		pc := fc.add(Inst{Op: OpJmp})
		fc.fixups = append(fc.fixups, fixup{pc: pc, slot: 0, blk: in.Targets[0]})

	case ir.OpCondBr:
		op := OpCondBrI
		cb := BankInt
		if s, ok := in.Args[0].Type().(*clc.ScalarType); ok && s.Kind.IsFloat() {
			op, cb = OpCondBrF, BankFlt
		}
		cond := fc.scalarRef(in.Args[0], cb)
		pc := fc.add(Inst{Op: op, A: cond.Idx})
		fc.fixups = append(fc.fixups,
			fixup{pc: pc, slot: 0, blk: in.Targets[0]},
			fixup{pc: pc, slot: 1, blk: in.Targets[1]})

	case ir.OpRet:
		if len(in.Args) == 0 {
			fc.add(Inst{Op: OpRet})
			return
		}
		r, ok := fc.operand(in.Args[0])
		if !ok {
			fc.add(Inst{Op: OpRet})
			return
		}
		switch r.Bank {
		case BankInt:
			fc.add(Inst{Op: OpRetI, B: r.Idx})
		case BankFlt:
			fc.add(Inst{Op: OpRetF, B: r.Idx})
		case BankVecI:
			fc.add(Inst{Op: OpRetVI, B: r.Idx})
		case BankVecF:
			fc.add(Inst{Op: OpRetVF, B: r.Idx})
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
		op := OpSlotLdI
		if s.reg.Bank == BankFlt {
			op = OpSlotLdF
		}
		fc.code = append(fc.code, Inst{Op: op, Kind: uint8(s.kind), A: d.Idx, B: s.reg.Idx,
			N: int32(in.Typ.Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	base, idx, step, fused := fc.memAddr(in)
	retire := uint8(1)
	if fused {
		retire = 2
	}
	i := Inst{A: d.Idx, B: base.Idx, C: idx.Idx, Imm: step,
		N: int32(in.Typ.Size()), Retire: retire, In: in}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		i.Op = ldOp(tt.Kind)
		if i.Op == OpNop {
			fc.trap(fmt.Sprintf("vm: load of unsupported scalar %s", tt.Kind), retire)
			return
		}
		if fused {
			i.Op += OpLdXI8 - OpLdI8
		}
	case *clc.VectorType:
		i.Kind = uint8(tt.Elem.Kind)
		i.Sub = uint8(tt.Len)
		if tt.Elem.Kind.IsFloat() {
			i.Op = OpLdVF
		} else {
			i.Op = OpLdVI
		}
		if fused {
			i.Op += OpLdXVI - OpLdVI
		}
	case *clc.PointerType:
		i.Op = OpLdI64
		if fused {
			i.Op += OpLdXI8 - OpLdI8
		}
	default:
		fc.trap(fmt.Sprintf("vm: load of unsupported type %s", in.Typ), retire)
		return
	}
	fc.code = append(fc.code, i)
}

// slotOffset returns the frame offset of the alloca a slot load or store
// goes to.
func (fc *fnCompiler) slotOffset(in *ir.Instr) int64 {
	return int64(fc.p.AllocaOffset(in.Args[0].(*ir.Instr), fc.f))
}

func (fc *fnCompiler) emitStore(in *ir.Instr) {
	if s, ok := fc.slots[in.Args[0]]; ok {
		op := OpSlotStI
		if s.reg.Bank == BankFlt {
			op = OpSlotStF
		}
		fc.code = append(fc.code, Inst{Op: op, Kind: uint8(s.kind), A: fc.scalarRef(in.Args[1], s.reg.Bank).Idx, B: s.reg.Idx,
			N: int32(in.Args[1].Type().Size()), Imm: fc.slotOffset(in), Retire: 1, In: in})
		return
	}
	base, idx, step, fused := fc.memAddr(in)
	retire := uint8(1)
	if fused {
		retire = 2
	}
	t := in.Args[1].Type()
	i := Inst{B: base.Idx, C: idx.Idx, Imm: step,
		N: int32(t.Size()), Retire: retire, In: in}
	switch tt := t.(type) {
	case *clc.ScalarType:
		i.Op = stOp(tt.Kind)
		if i.Op == OpNop {
			fc.trap(fmt.Sprintf("vm: store of unsupported scalar %s", tt.Kind), retire)
			return
		}
		vb := BankInt
		if tt.Kind.IsFloat() {
			vb = BankFlt
		}
		i.A = fc.scalarRef(in.Args[1], vb).Idx
		if fused {
			i.Op += OpStXI8 - OpStI8
		}
	case *clc.VectorType:
		vb := BankVecI
		i.Op = OpStVI
		if tt.Elem.Kind.IsFloat() {
			vb, i.Op = BankVecF, OpStVF
		}
		src, ok := fc.vecRef(in.Args[1], vb)
		if !ok {
			fc.trap(fmt.Sprintf("vm: store of unsupported type %s", t), retire)
			return
		}
		i.A = src.Idx
		i.Kind = uint8(tt.Elem.Kind)
		i.Sub = uint8(tt.Len)
		if fused {
			i.Op += OpStXVI - OpStVI
		}
	case *clc.PointerType:
		i.Op = OpStI64
		i.A = fc.scalarRef(in.Args[1], BankInt).Idx
		if fused {
			i.Op += OpStXI8 - OpStI8
		}
	default:
		fc.trap(fmt.Sprintf("vm: store of unsupported type %s", t), retire)
		return
	}
	fc.code = append(fc.code, i)
}

func (fc *fnCompiler) emitBin(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap(fmt.Sprintf("vm: binary op %s without register", in.Op), 1)
		return
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			a := fc.scalarRef(in.Args[0], BankFlt)
			b := fc.scalarRef(in.Args[1], BankFlt)
			var op Opcode
			switch in.Op {
			case ir.OpAdd:
				op = OpAddF
			case ir.OpSub:
				op = OpSubF
			case ir.OpMul:
				op = OpMulF
			case ir.OpDiv:
				op = OpDivF
			default:
				op = OpFltBin
			}
			if op != OpFltBin && tt.Kind == clc.KFloat {
				op += OpAddF32 - OpAddF
			}
			fc.add(Inst{Op: op, Kind: uint8(tt.Kind), Sub: uint8(in.Op),
				A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], BankInt)
		b := fc.scalarRef(in.Args[1], BankInt)
		op := OpIntBin
		// Specializations hold for arbitrary (even unnormalized) inputs:
		// wrap-to-32 equals normInt after the raw 64-bit op, and 64-bit
		// kinds need no normalization at all. Narrow kinds and the
		// div/rem/shift family keep the generic path.
		switch in.Op {
		case ir.OpAdd:
			op = pickIntOp(tt.Kind, OpAddI, OpAddI32, OpAddU32)
		case ir.OpSub:
			op = pickIntOp(tt.Kind, OpSubI, OpSubI32, OpSubU32)
		case ir.OpMul:
			op = pickIntOp(tt.Kind, OpMulI, OpMulI32, OpMulU32)
		case ir.OpAnd:
			op = pickIntOp(tt.Kind, OpAndI, OpIntBin, OpIntBin)
		case ir.OpOr:
			op = pickIntOp(tt.Kind, OpOrI, OpIntBin, OpIntBin)
		case ir.OpXor:
			op = pickIntOp(tt.Kind, OpXorI, OpIntBin, OpIntBin)
		}
		fc.add(Inst{Op: op, Kind: uint8(tt.Kind), Sub: uint8(in.Op),
			A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.VectorType:
		ek := tt.Elem.Kind
		if ek.IsFloat() {
			a, okA := fc.vecRef(in.Args[0], BankVecF)
			b, okB := fc.vecRef(in.Args[1], BankVecF)
			if !okA || !okB || d.Bank != BankVecF {
				fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
				return
			}
			var op Opcode
			switch in.Op {
			case ir.OpAdd:
				op = OpVAddF
			case ir.OpSub:
				op = OpVSubF
			case ir.OpMul:
				op = OpVMulF
			case ir.OpDiv:
				op = OpVDivF
			default:
				op = OpVBinF
			}
			fc.add(Inst{Op: op, Kind: uint8(ek), Sub: uint8(in.Op),
				A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a, okA := fc.vecRef(in.Args[0], BankVecI)
		b, okB := fc.vecRef(in.Args[1], BankVecI)
		if !okA || !okB || d.Bank != BankVecI {
			fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
			return
		}
		fc.add(Inst{Op: OpVBinI, Kind: uint8(ek), Sub: uint8(in.Op),
			A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.PointerType:
		// Raw byte arithmetic on pointers, no normalization.
		a := fc.scalarRef(in.Args[0], BankInt)
		b := fc.scalarRef(in.Args[1], BankInt)
		switch in.Op {
		case ir.OpAdd:
			fc.add(Inst{Op: OpAddI, A: d.Idx, B: a.Idx, C: b.Idx})
		case ir.OpSub:
			fc.add(Inst{Op: OpSubI, A: d.Idx, B: a.Idx, C: b.Idx})
		default:
			fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
		}
	default:
		fc.trap(fmt.Sprintf("vm: binary op %s on unsupported type %s", in.Op, in.Typ), 1)
	}
}

// pickIntOp selects the specialized Opcode for an integer Kind: raw64 for
// 64-bit kinds, the wrapping 32-bit variants for int/uint, generic
// otherwise.
func pickIntOp(k clc.ScalarKind, raw64, i32, u32 Opcode) Opcode {
	switch k {
	case clc.KLong, clc.KULong:
		return raw64
	case clc.KInt:
		return i32
	case clc.KUInt:
		return u32
	}
	return OpIntBin
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
			a := fc.scalarRef(in.Args[0], BankFlt)
			fc.add(Inst{Op: OpNegF, A: d.Idx, B: a.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], BankInt)
		op := OpNotI
		if in.Op == ir.OpNeg {
			op = OpNegI
		}
		fc.add(Inst{Op: op, Kind: uint8(tt.Kind), A: d.Idx, B: a.Idx})
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			a, okA := fc.vecRef(in.Args[0], BankVecF)
			if !okA || d.Bank != BankVecF {
				fc.trap(fmt.Sprintf("vm: unary op %s on unsupported type %s", in.Op, in.Typ), 1)
				return
			}
			// The interpreter negates float vectors for both Neg and Not;
			// replicated bit for bit.
			fc.add(Inst{Op: OpVNegF, A: d.Idx, B: a.Idx})
			return
		}
		a, okA := fc.vecRef(in.Args[0], BankVecI)
		if !okA || d.Bank != BankVecI {
			fc.trap(fmt.Sprintf("vm: unary op %s on unsupported type %s", in.Op, in.Typ), 1)
			return
		}
		op := OpVNotI
		if in.Op == ir.OpNeg {
			op = OpVNegI
		}
		fc.add(Inst{Op: op, Kind: uint8(tt.Elem.Kind), A: d.Idx, B: a.Idx})
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
	if d.Bank == BankFlt {
		// A float-typed compare result: the interpreter boxes {i: 0/1}
		// and any float-reading consumer sees zero.
		fc.add(Inst{Op: OpZeroF, A: d.Idx})
		return
	}
	if d.Bank != BankInt {
		fc.trap(fmt.Sprintf("vm: compare %s with vector result", in.Op), 1)
		return
	}
	rel := in.Op - ir.OpEq // OpEq..OpGe are contiguous
	switch ot := in.Args[0].Type().(type) {
	case *clc.ScalarType:
		if ot.Kind.IsFloat() {
			a := fc.scalarRef(in.Args[0], BankFlt)
			b := fc.scalarRef(in.Args[1], BankFlt)
			fc.add(Inst{Op: OpEqF + Opcode(rel), A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], BankInt)
		b := fc.scalarRef(in.Args[1], BankInt)
		op := OpEqI + Opcode(rel)
		if ot.Kind.IsUnsigned() && in.Op != ir.OpEq && in.Op != ir.OpNe {
			op = OpLtU + Opcode(in.Op-ir.OpLt)
		}
		fc.add(Inst{Op: op, A: d.Idx, B: a.Idx, C: b.Idx})
	case *clc.PointerType:
		a := fc.scalarRef(in.Args[0], BankInt)
		b := fc.scalarRef(in.Args[1], BankInt)
		fc.add(Inst{Op: OpEqI + Opcode(rel), A: d.Idx, B: a.Idx, C: b.Idx})
	default:
		// Vector (and any other) comparisons fall through to zero in the
		// interpreter.
		fc.add(Inst{Op: OpZeroI, A: d.Idx})
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
			a := fc.scalarRef(in.Args[0], BankInt)
			if tt.Kind == clc.KLong || tt.Kind == clc.KULong {
				fc.add(Inst{Op: OpMovI, A: d.Idx, B: a.Idx})
			} else {
				fc.add(Inst{Op: OpConvI, Kind: uint8(tt.Kind), A: d.Idx, B: a.Idx})
			}
			return
		}
		fc.trap(fmt.Sprintf("vm: unsupported conversion %s → %s", from, in.Typ), 1)
	case *clc.PointerType:
		// The interpreter reuses the boxed value's integer field; for a
		// float source that field is zero.
		r, okR := fc.operand(in.Args[0])
		if okR && r.Bank == BankInt {
			fc.add(Inst{Op: OpMovI, A: d.Idx, B: r.Idx})
		} else {
			fc.add(Inst{Op: OpZeroI, A: d.Idx})
		}
	case *clc.VectorType:
		ft, okV := from.(*clc.VectorType)
		if !okV || ft.Len != tt.Len {
			fc.trap(fmt.Sprintf("vm: bad vector conversion %s → %s", from, in.Typ), 1)
			return
		}
		sb := BankVecI
		if ft.Elem.Kind.IsFloat() {
			sb = BankVecF
		}
		src, okS := fc.vecRef(in.Args[0], sb)
		if !okS {
			fc.trap(fmt.Sprintf("vm: bad vector conversion %s → %s", from, in.Typ), 1)
			return
		}
		fc.add(Inst{Op: OpVConv, Sub: uint8(ft.Elem.Kind), Kind: uint8(tt.Elem.Kind),
			A: d.Idx, B: src.Idx})
	default:
		fc.trap(fmt.Sprintf("vm: unsupported conversion %s → %s", from, in.Typ), 1)
	}
}

// emitScalarConvert specializes scalar-to-scalar conversions.
func (fc *fnCompiler) emitScalarConvert(in *ir.Instr, d Ref, from, to clc.ScalarKind) {
	switch {
	case from.IsFloat() && to.IsFloat():
		a := fc.scalarRef(in.Args[0], BankFlt)
		if to == clc.KFloat {
			fc.add(Inst{Op: OpF2F32, A: d.Idx, B: a.Idx})
		} else {
			fc.add(Inst{Op: OpMovF, A: d.Idx, B: a.Idx})
		}
	case from.IsFloat():
		a := fc.scalarRef(in.Args[0], BankFlt)
		fc.add(Inst{Op: OpF2I, Kind: uint8(to), A: d.Idx, B: a.Idx})
	case to.IsFloat():
		a := fc.scalarRef(in.Args[0], BankInt)
		op := OpI2F
		if from.IsUnsigned() {
			op = OpU2F
		}
		fc.add(Inst{Op: op, Kind: uint8(to), A: d.Idx, B: a.Idx})
	default:
		a := fc.scalarRef(in.Args[0], BankInt)
		if to == clc.KLong || to == clc.KULong {
			fc.add(Inst{Op: OpMovI, A: d.Idx, B: a.Idx})
		} else {
			fc.add(Inst{Op: OpConvI, Kind: uint8(to), A: d.Idx, B: a.Idx})
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
		src, okS := fc.vecRef(in.Args[0], BankVecF)
		if !okS || d.Bank != BankFlt {
			fc.trap("vm: extract on non-vector operand", 1)
			return
		}
		fc.add(Inst{Op: OpExtF, A: d.Idx, B: src.Idx, Imm: lane})
		return
	}
	src, okS := fc.vecRef(in.Args[0], BankVecI)
	if !okS || d.Bank != BankInt {
		fc.trap("vm: extract on non-vector operand", 1)
		return
	}
	fc.add(Inst{Op: OpExtI, A: d.Idx, B: src.Idx, Imm: lane})
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
		src, okS := fc.vecRef(in.Args[0], BankVecF)
		if !okS || d.Bank != BankVecF {
			fc.trap("vm: insert on non-vector operand", 1)
			return
		}
		sc := fc.scalarRef(in.Args[1], BankFlt)
		fc.add(Inst{Op: OpInsF, A: d.Idx, B: src.Idx, C: sc.Idx, Imm: lane})
		return
	}
	src, okS := fc.vecRef(in.Args[0], BankVecI)
	if !okS || d.Bank != BankVecI {
		fc.trap("vm: insert on non-vector operand", 1)
		return
	}
	sc := fc.scalarRef(in.Args[1], BankInt)
	fc.add(Inst{Op: OpInsI, A: d.Idx, B: src.Idx, C: sc.Idx, Imm: lane})
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
	ax := fc.auxAdd(Aux{Comps: comps})
	if vt.Elem.Kind.IsFloat() {
		src, okS := fc.vecRef(in.Args[0], BankVecF)
		if !okS || d.Bank != BankVecF {
			fc.trap("vm: shuffle on non-vector operand", 1)
			return
		}
		fc.add(Inst{Op: OpShufF, A: d.Idx, B: src.Idx, Imm: ax})
		return
	}
	src, okS := fc.vecRef(in.Args[0], BankVecI)
	if !okS || d.Bank != BankVecI {
		fc.trap("vm: shuffle on non-vector operand", 1)
		return
	}
	fc.add(Inst{Op: OpShufI, A: d.Idx, B: src.Idx, Imm: ax})
}

func (fc *fnCompiler) emitBuild(in *ir.Instr) {
	d, ok := fc.dst(in)
	vt, okT := in.Typ.(*clc.VectorType)
	if !ok || !okT {
		fc.trap("vm: build on non-vector type", 1)
		return
	}
	eb := BankInt
	op := OpBuildI
	want := BankVecI
	if vt.Elem.Kind.IsFloat() {
		eb, op, want = BankFlt, OpBuildF, BankVecF
	}
	if d.Bank != want {
		fc.trap("vm: build on non-vector type", 1)
		return
	}
	refs := make([]Ref, len(in.Args))
	for i, a := range in.Args {
		refs[i] = fc.scalarRef(a, eb)
	}
	ax := fc.auxAdd(Aux{Refs: refs})
	fc.add(Inst{Op: op, A: d.Idx, Imm: ax})
}

func (fc *fnCompiler) emitWorkItem(in *ir.Instr) {
	d, ok := fc.dst(in)
	if !ok {
		fc.trap("vm: work-item query without register", 1)
		return
	}
	if d.Bank == BankFlt {
		fc.add(Inst{Op: OpZeroF, A: d.Idx})
		return
	}
	if d.Bank != BankInt {
		fc.trap(fmt.Sprintf("vm: work-item query %s with vector result", in.Func), 1)
		return
	}
	var q int32
	switch in.Func {
	case "get_global_id":
		q = QGlobalID
	case "get_local_id":
		q = QLocalID
	case "get_group_id":
		q = QGroupID
	case "get_global_size":
		q = QGlobalSize
	case "get_local_size":
		q = QLocalSize
	case "get_num_groups":
		q = QNumGroups
	case "get_work_dim":
		q = QWorkDim
	default:
		q = QNone
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
		dim := fc.scalarRef(in.Args[0], BankInt)
		fc.add(Inst{Op: OpWIQ, A: d.Idx, B: dim.Idx, N: q})
		return
	}
	if d64 < 0 || d64 > 2 || q == QNone {
		fc.add(Inst{Op: OpZeroI, A: d.Idx})
		return
	}
	switch q {
	case QGlobalID:
		fc.add(Inst{Op: OpGID, A: d.Idx, Imm: d64})
	case QLocalID:
		fc.add(Inst{Op: OpLID, A: d.Idx, Imm: d64})
	case QGroupID:
		fc.add(Inst{Op: OpGRP, A: d.Idx, Imm: d64})
	case QGlobalSize:
		fc.add(Inst{Op: OpGSZ, A: d.Idx, Imm: d64})
	case QLocalSize:
		fc.add(Inst{Op: OpLSZ, A: d.Idx, Imm: d64})
	case QNumGroups:
		fc.add(Inst{Op: OpNGRP, A: d.Idx, Imm: d64})
	case QWorkDim:
		fc.add(Inst{Op: OpConstI, A: d.Idx, Imm: 3})
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
			if d.Bank != BankFlt {
				// An integer-typed consumer of the boxed float sees zero.
				fc.add(Inst{Op: OpZeroI, A: d.Idx})
				return
			}
			a, okA := fc.vecRef(in.Args[0], BankVecF)
			if !okA {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Args[0].Type()), 1)
				return
			}
			if in.Func == "length" {
				fc.add(Inst{Op: OpLenVF, Kind: uint8(vt.Elem.Kind), A: d.Idx, B: a.Idx})
				return
			}
			b, okB := fc.vecRef(in.Args[1], BankVecF)
			if !okB {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Args[1].Type()), 1)
				return
			}
			fc.add(Inst{Op: OpDotVF, Kind: uint8(vt.Elem.Kind), A: d.Idx, B: a.Idx, C: b.Idx})
			return
		}
		if d.Bank != BankFlt {
			fc.add(Inst{Op: OpZeroI, A: d.Idx})
			return
		}
		a := fc.scalarRef(in.Args[0], BankFlt)
		if in.Func == "length" {
			fc.add(Inst{Op: OpLenSS, A: d.Idx, B: a.Idx})
			return
		}
		b := fc.scalarRef(in.Args[1], BankFlt)
		fc.add(Inst{Op: OpDotSS, A: d.Idx, B: a.Idx, C: b.Idx})
		return
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			refs := make([]Ref, len(in.Args))
			for i, a := range in.Args {
				refs[i] = fc.scalarRef(a, BankFlt)
			}
			ax := fc.auxAdd(Aux{Name: in.Func, Refs: refs})
			fc.add(Inst{Op: OpMathF, Kind: uint8(tt.Kind), A: d.Idx, Imm: ax})
			return
		}
		refs := make([]Ref, len(in.Args))
		for i, a := range in.Args {
			refs[i] = fc.scalarRef(a, BankInt)
		}
		ax := fc.auxAdd(Aux{Name: in.Func, Refs: refs})
		fc.add(Inst{Op: OpMathI, Kind: uint8(tt.Kind), A: d.Idx, Imm: ax})
	case *clc.VectorType:
		vb := BankVecI
		op := OpVMathI
		if tt.Elem.Kind.IsFloat() {
			vb, op = BankVecF, OpVMathF
		}
		if d.Bank != vb {
			fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
			return
		}
		refs := make([]Ref, len(in.Args))
		for i, a := range in.Args {
			r, okR := fc.vecRef(a, vb)
			if !okR {
				fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
				return
			}
			refs[i] = r
		}
		ax := fc.auxAdd(Aux{Name: in.Func, Refs: refs})
		fc.add(Inst{Op: op, Kind: uint8(tt.Elem.Kind), A: d.Idx, Imm: ax})
	default:
		fc.trap(fmt.Sprintf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ), 1)
	}
}

func (fc *fnCompiler) emitCall(in *ir.Instr) {
	callee := fc.m.funcs[in.Callee]
	if callee == nil {
		fc.trap("vm: call to unknown function", 1)
		return
	}
	if len(in.Args) != len(callee.Fn.Params) {
		fc.trap(fmt.Sprintf("vm: call to %s with %d args, want %d",
			callee.Fn.Name, len(in.Args), len(callee.Fn.Params)), 1)
		return
	}
	refs := make([]Ref, len(in.Args))
	for i, a := range in.Args {
		switch callee.Params[i].Bank {
		case BankInt:
			refs[i] = fc.scalarRef(a, BankInt)
		case BankFlt:
			refs[i] = fc.scalarRef(a, BankFlt)
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
	i := Inst{Op: OpCall, A: -1, Imm: fc.auxAdd(Aux{Callee: callee, Refs: refs})}
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
