package jit

import (
	"fmt"

	"grover/internal/bcode"
	"grover/internal/clc"
	"grover/internal/ir"
)

// arenaExpr is the arena-selection expression for a memory
// instruction. When the access's IR pointer type pins the address
// space statically (the usual case — sema tracks spaces through index
// and convert chains, and the verifier enforces pointer chain shape),
// the arena is named directly, skipping the runtime tag switch and
// letting the compiler see a loop-invariant slice for bounds-check
// elimination. The mapping mirrors vm.MakeAddr (constant shares the
// global arena). Falls back to the runtime decode when the IR operand
// is unavailable.
func arenaExpr(in *bcode.Inst) string {
	if sp, ok := memSpace(in); ok {
		switch sp {
		case clc.ASGlobal, clc.ASConstant:
			return "e.gmem"
		case clc.ASLocal:
			return "e.lmem"
		case clc.ASPrivate:
			return "e.pmem"
		}
	}
	return "e.arena(ta >> 62)"
}

// fusedMem reports whether the opcode is a fused GEP+access
// superinstruction (base register + index register × element size).
func fusedMem(op bcode.Opcode) bool {
	switch op {
	case bcode.OpLdXI8, bcode.OpLdXU8, bcode.OpLdXI16, bcode.OpLdXU16,
		bcode.OpLdXI32, bcode.OpLdXU32, bcode.OpLdXI64, bcode.OpLdXF32, bcode.OpLdXF64,
		bcode.OpStXI8, bcode.OpStXI16, bcode.OpStXI32, bcode.OpStXI64,
		bcode.OpStXF32, bcode.OpStXF64,
		bcode.OpLdXVI, bcode.OpLdXVF, bcode.OpStXVI, bcode.OpStXVF:
		return true
	}
	return false
}

// memCheck emits the scalar-access prologue: address, tag decode, and the
// combined bounds check with the interpreter's diagnostics on failure.
// Leaves ab/tb bound for the access expression.
func (fe *fnEmit) memCheck(in *bcode.Inst, sz int, store bool) {
	if fusedMem(in.Op) {
		fe.wl("ta = uint64(r%d + r%d*%d)", in.B, in.C, in.Imm)
	} else {
		fe.wl("ta = uint64(r%d)", in.B)
	}
	fe.wl("tb = ta & addrMask")
	fe.wl("ab = %s", arenaExpr(in))
	fe.wl("if int(tb)+%d > len(ab) {", sz)
	fe.wl("%s", fe.errRet(fmt.Sprintf("e.memErr(ta, %d, %v)", sz, store)))
	fe.wl("}")
}

// vecCheck is memCheck for a whole contiguous vector access; the error
// path re-scans per element for wgvec's exact first-failure diagnostic.
func (fe *fnEmit) vecCheck(in *bcode.Inst, es, lanes int, store bool) {
	if fusedMem(in.Op) {
		fe.wl("ta = uint64(r%d + r%d*%d)", in.B, in.C, in.Imm)
	} else {
		fe.wl("ta = uint64(r%d)", in.B)
	}
	fe.wl("tb = ta & addrMask")
	fe.wl("ab = %s", arenaExpr(in))
	fe.wl("if int(tb)+%d > len(ab) {", lanes*es)
	fe.wl("%s", fe.errRet(fmt.Sprintf("e.vecErr(ta, %d, %d, %v)", es, lanes, store)))
	fe.wl("}")
}

func elemOff(i, es int) string {
	if i == 0 {
		return "tb"
	}
	return fmt.Sprintf("tb+%d", i*es)
}

// emitInst lowers one bytecode instruction to Go statements with the
// per-lane interpreter's exact value semantics and error strings.
func (fe *fnEmit) emitInst(pc int, in *bcode.Inst) {
	bf := fe.bf
	A, B, C := in.A, in.B, in.C
	k := clc.ScalarKind(in.Kind)
	if s := fe.promAt[pc]; s != nil {
		fe.emitPromAccess(in, s)
		return
	}
	switch in.Op {
	case bcode.OpNop:

	case bcode.OpJmp:
		if int(in.Imm) != pc+1 {
			fe.wl("goto L%d", in.Imm)
		}
	case bcode.OpCondBrI, bcode.OpCondBrF:
		cond := fmt.Sprintf("r%d != 0", A)
		if in.Op == bcode.OpCondBrF {
			cond = fmt.Sprintf("f%d != 0", A)
		}
		t, f := int(in.Imm), int(in.N)
		switch {
		case f == pc+1:
			fe.wl("if %s {", cond)
			fe.wl("goto L%d", t)
			fe.wl("}")
		case t == pc+1:
			fe.wl("if !(%s) {", cond)
			fe.wl("goto L%d", f)
			fe.wl("}")
		default:
			fe.wl("if %s {", cond)
			fe.wl("goto L%d", t)
			fe.wl("}")
			fe.wl("goto L%d", f)
		}

	case bcode.OpRet, bcode.OpRetI, bcode.OpRetF, bcode.OpRetVI, bcode.OpRetVF:
		if fe.kernel {
			fe.emitPmWriteback()
			fe.wl("return 0, nil")
			return
		}
		switch in.Op {
		case bcode.OpRetI:
			fe.wl("return r%d, 0, nil, nil, nil", B)
		case bcode.OpRetF:
			fe.wl("return 0, f%d, nil, nil, nil", B)
		case bcode.OpRetVI:
			fe.wl("return 0, 0, v%d[:], nil, nil", B)
		case bcode.OpRetVF:
			fe.wl("return 0, 0, nil, w%d[:], nil", B)
		default:
			fe.wl("return 0, 0, nil, nil, nil")
		}

	case bcode.OpBarrier:
		if !fe.kernel {
			fe.wl("%s", fe.errRet("errBarrierCall"))
			return
		}
		site := fe.barSite[pc]
		if !fe.dry {
			fe.emitSpill(fe.barLive[site], false)
		}
		fe.wl("return %d, nil", site)
		fe.wl("B%d:", site)

	case bcode.OpTrap:
		fe.wl("%s", fe.errRet(fmt.Sprintf("errors.New(%q)", bf.Aux[in.Imm].Name)))

	case bcode.OpCall:
		fe.emitCall(in)

	case bcode.OpConstI:
		fe.wl("r%d = %d", A, in.Imm)
	case bcode.OpZeroI:
		fe.wl("r%d = 0", A)
	case bcode.OpZeroF:
		fe.wl("f%d = 0", A)
	case bcode.OpMovI:
		fe.wl("r%d = r%d", A, B)
	case bcode.OpMovF:
		fe.wl("f%d = f%d", A, B)

	case bcode.OpGID:
		fe.wl("r%d = e.gid[%d]", A, in.Imm)
	case bcode.OpLID:
		fe.wl("r%d = e.lid[%d]", A, in.Imm)
	case bcode.OpGRP:
		fe.wl("r%d = e.grp[%d]", A, in.Imm)
	case bcode.OpGSZ:
		fe.wl("r%d = e.gsz[%d]", A, in.Imm)
	case bcode.OpLSZ:
		fe.wl("r%d = e.lsz[%d]", A, in.Imm)
	case bcode.OpNGRP:
		fe.wl("r%d = e.ngrp[%d]", A, in.Imm)

	case bcode.OpWIQ:
		// Runtime dimension: out-of-range dims answer 0. ta snapshots the
		// dim register before the destination (possibly the same register)
		// is written.
		fe.wl("ta = uint64(r%d)", B)
		fe.wl("r%d = 0", A)
		var field string
		switch in.N {
		case bcode.QGlobalID:
			field = "e.gid[ta]"
		case bcode.QLocalID:
			field = "e.lid[ta]"
		case bcode.QGroupID:
			field = "e.grp[ta]"
		case bcode.QGlobalSize:
			field = "e.gsz[ta]"
		case bcode.QLocalSize:
			field = "e.lsz[ta]"
		case bcode.QNumGroups:
			field = "e.ngrp[ta]"
		case bcode.QWorkDim:
			field = "3"
		}
		if field != "" {
			fe.wl("if ta < 3 {")
			fe.wl("r%d = %s", A, field)
			fe.wl("}")
		}

	case bcode.OpAllocaP:
		// Private tag is 0, so the tagged address is the frame offset.
		if fe.kernel {
			fe.wl("r%d = %d", A, in.Imm)
		} else {
			fe.wl("r%d = int64(fb) + %d", A, in.Imm)
		}
	case bcode.OpAllocaL:
		fe.wl("r%d = %d", A, in.Imm)
	case bcode.OpIndex:
		fe.wl("r%d = r%d + r%d*%d", A, B, C, in.Imm)
	case bcode.OpIndexC:
		fe.wl("r%d = r%d + %d", A, B, in.Imm)

	case bcode.OpLdI8, bcode.OpLdXI8:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(int8(ab[tb]))", A)
	case bcode.OpLdU8, bcode.OpLdXU8:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(ab[tb])", A)
	case bcode.OpLdI16, bcode.OpLdXI16:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(int16(binary.LittleEndian.Uint16(ab[tb:])))", A)
	case bcode.OpLdU16, bcode.OpLdXU16:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(binary.LittleEndian.Uint16(ab[tb:]))", A)
	case bcode.OpLdI32, bcode.OpLdXI32:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(int32(binary.LittleEndian.Uint32(ab[tb:])))", A)
	case bcode.OpLdU32, bcode.OpLdXU32:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(binary.LittleEndian.Uint32(ab[tb:]))", A)
	case bcode.OpLdI64, bcode.OpLdXI64:
		fe.memCheck(in, int(in.N), false)
		fe.wl("r%d = int64(binary.LittleEndian.Uint64(ab[tb:]))", A)
	case bcode.OpLdF32, bcode.OpLdXF32:
		fe.memCheck(in, int(in.N), false)
		fe.wl("f%d = float64(math.Float32frombits(binary.LittleEndian.Uint32(ab[tb:])))", A)
	case bcode.OpLdF64, bcode.OpLdXF64:
		fe.memCheck(in, int(in.N), false)
		fe.wl("f%d = math.Float64frombits(binary.LittleEndian.Uint64(ab[tb:]))", A)

	case bcode.OpStI8, bcode.OpStXI8:
		fe.memCheck(in, int(in.N), true)
		fe.wl("ab[tb] = byte(r%d)", A)
	case bcode.OpStI16, bcode.OpStXI16:
		fe.memCheck(in, int(in.N), true)
		fe.wl("binary.LittleEndian.PutUint16(ab[tb:], uint16(r%d))", A)
	case bcode.OpStI32, bcode.OpStXI32:
		fe.memCheck(in, int(in.N), true)
		fe.wl("binary.LittleEndian.PutUint32(ab[tb:], uint32(r%d))", A)
	case bcode.OpStI64, bcode.OpStXI64:
		fe.memCheck(in, int(in.N), true)
		fe.wl("binary.LittleEndian.PutUint64(ab[tb:], uint64(r%d))", A)
	case bcode.OpStF32, bcode.OpStXF32:
		fe.memCheck(in, int(in.N), true)
		fe.wl("binary.LittleEndian.PutUint32(ab[tb:], math.Float32bits(float32(f%d)))", A)
	case bcode.OpStF64, bcode.OpStXF64:
		fe.memCheck(in, int(in.N), true)
		fe.wl("binary.LittleEndian.PutUint64(ab[tb:], math.Float64bits(f%d))", A)

	case bcode.OpLdVI, bcode.OpLdXVI:
		es, lanes := k.Size(), int(in.Sub)
		fe.vecCheck(in, es, lanes, false)
		for i := 0; i < lanes; i++ {
			fe.wl("v%d[%d] = %s", A, i, ldIntE(k, elemOff(i, es)))
		}
	case bcode.OpLdVF, bcode.OpLdXVF:
		es, lanes := k.Size(), int(in.Sub)
		fe.vecCheck(in, es, lanes, false)
		for i := 0; i < lanes; i++ {
			fe.wl("w%d[%d] = %s", A, i, ldFltE(k, elemOff(i, es)))
		}
	case bcode.OpStVI, bcode.OpStXVI:
		es, lanes := k.Size(), int(in.Sub)
		fe.vecCheck(in, es, lanes, true)
		for i := 0; i < lanes; i++ {
			fe.wl("%s", stIntS(k, elemOff(i, es), fmt.Sprintf("v%d[%d]", A, i)))
		}
	case bcode.OpStVF, bcode.OpStXVF:
		es, lanes := k.Size(), int(in.Sub)
		fe.vecCheck(in, es, lanes, true)
		for i := 0; i < lanes; i++ {
			fe.wl("%s", stFltS(k, elemOff(i, es), fmt.Sprintf("w%d[%d]", A, i)))
		}

	case bcode.OpAddI:
		fe.wl("r%d = r%d + r%d", A, B, C)
	case bcode.OpSubI:
		fe.wl("r%d = r%d - r%d", A, B, C)
	case bcode.OpMulI:
		fe.wl("r%d = r%d * r%d", A, B, C)
	case bcode.OpAndI:
		fe.wl("r%d = r%d & r%d", A, B, C)
	case bcode.OpOrI:
		fe.wl("r%d = r%d | r%d", A, B, C)
	case bcode.OpXorI:
		fe.wl("r%d = r%d ^ r%d", A, B, C)
	case bcode.OpAddI32:
		fe.wl("r%d = int64(int32(r%d + r%d))", A, B, C)
	case bcode.OpSubI32:
		fe.wl("r%d = int64(int32(r%d - r%d))", A, B, C)
	case bcode.OpMulI32:
		fe.wl("r%d = int64(int32(r%d * r%d))", A, B, C)
	case bcode.OpAddU32:
		fe.wl("r%d = int64(uint32(r%d + r%d))", A, B, C)
	case bcode.OpSubU32:
		fe.wl("r%d = int64(uint32(r%d - r%d))", A, B, C)
	case bcode.OpMulU32:
		fe.wl("r%d = int64(uint32(r%d * r%d))", A, B, C)

	case bcode.OpIntBin:
		fe.emitIntBin(fmt.Sprintf("r%d", A), fmt.Sprintf("r%d", B), fmt.Sprintf("r%d", C),
			ir.Op(in.Sub), k)

	case bcode.OpAddF:
		fe.wl("f%d = f%d + f%d", A, B, C)
	case bcode.OpSubF:
		fe.wl("f%d = f%d - f%d", A, B, C)
	case bcode.OpMulF:
		fe.wl("f%d = f%d * f%d", A, B, C)
	case bcode.OpDivF:
		fe.wl("f%d = f%d / f%d", A, B, C)
	case bcode.OpAddF32:
		fe.wl("f%d = float64(float32(f%d + f%d))", A, B, C)
	case bcode.OpSubF32:
		fe.wl("f%d = float64(float32(f%d - f%d))", A, B, C)
	case bcode.OpMulF32:
		fe.wl("f%d = float64(float32(f%d * f%d))", A, B, C)
	case bcode.OpDivF32:
		fe.wl("f%d = float64(float32(f%d / f%d))", A, B, C)

	case bcode.OpFltBin:
		fe.wl("f%d = %s", A, fltBinE(ir.Op(in.Sub), k,
			fmt.Sprintf("f%d", B), fmt.Sprintf("f%d", C)))

	case bcode.OpNegF:
		fe.wl("f%d = -f%d", A, B)
	case bcode.OpNegI:
		fe.wl("r%d = %s", A, normE(k, fmt.Sprintf("-r%d", B)))
	case bcode.OpNotI:
		fe.wl("r%d = %s", A, normE(k, fmt.Sprintf("^r%d", B)))

	case bcode.OpVNegF:
		for i := 0; i < bf.VecFLens[A]; i++ {
			fe.wl("w%d[%d] = -w%d[%d]", A, i, B, i)
		}
	case bcode.OpVNegI:
		for i := 0; i < bf.VecILens[A]; i++ {
			fe.wl("v%d[%d] = %s", A, i, normE(k, fmt.Sprintf("-v%d[%d]", B, i)))
		}
	case bcode.OpVNotI:
		for i := 0; i < bf.VecILens[A]; i++ {
			fe.wl("v%d[%d] = %s", A, i, normE(k, fmt.Sprintf("^v%d[%d]", B, i)))
		}

	case bcode.OpEqI:
		fe.wl("r%d = b2i(r%d == r%d)", A, B, C)
	case bcode.OpNeI:
		fe.wl("r%d = b2i(r%d != r%d)", A, B, C)
	case bcode.OpLtI:
		fe.wl("r%d = b2i(r%d < r%d)", A, B, C)
	case bcode.OpLeI:
		fe.wl("r%d = b2i(r%d <= r%d)", A, B, C)
	case bcode.OpGtI:
		fe.wl("r%d = b2i(r%d > r%d)", A, B, C)
	case bcode.OpGeI:
		fe.wl("r%d = b2i(r%d >= r%d)", A, B, C)
	case bcode.OpLtU:
		fe.wl("r%d = b2i(uint64(r%d) < uint64(r%d))", A, B, C)
	case bcode.OpLeU:
		fe.wl("r%d = b2i(uint64(r%d) <= uint64(r%d))", A, B, C)
	case bcode.OpGtU:
		fe.wl("r%d = b2i(uint64(r%d) > uint64(r%d))", A, B, C)
	case bcode.OpGeU:
		fe.wl("r%d = b2i(uint64(r%d) >= uint64(r%d))", A, B, C)
	case bcode.OpEqF:
		fe.wl("r%d = b2i(f%d == f%d)", A, B, C)
	case bcode.OpNeF:
		fe.wl("r%d = b2i(f%d != f%d)", A, B, C)
	case bcode.OpLtF:
		fe.wl("r%d = b2i(f%d < f%d)", A, B, C)
	case bcode.OpLeF:
		fe.wl("r%d = b2i(f%d <= f%d)", A, B, C)
	case bcode.OpGtF:
		fe.wl("r%d = b2i(f%d > f%d)", A, B, C)
	case bcode.OpGeF:
		fe.wl("r%d = b2i(f%d >= f%d)", A, B, C)

	case bcode.OpConvI:
		fe.wl("r%d = %s", A, normE(k, fmt.Sprintf("r%d", B)))
	case bcode.OpI2F:
		fe.wl("f%d = %s", A, roundE(k, fmt.Sprintf("float64(r%d)", B)))
	case bcode.OpU2F:
		fe.wl("f%d = %s", A, roundE(k, fmt.Sprintf("float64(uint64(r%d))", B)))
	case bcode.OpF2I:
		fe.wl("if f%d != f%d {", B, B)
		fe.wl("r%d = 0", A)
		fe.wl("} else {")
		fe.wl("r%d = %s", A, normE(k, fmt.Sprintf("int64(f%d)", B)))
		fe.wl("}")
	case bcode.OpF2F32:
		fe.wl("f%d = float64(float32(f%d))", A, B)

	case bcode.OpVConv:
		fe.emitVConv(in)

	case bcode.OpVAddF, bcode.OpVSubF, bcode.OpVMulF, bcode.OpVDivF:
		op := map[bcode.Opcode]string{
			bcode.OpVAddF: "+", bcode.OpVSubF: "-", bcode.OpVMulF: "*", bcode.OpVDivF: "/",
		}[in.Op]
		for i := 0; i < bf.VecFLens[A]; i++ {
			fe.wl("w%d[%d] = %s", A, i,
				roundE(k, fmt.Sprintf("w%d[%d] %s w%d[%d]", B, i, op, C, i)))
		}
	case bcode.OpVBinF:
		for i := 0; i < bf.VecFLens[A]; i++ {
			fe.wl("w%d[%d] = %s", A, i, fltBinE(ir.Op(in.Sub), k,
				fmt.Sprintf("w%d[%d]", B, i), fmt.Sprintf("w%d[%d]", C, i)))
		}
	case bcode.OpVBinI:
		for i := 0; i < bf.VecILens[A]; i++ {
			fe.emitIntBin(fmt.Sprintf("v%d[%d]", A, i), fmt.Sprintf("v%d[%d]", B, i),
				fmt.Sprintf("v%d[%d]", C, i), ir.Op(in.Sub), k)
		}

	case bcode.OpExtI:
		fe.wl("r%d = v%d[%d]", A, B, in.Imm)
	case bcode.OpExtF:
		fe.wl("f%d = w%d[%d]", A, B, in.Imm)
	case bcode.OpInsI:
		if A != B {
			m := min(bf.VecILens[A], bf.VecILens[B])
			for i := 0; i < m; i++ {
				fe.wl("v%d[%d] = v%d[%d]", A, i, B, i)
			}
		}
		fe.wl("v%d[%d] = r%d", A, in.Imm, C)
	case bcode.OpInsF:
		if A != B {
			m := min(bf.VecFLens[A], bf.VecFLens[B])
			for i := 0; i < m; i++ {
				fe.wl("w%d[%d] = w%d[%d]", A, i, B, i)
			}
		}
		fe.wl("w%d[%d] = f%d", A, in.Imm, C)
	case bcode.OpShufI:
		// Sequential ascending assignments replicate wgvec's behaviour when
		// destination and source alias.
		for i, c := range bf.Aux[in.Imm].Comps {
			fe.wl("v%d[%d] = v%d[%d]", A, i, B, c)
		}
	case bcode.OpShufF:
		for i, c := range bf.Aux[in.Imm].Comps {
			fe.wl("w%d[%d] = w%d[%d]", A, i, B, c)
		}
	case bcode.OpBuildI:
		for i, r := range bf.Aux[in.Imm].Refs {
			fe.wl("v%d[%d] = r%d", A, i, r.Idx)
		}
	case bcode.OpBuildF:
		for i, r := range bf.Aux[in.Imm].Refs {
			fe.wl("w%d[%d] = f%d", A, i, r.Idx)
		}

	case bcode.OpDotVF:
		fe.wl("ts = 0")
		for i := 0; i < bf.VecFLens[B]; i++ {
			fe.wl("ts += w%d[%d] * w%d[%d]", B, i, C, i)
		}
		fe.wl("f%d = %s", A, roundE(k, "ts"))
	case bcode.OpDotSS:
		fe.wl("f%d = f%d * f%d", A, B, C)
	case bcode.OpLenVF:
		fe.wl("ts = 0")
		for i := 0; i < bf.VecFLens[B]; i++ {
			fe.wl("ts += w%d[%d] * w%d[%d]", B, i, B, i)
		}
		fe.wl("f%d = %s", A, roundE(k, "math.Sqrt(ts)"))
	case bcode.OpLenSS:
		fe.wl("f%d = math.Abs(f%d)", A, B)

	case bcode.OpMathF:
		ax := &bf.Aux[in.Imm]
		args := make([]string, len(ax.Refs))
		for i, r := range ax.Refs {
			args[i] = fmt.Sprintf("f%d", r.Idx)
		}
		expr, ok := mathFExpr(ax.Name, args)
		if !ok {
			fe.wl("%s", fe.errRet(fmt.Sprintf("errors.New(%q)",
				fmt.Sprintf("vm: unimplemented float builtin %q", ax.Name))))
			return
		}
		fe.wl("f%d = %s", A, roundE(k, expr))
	case bcode.OpMathI:
		ax := &bf.Aux[in.Imm]
		args := make([]string, len(ax.Refs))
		for i, r := range ax.Refs {
			args[i] = fmt.Sprintf("r%d", r.Idx)
		}
		fe.emitMathI(fmt.Sprintf("r%d", A), ax.Name, k, args)
	case bcode.OpVMathF:
		ax := &bf.Aux[in.Imm]
		args := make([]string, len(ax.Refs))
		for j := 0; j < bf.VecFLens[A]; j++ {
			for i, r := range ax.Refs {
				args[i] = fmt.Sprintf("w%d[%d]", r.Idx, j)
			}
			expr, ok := mathFExpr(ax.Name, args)
			if !ok {
				fe.wl("%s", fe.errRet(fmt.Sprintf("errors.New(%q)",
					fmt.Sprintf("vm: unimplemented float builtin %q", ax.Name))))
				return
			}
			fe.wl("w%d[%d] = %s", A, j, roundE(k, expr))
		}
	case bcode.OpVMathI:
		ax := &bf.Aux[in.Imm]
		args := make([]string, len(ax.Refs))
		for j := 0; j < bf.VecILens[A]; j++ {
			for i, r := range ax.Refs {
				args[i] = fmt.Sprintf("v%d[%d]", r.Idx, j)
			}
			fe.emitMathI(fmt.Sprintf("v%d[%d]", A, j), ax.Name, k, args)
		}

	default:
		// supported() whitelists opcodes before emission; an unhandled one
		// here is a generator bug worth failing loudly on at build time.
		fe.wl("UNHANDLED_OPCODE_%d", in.Op)
	}
}

// emitIntBin emits one vm.intBin evaluation: dst = op(x, y) with C
// wrapping semantics, division guards, and width-masked shifts.
func (fe *fnEmit) emitIntBin(dst, x, y string, op ir.Op, k clc.ScalarKind) {
	uns := k.IsUnsigned()
	w := widthOf(k)
	switch op {
	case ir.OpAdd:
		fe.wl("%s = %s", dst, normE(k, x+" + "+y))
	case ir.OpSub:
		fe.wl("%s = %s", dst, normE(k, x+" - "+y))
	case ir.OpMul:
		fe.wl("%s = %s", dst, normE(k, x+" * "+y))
	case ir.OpAnd:
		fe.wl("%s = %s", dst, normE(k, x+" & "+y))
	case ir.OpOr:
		fe.wl("%s = %s", dst, normE(k, x+" | "+y))
	case ir.OpXor:
		fe.wl("%s = %s", dst, normE(k, x+" ^ "+y))
	case ir.OpDiv:
		fe.wl("if %s == 0 {", y)
		fe.wl("%s", fe.errRet("errDivZero"))
		fe.wl("}")
		if uns {
			fe.wl("%s = %s", dst, normE(k, fmt.Sprintf("int64(uint64(%s) / uint64(%s))", x, y)))
		} else {
			fe.wl("%s = %s", dst, normE(k, x+" / "+y))
		}
	case ir.OpRem:
		fe.wl("if %s == 0 {", y)
		fe.wl("%s", fe.errRet("errRemZero"))
		fe.wl("}")
		if uns {
			fe.wl("%s = %s", dst, normE(k, fmt.Sprintf("int64(uint64(%s) %% uint64(%s))", x, y)))
		} else {
			fe.wl("%s = %s", dst, normE(k, x+" % "+y))
		}
	case ir.OpShl:
		fe.wl("%s = %s", dst, normE(k, fmt.Sprintf("%s << (uint64(%s) & %d)", x, y, w-1)))
	case ir.OpShr:
		if uns {
			mask := "^uint64(0)"
			if w < 64 {
				mask = fmt.Sprintf("uint64(0x%x)", (uint64(1)<<w)-1)
			}
			fe.wl("%s = %s", dst, normE(k,
				fmt.Sprintf("int64((uint64(%s) & %s) >> (uint64(%s) & %d))", x, mask, y, w-1)))
		} else {
			fe.wl("%s = %s", dst, normE(k, fmt.Sprintf("%s >> (uint64(%s) & %d)", x, y, w-1)))
		}
	}
}

// fltBinE is vm.floatBin's expression: the raw op rounded to float32
// when the kind is KFloat.
func fltBinE(op ir.Op, k clc.ScalarKind, x, y string) string {
	var expr string
	switch op {
	case ir.OpAdd:
		expr = x + " + " + y
	case ir.OpSub:
		expr = x + " - " + y
	case ir.OpMul:
		expr = x + " * " + y
	case ir.OpDiv:
		expr = x + " / " + y
	default: // ir.OpRem (supported() admits nothing else)
		expr = fmt.Sprintf("math.Mod(%s, %s)", x, y)
	}
	return roundE(k, expr)
}

// emitMathI emits one vm.scalarMathI evaluation with the kind's
// signedness driving min/max/clamp comparisons.
func (fe *fnEmit) emitMathI(dst, name string, k clc.ScalarKind, a []string) {
	uns := k.IsUnsigned()
	mn, mx := "minS", "maxS"
	if uns {
		mn, mx = "minU", "maxU"
	}
	arg := func(i int) string {
		if i < len(a) {
			return a[i]
		}
		return "0"
	}
	switch name {
	case "min":
		fe.wl("%s = %s(%s, %s)", dst, mn, arg(0), arg(1))
	case "max":
		fe.wl("%s = %s(%s, %s)", dst, mx, arg(0), arg(1))
	case "abs":
		if uns {
			fe.wl("%s = %s", dst, arg(0))
		} else {
			fe.wl("if %s < 0 {", arg(0))
			fe.wl("%s = %s", dst, normE(k, "-"+arg(0)))
			fe.wl("} else {")
			fe.wl("%s = %s", dst, arg(0))
			fe.wl("}")
		}
	case "clamp":
		fe.wl("%s = %s(%s(%s, %s), %s)", dst, mn, mx, arg(0), arg(1), arg(2))
	case "mad":
		fe.wl("%s = %s", dst, normE(k, fmt.Sprintf("%s*%s + %s", arg(0), arg(1), arg(2))))
	default:
		fe.wl("%s", fe.errRet(fmt.Sprintf("errors.New(%q)",
			fmt.Sprintf("vm: unimplemented integer builtin %q", name))))
	}
}

// emitVConv emits a lane-wise vector conversion (vm.convertScalar per
// element; source and destination lane counts match by construction).
func (fe *fnEmit) emitVConv(in *bcode.Inst) {
	from := clc.ScalarKind(in.Sub)
	to := clc.ScalarKind(in.Kind)
	A, B := in.A, in.B
	switch {
	case from.IsFloat() && to.IsFloat():
		for i := 0; i < fe.bf.VecFLens[A]; i++ {
			fe.wl("w%d[%d] = %s", A, i, roundE(to, fmt.Sprintf("w%d[%d]", B, i)))
		}
	case from.IsFloat():
		for i := 0; i < fe.bf.VecILens[A]; i++ {
			fe.wl("if w%d[%d] != w%d[%d] {", B, i, B, i)
			fe.wl("v%d[%d] = 0", A, i)
			fe.wl("} else {")
			fe.wl("v%d[%d] = %s", A, i, normE(to, fmt.Sprintf("int64(w%d[%d])", B, i)))
			fe.wl("}")
		}
	case to.IsFloat():
		src := "float64(v%d[%d])"
		if from.IsUnsigned() {
			src = "float64(uint64(v%d[%d]))"
		}
		for i := 0; i < fe.bf.VecFLens[A]; i++ {
			fe.wl("w%d[%d] = %s", A, i, roundE(to, fmt.Sprintf(src, B, i)))
		}
	default:
		for i := 0; i < fe.bf.VecILens[A]; i++ {
			fe.wl("v%d[%d] = %s", A, i, normE(to, fmt.Sprintf("v%d[%d]", B, i)))
		}
	}
}

// emitCall emits a user-function call with wgvec's exact frame, stash,
// and return-merge semantics: scalar destinations zero on a stash-tag
// mismatch, vector destinations stay untouched.
func (fe *fnEmit) emitCall(in *bcode.Inst) {
	bf := fe.bf
	ax := &bf.Aux[in.Imm]
	callee := ax.Callee
	id := fe.g.fnRef(callee)
	spExpr := fmt.Sprintf("%d", bf.FrameSize)
	if !fe.kernel {
		spExpr = fmt.Sprintf("fb + %d", bf.FrameSize)
	}
	fe.wl("{")
	fe.wl("if %s+%d > len(e.pmem) {", spExpr, callee.FrameSize)
	fe.wl("%s", fe.errRet(fmt.Sprintf("errors.New(%q)",
		fmt.Sprintf("vm: private stack overflow calling %s", callee.Fn.Name))))
	fe.wl("}")
	args := make([]string, len(ax.Refs))
	for i, r := range ax.Refs {
		p := callee.Params[i]
		switch p.Bank {
		case bcode.BankInt:
			args[i] = fmt.Sprintf("r%d", r.Idx)
		case bcode.BankFlt:
			args[i] = fmt.Sprintf("f%d", r.Idx)
		case bcode.BankVecI:
			ld, ls := callee.VecILens[p.Idx], bf.VecILens[r.Idx]
			if ld == ls {
				args[i] = fmt.Sprintf("v%d", r.Idx)
				continue
			}
			fe.wl("var ca%d [%d]int64", i, ld)
			for j := 0; j < min(ld, ls); j++ {
				fe.wl("ca%d[%d] = v%d[%d]", i, j, r.Idx, j)
			}
			args[i] = fmt.Sprintf("ca%d", i)
		case bcode.BankVecF:
			ld, ls := callee.VecFLens[p.Idx], bf.VecFLens[r.Idx]
			if ld == ls {
				args[i] = fmt.Sprintf("w%d", r.Idx)
				continue
			}
			fe.wl("var ca%d [%d]float64", i, ld)
			for j := 0; j < min(ld, ls); j++ {
				fe.wl("ca%d[%d] = w%d[%d]", i, j, r.Idx, j)
			}
			args[i] = fmt.Sprintf("ca%d", i)
		}
	}
	call := fmt.Sprintf("fn%d(e, %s", id, spExpr)
	for _, a := range args {
		call += ", " + a
	}
	call += ")"
	fe.wl("ci, cf, cvi, cvf, cerr := %s", call)
	fe.wl("_, _, _, _ = ci, cf, cvi, cvf")
	fe.wl("if cerr != nil {")
	fe.wl("%s", fe.errRet("cerr"))
	fe.wl("}")
	if in.A >= 0 {
		switch bcode.Bank(in.Sub) {
		case bcode.BankInt:
			fe.wl("r%d = ci", in.A)
		case bcode.BankFlt:
			fe.wl("f%d = cf", in.A)
		case bcode.BankVecI:
			fe.wl("if cvi != nil {")
			fe.wl("copy(v%d[:], cvi)", in.A)
			fe.wl("}")
		case bcode.BankVecF:
			fe.wl("if cvf != nil {")
			fe.wl("copy(w%d[:], cvf)", in.A)
			fe.wl("}")
		}
	}
	fe.wl("}")
}
