package wgvec

import (
	"encoding/binary"
	"fmt"
	"math"

	"grover/internal/bcode"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

const kF32 = uint8(clc.KFloat)

// destBank maps an opcode to its scalar destination bank for the
// uniform execute-once path. Opcodes with vector destinations, memory
// effects, or control behavior are excluded (they either have dedicated
// uniform handling or always run the full mask).
func destBank(op bcode.Opcode) (bcode.Bank, bool) {
	switch op {
	case bcode.OpConstI, bcode.OpZeroI, bcode.OpMovI, bcode.OpGRP, bcode.OpGSZ,
		bcode.OpLSZ, bcode.OpNGRP, bcode.OpWIQ, bcode.OpAllocaP, bcode.OpAllocaL,
		bcode.OpIndex, bcode.OpIndexC,
		bcode.OpAddI, bcode.OpSubI, bcode.OpMulI, bcode.OpAndI, bcode.OpOrI, bcode.OpXorI,
		bcode.OpAddI32, bcode.OpSubI32, bcode.OpMulI32,
		bcode.OpAddU32, bcode.OpSubU32, bcode.OpMulU32,
		bcode.OpIntBin, bcode.OpNegI, bcode.OpNotI,
		bcode.OpEqI, bcode.OpNeI, bcode.OpLtI, bcode.OpLeI, bcode.OpGtI, bcode.OpGeI,
		bcode.OpLtU, bcode.OpLeU, bcode.OpGtU, bcode.OpGeU,
		bcode.OpEqF, bcode.OpNeF, bcode.OpLtF, bcode.OpLeF, bcode.OpGtF, bcode.OpGeF,
		bcode.OpConvI, bcode.OpF2I, bcode.OpExtI, bcode.OpMathI:
		return bcode.BankInt, true
	case bcode.OpZeroF, bcode.OpMovF,
		bcode.OpAddF, bcode.OpSubF, bcode.OpMulF, bcode.OpDivF,
		bcode.OpAddF32, bcode.OpSubF32, bcode.OpMulF32, bcode.OpDivF32,
		bcode.OpFltBin, bcode.OpNegF, bcode.OpI2F, bcode.OpU2F, bcode.OpF2F32,
		bcode.OpExtF, bcode.OpDotVF, bcode.OpDotSS, bcode.OpLenVF, bcode.OpLenSS,
		bcode.OpMathF:
		return bcode.BankFlt, true
	}
	return 0, false
}

// broadcast copies lane 0's value of a scalar register column to all n
// lanes after a uniform execute-once.
func (fr *colFrame) broadcast(bank bcode.Bank, reg int32, n int) {
	if bank == bcode.BankInt {
		col := fr.ri[reg]
		v := col[0]
		for i := 1; i < n; i++ {
			col[i] = v
		}
	} else {
		col := fr.rf[reg]
		v := col[0]
		for i := 1; i < n; i++ {
			col[i] = v
		}
	}
}

// execOp executes one non-control, non-memory instruction for every lane
// in the mask, sweeping the columnar register banks. Errors carry the
// lane they occurred at.
func (g *groupState) execOp(fr *colFrame, in *bcode.Inst, mask []int32, pc int32) error {
	ri, rf := fr.ri, fr.rf
	switch in.Op {
	case bcode.OpConstI:
		d, v := ri[in.A], in.Imm
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpZeroI:
		d := ri[in.A]
		for _, l := range mask {
			d[l] = 0
		}
	case bcode.OpZeroF:
		d := rf[in.A]
		for _, l := range mask {
			d[l] = 0
		}
	case bcode.OpMovI:
		d, s := ri[in.A], ri[in.B]
		for _, l := range mask {
			d[l] = s[l]
		}
	case bcode.OpMovF:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = s[l]
		}

	case bcode.OpGID:
		d, s := ri[in.A], g.gidCol[in.Imm]
		for _, l := range mask {
			d[l] = s[l]
		}
	case bcode.OpLID:
		d, s := ri[in.A], g.lidCol[in.Imm]
		for _, l := range mask {
			d[l] = s[l]
		}
	case bcode.OpGRP:
		d, v := ri[in.A], g.grp[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpGSZ:
		d, v := ri[in.A], g.gsz[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpLSZ:
		d, v := ri[in.A], g.lsz[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpNGRP:
		d, v := ri[in.A], g.ngrp[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpWIQ:
		d, dim := ri[in.A], ri[in.B]
		for _, l := range mask {
			d[l] = g.wiQueryLane(l, in.N, dim[l])
		}

	case bcode.OpAllocaP:
		// Private allocas resolve against the lane's own arena, so the
		// tagged address itself is uniform across the group.
		d, v := ri[in.A], int64(vm.MakeAddr(clc.ASPrivate, uint64(fr.frameBase)+uint64(in.Imm)))
		for _, l := range mask {
			d[l] = v
		}
	case bcode.OpAllocaL:
		d, v := ri[in.A], in.Imm
		for _, l := range mask {
			d[l] = v
		}

	case bcode.OpIndex:
		d, b, c, m := ri[in.A], ri[in.B], ri[in.C], in.Imm
		for _, l := range mask {
			d[l] = b[l] + c[l]*m
		}
	case bcode.OpIndexC:
		d, b, m := ri[in.A], ri[in.B], in.Imm
		for _, l := range mask {
			d[l] = b[l] + m
		}

	case bcode.OpAddI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] + y[l]
		}
	case bcode.OpSubI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] - y[l]
		}
	case bcode.OpMulI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] * y[l]
		}
	case bcode.OpAndI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] & y[l]
		}
	case bcode.OpOrI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] | y[l]
		}
	case bcode.OpXorI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] ^ y[l]
		}
	case bcode.OpAddI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] + y[l]))
		}
	case bcode.OpSubI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] - y[l]))
		}
	case bcode.OpMulI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] * y[l]))
		}
	case bcode.OpAddU32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(uint32(x[l] + y[l]))
		}
	case bcode.OpSubU32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(uint32(x[l] - y[l]))
		}
	case bcode.OpMulU32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(uint32(x[l] * y[l]))
		}
	case bcode.OpIntBin:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			v, err := vm.IntBin(op, k, x[l], y[l])
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}

	case bcode.OpAddF:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] + y[l]
		}
	case bcode.OpSubF:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] - y[l]
		}
	case bcode.OpMulF:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] * y[l]
		}
	case bcode.OpDivF:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] / y[l]
		}
	case bcode.OpAddF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] + y[l]))
		}
	case bcode.OpSubF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] - y[l]))
		}
	case bcode.OpMulF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] * y[l]))
		}
	case bcode.OpDivF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] / y[l]))
		}
	case bcode.OpFltBin:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			v, err := vm.FloatBin(op, k, x[l], y[l])
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}

	case bcode.OpNegF:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = -s[l]
		}
	case bcode.OpNegI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = vm.NormInt(-s[l], k)
		}
	case bcode.OpNotI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = vm.NormInt(^s[l], k)
		}
	case bcode.OpVNegF:
		ld := fr.bf.VecFLens[in.A]
		d, s := fr.vf[in.A], fr.vf[in.B]
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = -s[o+i]
			}
		}
	case bcode.OpVNegI:
		ld := fr.bf.VecILens[in.A]
		d, s := fr.vi[in.A], fr.vi[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = vm.NormInt(-s[o+i], k)
			}
		}
	case bcode.OpVNotI:
		ld := fr.bf.VecILens[in.A]
		d, s := fr.vi[in.A], fr.vi[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = vm.NormInt(^s[o+i], k)
			}
		}

	case bcode.OpEqI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] == y[l])
		}
	case bcode.OpNeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] != y[l])
		}
	case bcode.OpLtI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] < y[l])
		}
	case bcode.OpLeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] <= y[l])
		}
	case bcode.OpGtI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] > y[l])
		}
	case bcode.OpGeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] >= y[l])
		}
	case bcode.OpLtU:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(uint64(x[l]) < uint64(y[l]))
		}
	case bcode.OpLeU:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(uint64(x[l]) <= uint64(y[l]))
		}
	case bcode.OpGtU:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(uint64(x[l]) > uint64(y[l]))
		}
	case bcode.OpGeU:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(uint64(x[l]) >= uint64(y[l]))
		}
	case bcode.OpEqF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] == y[l])
		}
	case bcode.OpNeF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] != y[l])
		}
	case bcode.OpLtF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] < y[l])
		}
	case bcode.OpLeF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] <= y[l])
		}
	case bcode.OpGtF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] > y[l])
		}
	case bcode.OpGeF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] >= y[l])
		}

	case bcode.OpConvI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = vm.NormInt(s[l], k)
		}
	case bcode.OpI2F:
		d, s := rf[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = vm.Round32(k, float64(s[l]))
		}
	case bcode.OpU2F:
		d, s := rf[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = vm.Round32(k, float64(uint64(s[l])))
		}
	case bcode.OpF2I:
		d, s := ri[in.A], rf[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			f := s[l]
			if math.IsNaN(f) {
				d[l] = 0
			} else {
				d[l] = vm.NormInt(int64(f), k)
			}
		}
	case bcode.OpF2F32:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = float64(float32(s[l]))
		}
	case bcode.OpVConv:
		g.vconvCol(fr, in, mask)

	case bcode.OpVAddF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		if in.Kind == kF32 {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = float64(float32(x[o+i] + y[o+i]))
				}
			}
		} else {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = x[o+i] + y[o+i]
				}
			}
		}
	case bcode.OpVSubF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		if in.Kind == kF32 {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = float64(float32(x[o+i] - y[o+i]))
				}
			}
		} else {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = x[o+i] - y[o+i]
				}
			}
		}
	case bcode.OpVMulF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		if in.Kind == kF32 {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = float64(float32(x[o+i] * y[o+i]))
				}
			}
		} else {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = x[o+i] * y[o+i]
				}
			}
		}
	case bcode.OpVDivF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		if in.Kind == kF32 {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = float64(float32(x[o+i] / y[o+i]))
				}
			}
		} else {
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i] = x[o+i] / y[o+i]
				}
			}
		}
	case bcode.OpVBinF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				v, err := vm.FloatBin(op, k, x[o+i], y[o+i])
				if err != nil {
					return laneErr(l, err)
				}
				d[o+i] = v
			}
		}
	case bcode.OpVBinI:
		ld := fr.bf.VecILens[in.A]
		d, x, y := fr.vi[in.A], fr.vi[in.B], fr.vi[in.C]
		op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				v, err := vm.IntBin(op, k, x[o+i], y[o+i])
				if err != nil {
					return laneErr(l, err)
				}
				d[o+i] = v
			}
		}

	case bcode.OpExtI:
		ls := fr.bf.VecILens[in.B]
		d, s := ri[in.A], fr.vi[in.B]
		for _, l := range mask {
			d[l] = s[int(l)*ls+int(in.Imm)]
		}
	case bcode.OpExtF:
		ls := fr.bf.VecFLens[in.B]
		d, s := rf[in.A], fr.vf[in.B]
		for _, l := range mask {
			d[l] = s[int(l)*ls+int(in.Imm)]
		}
	case bcode.OpInsI:
		ld, ls := fr.bf.VecILens[in.A], fr.bf.VecILens[in.B]
		m := min(ld, ls)
		d, s, v := fr.vi[in.A], fr.vi[in.B], ri[in.C]
		for _, l := range mask {
			copy(d[int(l)*ld:int(l)*ld+m], s[int(l)*ls:int(l)*ls+m])
			d[int(l)*ld+int(in.Imm)] = v[l]
		}
	case bcode.OpInsF:
		ld, ls := fr.bf.VecFLens[in.A], fr.bf.VecFLens[in.B]
		m := min(ld, ls)
		d, s, v := fr.vf[in.A], fr.vf[in.B], rf[in.C]
		for _, l := range mask {
			copy(d[int(l)*ld:int(l)*ld+m], s[int(l)*ls:int(l)*ls+m])
			d[int(l)*ld+int(in.Imm)] = v[l]
		}
	case bcode.OpShufI:
		ld, ls := fr.bf.VecILens[in.A], fr.bf.VecILens[in.B]
		comps := fr.bf.Aux[in.Imm].Comps
		d, s := fr.vi[in.A], fr.vi[in.B]
		for _, l := range mask {
			od, os := int(l)*ld, int(l)*ls
			for i, c := range comps {
				d[od+i] = s[os+int(c)]
			}
		}
	case bcode.OpShufF:
		ld, ls := fr.bf.VecFLens[in.A], fr.bf.VecFLens[in.B]
		comps := fr.bf.Aux[in.Imm].Comps
		d, s := fr.vf[in.A], fr.vf[in.B]
		for _, l := range mask {
			od, os := int(l)*ld, int(l)*ls
			for i, c := range comps {
				d[od+i] = s[os+int(c)]
			}
		}
	case bcode.OpBuildI:
		ld := fr.bf.VecILens[in.A]
		refs := fr.bf.Aux[in.Imm].Refs
		d := fr.vi[in.A]
		for _, l := range mask {
			o := int(l) * ld
			for i, r := range refs {
				d[o+i] = ri[r.Idx][l]
			}
		}
	case bcode.OpBuildF:
		ld := fr.bf.VecFLens[in.A]
		refs := fr.bf.Aux[in.Imm].Refs
		d := fr.vf[in.A]
		for _, l := range mask {
			o := int(l) * ld
			for i, r := range refs {
				d[o+i] = rf[r.Idx][l]
			}
		}

	case bcode.OpDotVF:
		ls := fr.bf.VecFLens[in.B]
		d, x, y := rf[in.A], fr.vf[in.B], fr.vf[in.C]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ls
			var sum float64
			for i := 0; i < ls; i++ {
				sum += x[o+i] * y[o+i]
			}
			d[l] = vm.Round32(k, sum)
		}
	case bcode.OpDotSS:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] * y[l]
		}
	case bcode.OpLenVF:
		ls := fr.bf.VecFLens[in.B]
		d, x := rf[in.A], fr.vf[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ls
			var sum float64
			for i := 0; i < ls; i++ {
				sum += x[o+i] * x[o+i]
			}
			d[l] = vm.Round32(k, math.Sqrt(sum))
		}
	case bcode.OpLenSS:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = math.Abs(s[l])
		}

	case bcode.OpMathF:
		ax := &fr.bf.Aux[in.Imm]
		d := rf[in.A]
		fa := g.scratchF(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			for i, r := range ax.Refs {
				fa[i] = rf[r.Idx][l]
			}
			v, err := vm.MathF(ax.Name, k, fa)
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}
	case bcode.OpMathI:
		ax := &fr.bf.Aux[in.Imm]
		d := ri[in.A]
		ia := g.scratchI(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			for i, r := range ax.Refs {
				ia[i] = ri[r.Idx][l]
			}
			v, err := vm.MathI(ax.Name, k, ia)
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}
	case bcode.OpVMathF:
		ax := &fr.bf.Aux[in.Imm]
		ld := fr.bf.VecFLens[in.A]
		d := fr.vf[in.A]
		fa := g.scratchF(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for j := 0; j < ld; j++ {
				for i, r := range ax.Refs {
					fa[i] = fr.vf[r.Idx][o+j]
				}
				v, err := vm.MathF(ax.Name, k, fa)
				if err != nil {
					return laneErr(l, err)
				}
				d[o+j] = v
			}
		}
	case bcode.OpVMathI:
		ax := &fr.bf.Aux[in.Imm]
		ld := fr.bf.VecILens[in.A]
		d := fr.vi[in.A]
		ia := g.scratchI(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for j := 0; j < ld; j++ {
				for i, r := range ax.Refs {
					ia[i] = fr.vi[r.Idx][o+j]
				}
				v, err := vm.MathI(ax.Name, k, ia)
				if err != nil {
					return laneErr(l, err)
				}
				d[o+j] = v
			}
		}

	default:
		return laneErr(mask[0], fmt.Errorf("wgvec: invalid opcode %d at pc %d", in.Op, pc))
	}
	return nil
}

// vconvCol performs a lane-wise vector conversion for all masked lanes.
// The source and destination lane counts match (the compiler traps
// mismatched conversions), so one offset walks both columns.
func (g *groupState) vconvCol(fr *colFrame, in *bcode.Inst, mask []int32) {
	from := clc.ScalarKind(in.Sub)
	to := clc.ScalarKind(in.Kind)
	if from.IsFloat() {
		s := fr.vf[in.B]
		if to.IsFloat() {
			ld := fr.bf.VecFLens[in.A]
			d := fr.vf[in.A]
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					_, d[o+i] = vm.ConvertKind(0, s[o+i], from, to)
				}
			}
		} else {
			ld := fr.bf.VecILens[in.A]
			d := fr.vi[in.A]
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i], _ = vm.ConvertKind(0, s[o+i], from, to)
				}
			}
		}
	} else {
		s := fr.vi[in.B]
		if to.IsFloat() {
			ld := fr.bf.VecFLens[in.A]
			d := fr.vf[in.A]
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					_, d[o+i] = vm.ConvertKind(s[o+i], 0, from, to)
				}
			}
		} else {
			ld := fr.bf.VecILens[in.A]
			d := fr.vi[in.A]
			for _, l := range mask {
				o := int(l) * ld
				for i := 0; i < ld; i++ {
					d[o+i], _ = vm.ConvertKind(s[o+i], 0, from, to)
				}
			}
		}
	}
}

// wiQueryLane answers a runtime-dimension work-item query for one lane.
func (g *groupState) wiQueryLane(l int32, q int32, d int64) int64 {
	if d < 0 || d > 2 {
		return 0
	}
	switch q {
	case bcode.QGlobalID:
		return g.gidCol[d][l]
	case bcode.QLocalID:
		return g.lidCol[d][l]
	case bcode.QGroupID:
		return g.grp[d]
	case bcode.QGlobalSize:
		return g.gsz[d]
	case bcode.QLocalSize:
		return g.lsz[d]
	case bcode.QNumGroups:
		return g.ngrp[d]
	case bcode.QWorkDim:
		return 3
	}
	return 0
}

// arenaLane resolves a tagged address against one lane's arenas, with
// the interpreter's exact bounds diagnostics.
// Address-space tags, mirroring the vm pointer encoding (top 2 bits; see
// vm.MakeAddr). Decoded locally so hotArena stays within the inlining
// budget of the per-lane memory loops.
const (
	tagPrivate uint64 = 0
	tagGlobal  uint64 = 1
	tagLocal   uint64 = 2
	tagShift          = 62
	offMask           = (uint64(1) << tagShift) - 1
)

// hotArena resolves a lane address with a combined tag decode and bounds
// check and no error construction, so it inlines into the per-lane load
// and store loops. ok=false sends the access down the checked resolvers,
// which produce the canonical out-of-bounds diagnostics.
func (g *groupState) hotArena(addr uint64, l int32, sz int) ([]byte, uint64, bool) {
	off := addr & offMask
	var a []byte
	switch addr >> tagShift {
	case tagGlobal:
		a = g.gmem
	case tagLocal:
		a = g.local
	default:
		a = g.priv[l]
	}
	if int(off)+sz > len(a) {
		return nil, 0, false
	}
	return a, off, true
}

func (g *groupState) arenaLane(addr uint64, l int32) ([]byte, uint64, error) {
	space, off := vm.SplitAddr(addr)
	switch space {
	case clc.ASGlobal:
		if int(off) >= len(g.gmem) {
			return nil, 0, fmt.Errorf("vm: global access at %d out of bounds (%d)", off, len(g.gmem))
		}
		return g.gmem, off, nil
	case clc.ASLocal:
		if int(off) >= len(g.local) {
			return nil, 0, fmt.Errorf("vm: local access at %d out of bounds (%d)", off, len(g.local))
		}
		return g.local, off, nil
	default:
		p := g.priv[l]
		if int(off) >= len(p) {
			return nil, 0, fmt.Errorf("vm: private access at %d out of bounds (%d)", off, len(p))
		}
		return p, off, nil
	}
}

// addrPass computes every masked lane's effective address and, when
// tracing, records the access: under a full mask as one converged op whose
// address column the addresses are computed straight into, otherwise into
// the shared scratch with one record per masked lane, stamped with the
// ops recorded so far. Events are emitted before bounds are checked,
// matching the interpreter's trace-then-fault ordering.
func (g *groupState) addrPass(fr *colFrame, in *bcode.Inst, mask []int32, fused, store bool) []uint64 {
	base := fr.ri[in.B]
	addrs := g.addrs
	// A full mask is every lane in ascending order, so lane l's slot of the
	// column is l, as it is of the scratch.
	converged := g.tracer != nil && len(mask) == g.n
	if converged {
		addrs = g.trace.AppendOp(in.In, in.N, store)
	}
	if fused {
		idx := fr.ri[in.C]
		for _, l := range mask {
			addrs[l] = uint64(base[l] + idx[l]*in.Imm)
		}
	} else {
		for _, l := range mask {
			addrs[l] = uint64(base[l])
		}
	}
	if g.tracer != nil && !converged {
		items := g.trace.Items
		rec := vm.AccessRec{Instr: g.trace.Intern(in.In), Size: in.N, Seq: int32(len(g.trace.Ops)), Store: store}
		for _, l := range mask {
			rec.Addr = addrs[l]
			items[l] = append(items[l], rec)
		}
	}
	g.countAccesses(store, len(mask))
	return addrs
}

// countAccesses adds n loads or stores to the profiler's round, if there
// is one.
func (g *groupState) countAccesses(store bool, n int) {
	if g.prof == nil {
		return
	}
	if store {
		g.profStores += int64(n)
	} else {
		g.profLoads += int64(n)
	}
}

// slotOp performs a load or store of a private variable that lives in a
// register column (bcode's slot instructions): a column move under the
// mask, through the variable's kind on the way in. It is a memory
// instruction all the same — every masked lane makes one access to the
// variable's place on its stack, recorded under a full mask as one op that
// holds the address and takes no column — so it never runs once for the
// group, however uniform the value.
func (g *groupState) slotOp(fr *colFrame, in *bcode.Inst, mask []int32) {
	store := in.Op == bcode.OpSlotStI || in.Op == bcode.OpSlotStF
	full := len(mask) == g.n
	if g.tracer != nil {
		off := uint64(fr.frameBase) + uint64(in.Imm)
		if full {
			g.trace.AppendPrivate(in.In, in.N, store, off)
		} else {
			items := g.trace.Items
			rec := vm.AccessRec{Addr: vm.MakeAddr(clc.ASPrivate, off), Instr: g.trace.Intern(in.In),
				Size: in.N, Seq: int32(len(g.trace.Ops)), Store: store}
			for _, l := range mask {
				items[l] = append(items[l], rec)
			}
		}
	}
	g.countAccesses(store, len(mask))
	switch in.Op {
	case bcode.OpSlotLdI:
		moveCol(fr.ri[in.A], fr.ri[in.B], mask, full)
	case bcode.OpSlotLdF:
		moveCol(fr.rf[in.A], fr.rf[in.B], mask, full)
	case bcode.OpSlotStI:
		// What the kind's store leaves in memory and its load reads back
		// (storeCol, loadCol) is the value normalized to the kind, except
		// that a bool is stored as a byte, not as NormInt's 0 or 1.
		d, s := fr.ri[in.B], fr.ri[in.A]
		switch k := clc.ScalarKind(in.Kind); k {
		case clc.KLong, clc.KULong: // and pointers
			moveCol(d, s, mask, full)
		case clc.KBool:
			k = clc.KUChar
			fallthrough
		default:
			for _, l := range mask {
				d[l] = vm.NormInt(s[l], k)
			}
		}
	case bcode.OpSlotStF:
		d, s := fr.rf[in.B], fr.rf[in.A]
		if in.Kind == kF32 {
			for _, l := range mask {
				d[l] = float64(float32(s[l]))
			}
		} else {
			moveCol(d, s, mask, full)
		}
	}
}

// moveCol copies the masked lanes of column s to column d. A full mask is
// every lane of the column.
func moveCol[T int64 | float64](d, s []T, mask []int32, full bool) {
	if full {
		copy(d, s)
		return
	}
	for _, l := range mask {
		d[l] = s[l]
	}
}

// loadCol performs a scalar load for all masked lanes. With uni set (a
// statically uniform access under a full mask) the value is loaded once
// and broadcast; the trace still holds an address per lane. Private
// memory is per-lane storage even at a uniform address, so uniform
// treatment only applies to the shared global and local arenas.
func (g *groupState) loadCol(fr *colFrame, in *bcode.Inst, mask []int32, fused, uni bool) error {
	addrs := g.addrPass(fr, in, mask, fused, false)
	sz := int(in.N)
	if uni {
		if sp, _ := vm.SplitAddr(addrs[mask[0]]); sp == clc.ASPrivate {
			uni = false
		}
	}
	if uni {
		l0 := mask[0]
		a, off, err := g.arenaLane(addrs[l0], l0)
		if err != nil {
			return laneErr(l0, err)
		}
		if int(off)+sz > len(a) {
			return laneErr(l0, fmt.Errorf("vm: load of %d bytes at %d overruns arena (%d)", sz, off, len(a)))
		}
		switch in.Op {
		case bcode.OpLdI8, bcode.OpLdXI8:
			broadcastI(fr.ri[in.A], mask, int64(int8(a[off])))
		case bcode.OpLdU8, bcode.OpLdXU8:
			broadcastI(fr.ri[in.A], mask, int64(a[off]))
		case bcode.OpLdI16, bcode.OpLdXI16:
			broadcastI(fr.ri[in.A], mask, int64(int16(binary.LittleEndian.Uint16(a[off:]))))
		case bcode.OpLdU16, bcode.OpLdXU16:
			broadcastI(fr.ri[in.A], mask, int64(binary.LittleEndian.Uint16(a[off:])))
		case bcode.OpLdI32, bcode.OpLdXI32:
			broadcastI(fr.ri[in.A], mask, int64(int32(binary.LittleEndian.Uint32(a[off:]))))
		case bcode.OpLdU32, bcode.OpLdXU32:
			broadcastI(fr.ri[in.A], mask, int64(binary.LittleEndian.Uint32(a[off:])))
		case bcode.OpLdI64, bcode.OpLdXI64:
			broadcastI(fr.ri[in.A], mask, int64(binary.LittleEndian.Uint64(a[off:])))
		case bcode.OpLdF32, bcode.OpLdXF32:
			broadcastF(fr.rf[in.A], mask, float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:]))))
		case bcode.OpLdF64, bcode.OpLdXF64:
			broadcastF(fr.rf[in.A], mask, math.Float64frombits(binary.LittleEndian.Uint64(a[off:])))
		}
		return nil
	}
	switch in.Op {
	case bcode.OpLdI8, bcode.OpLdXI8:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(int8(a[off]))
		}
	case bcode.OpLdU8, bcode.OpLdXU8:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(a[off])
		}
	case bcode.OpLdI16, bcode.OpLdXI16:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(int16(binary.LittleEndian.Uint16(a[off:])))
		}
	case bcode.OpLdU16, bcode.OpLdXU16:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(binary.LittleEndian.Uint16(a[off:]))
		}
	case bcode.OpLdI32, bcode.OpLdXI32:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(int32(binary.LittleEndian.Uint32(a[off:])))
		}
	case bcode.OpLdU32, bcode.OpLdXU32:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(binary.LittleEndian.Uint32(a[off:]))
		}
	case bcode.OpLdI64, bcode.OpLdXI64:
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = int64(binary.LittleEndian.Uint64(a[off:]))
		}
	case bcode.OpLdF32, bcode.OpLdXF32:
		d := fr.rf[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:])))
		}
	case bcode.OpLdF64, bcode.OpLdXF64:
		d := fr.rf[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.ldArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			d[l] = math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
		}
	}
	return nil
}

// ldArena is arenaLane plus the load-width bounds check, with errors
// already attributed to the lane.
func (g *groupState) ldArena(addr uint64, l int32, sz int) ([]byte, uint64, error) {
	a, off, err := g.arenaLane(addr, l)
	if err != nil {
		return nil, 0, laneErr(l, err)
	}
	if int(off)+sz > len(a) {
		return nil, 0, laneErr(l, fmt.Errorf("vm: load of %d bytes at %d overruns arena (%d)", sz, off, len(a)))
	}
	return a, off, nil
}

// stArena is arenaLane plus the store-width bounds check.
func (g *groupState) stArena(addr uint64, l int32, sz int) ([]byte, uint64, error) {
	a, off, err := g.arenaLane(addr, l)
	if err != nil {
		return nil, 0, laneErr(l, err)
	}
	if int(off)+sz > len(a) {
		return nil, 0, laneErr(l, fmt.Errorf("vm: store of %d bytes at %d overruns arena (%d)", sz, off, len(a)))
	}
	return a, off, nil
}

// storeCol performs a scalar store for all masked lanes. A uniform store
// writes once (the write is idempotent across lanes) but the trace still
// holds an address per lane. As with loadCol, private memory is per-lane
// storage, so the write-once shortcut only applies to the shared global
// and local arenas.
func (g *groupState) storeCol(fr *colFrame, in *bcode.Inst, mask []int32, fused, uni bool) error {
	addrs := g.addrPass(fr, in, mask, fused, true)
	sz := int(in.N)
	if uni {
		if sp, _ := vm.SplitAddr(addrs[mask[0]]); sp != clc.ASPrivate {
			mask = mask[:1]
		}
	}
	switch in.Op {
	case bcode.OpStI8, bcode.OpStXI8:
		src := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			a[off] = byte(src[l])
		}
	case bcode.OpStI16, bcode.OpStXI16:
		src := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint16(a[off:], uint16(src[l]))
		}
	case bcode.OpStI32, bcode.OpStXI32:
		src := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint32(a[off:], uint32(src[l]))
		}
	case bcode.OpStI64, bcode.OpStXI64:
		src := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint64(a[off:], uint64(src[l]))
		}
	case bcode.OpStF32, bcode.OpStXF32:
		src := fr.rf[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint32(a[off:], math.Float32bits(float32(src[l])))
		}
	case bcode.OpStF64, bcode.OpStXF64:
		src := fr.rf[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.stArena(addrs[l], l, sz); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint64(a[off:], math.Float64bits(src[l]))
		}
	}
	return nil
}

// loadVecCol loads a vector register lane by lane at element-size
// strides for all masked lanes.
func (g *groupState) loadVecCol(fr *colFrame, in *bcode.Inst, mask []int32, fused bool) error {
	addrs := g.addrPass(fr, in, mask, fused, false)
	k := clc.ScalarKind(in.Kind)
	es := k.Size()
	lanes := int(in.Sub)
	if in.Op == bcode.OpLdVF || in.Op == bcode.OpLdXVF {
		ld := fr.bf.VecFLens[in.A]
		d := fr.vf[in.A]
		for _, l := range mask {
			o := int(l) * ld
			addr := addrs[l]
			// Fast path: the whole vector sits in one arena, so resolve
			// and bounds-check once and decode with a tight loop.
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				if k == clc.KFloat {
					for i := 0; i < lanes; i++ {
						d[o+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(v[i*4:])))
					}
				} else {
					for i := 0; i < lanes; i++ {
						d[o+i] = math.Float64frombits(binary.LittleEndian.Uint64(v[i*8:]))
					}
				}
				continue
			}
			// Slow path keeps the interpreter's per-element bounds checks
			// and error attribution.
			for i := 0; i < lanes; i++ {
				a, off, err := g.ldArena(addr+uint64(i*es), l, es)
				if err != nil {
					return err
				}
				if k == clc.KFloat {
					d[o+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:])))
				} else {
					d[o+i] = math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
				}
			}
		}
	} else {
		ld := fr.bf.VecILens[in.A]
		d := fr.vi[in.A]
		for _, l := range mask {
			o := int(l) * ld
			addr := addrs[l]
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				for i := 0; i < lanes; i++ {
					d[o+i] = loadIntLane(v, uint64(i*es), k)
				}
				continue
			}
			for i := 0; i < lanes; i++ {
				a, off, err := g.ldArena(addr+uint64(i*es), l, es)
				if err != nil {
					return err
				}
				d[o+i] = loadIntLane(a, off, k)
			}
		}
	}
	return nil
}

// storeVecCol stores a vector register lane by lane for all masked lanes.
func (g *groupState) storeVecCol(fr *colFrame, in *bcode.Inst, mask []int32, fused bool) error {
	addrs := g.addrPass(fr, in, mask, fused, true)
	k := clc.ScalarKind(in.Kind)
	es := k.Size()
	lanes := int(in.Sub)
	if in.Op == bcode.OpStVF || in.Op == bcode.OpStXVF {
		ls := fr.bf.VecFLens[in.A]
		s := fr.vf[in.A]
		for _, l := range mask {
			o := int(l) * ls
			addr := addrs[l]
			// Fast path mirrors loadVecCol: one resolve + one bounds
			// check when the whole vector fits in the arena.
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				if k == clc.KFloat {
					for i := 0; i < lanes; i++ {
						binary.LittleEndian.PutUint32(v[i*4:], math.Float32bits(float32(s[o+i])))
					}
				} else {
					for i := 0; i < lanes; i++ {
						binary.LittleEndian.PutUint64(v[i*8:], math.Float64bits(s[o+i]))
					}
				}
				continue
			}
			for i := 0; i < lanes; i++ {
				a, off, err := g.stArena(addr+uint64(i*es), l, es)
				if err != nil {
					return err
				}
				if k == clc.KFloat {
					binary.LittleEndian.PutUint32(a[off:], math.Float32bits(float32(s[o+i])))
				} else {
					binary.LittleEndian.PutUint64(a[off:], math.Float64bits(s[o+i]))
				}
			}
		}
	} else {
		ls := fr.bf.VecILens[in.A]
		s := fr.vi[in.A]
		for _, l := range mask {
			o := int(l) * ls
			addr := addrs[l]
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				for i := 0; i < lanes; i++ {
					storeIntLane(v, uint64(i*es), k, s[o+i])
				}
				continue
			}
			for i := 0; i < lanes; i++ {
				a, off, err := g.stArena(addr+uint64(i*es), l, es)
				if err != nil {
					return err
				}
				storeIntLane(a, off, k, s[o+i])
			}
		}
	}
	return nil
}

func loadIntLane(a []byte, off uint64, k clc.ScalarKind) int64 {
	switch k {
	case clc.KBool, clc.KUChar:
		return int64(a[off])
	case clc.KChar:
		return int64(int8(a[off]))
	case clc.KShort:
		return int64(int16(binary.LittleEndian.Uint16(a[off:])))
	case clc.KUShort:
		return int64(binary.LittleEndian.Uint16(a[off:]))
	case clc.KInt:
		return int64(int32(binary.LittleEndian.Uint32(a[off:])))
	case clc.KUInt:
		return int64(binary.LittleEndian.Uint32(a[off:]))
	default: // KLong, KULong
		return int64(binary.LittleEndian.Uint64(a[off:]))
	}
}

func storeIntLane(a []byte, off uint64, k clc.ScalarKind, v int64) {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		a[off] = byte(v)
	case clc.KShort, clc.KUShort:
		binary.LittleEndian.PutUint16(a[off:], uint16(v))
	case clc.KInt, clc.KUInt:
		binary.LittleEndian.PutUint32(a[off:], uint32(v))
	default: // KLong, KULong
		binary.LittleEndian.PutUint64(a[off:], uint64(v))
	}
}

func broadcastI(col []int64, mask []int32, v int64) {
	for _, l := range mask {
		col[l] = v
	}
}

func broadcastF(col []float64, mask []int32, v float64) {
	for _, l := range mask {
		col[l] = v
	}
}

// scratchF returns the worker's pooled float argument buffer.
func (g *groupState) scratchF(n int) []float64 {
	if cap(g.mathF) < n {
		g.mathF = make([]float64, n)
	}
	return g.mathF[:n]
}

// scratchI returns the worker's pooled integer argument buffer.
func (g *groupState) scratchI(n int) []int64 {
	if cap(g.mathI) < n {
		g.mathI = make([]int64, n)
	}
	return g.mathI[:n]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
