package wgvec

import (
	"fmt"
	"math"

	"grover/internal/clc"
	"grover/internal/vm"
)

// destBank maps an opcode to its scalar destination bank for the
// uniform execute-once path. Opcodes with vector destinations, memory
// effects, or control behavior are excluded (they either have dedicated
// uniform handling or always run the full mask).
func destBank(op opcode) (bank, bool) {
	switch op {
	case opConstI, opMovI, opGRP, opGSZ,
		opLSZ, opNGRP, opWIQ, opAllocaP, opAllocaL,
		opIndex, opIndexC,
		opAddI, opAddI32, opSubI32, opMulI32,
		opIntBin, opNegI, opNotI,
		opEqI, opNeI, opLtI, opLeI, opGtI, opGeI, opCmpI, opCmpF,
		opConvI, opF2I, opExtI, opMathI:
		return bankInt, true
	case opMovF,
		opAddF32, opSubF32, opMulF32, opFltBin, opNegF, opI2F, opU2F, opF2F32,
		opExtF, opDotVF, opDotSS, opLenVF, opLenSS,
		opMathF:
		return bankFlt, true
	}
	return 0, false
}

// broadcast copies lane 0's value of a scalar register column to all n
// lanes after a uniform execute-once.
func (fr *colFrame) broadcast(bank bank, reg int32, n int) {
	if bank == bankInt {
		fill(fr.ri[reg][:n])
	} else {
		fill(fr.rf[reg][:n])
	}
}

// fill copies col[0] to the rest of col.
func fill[T int64 | float64](col []T) {
	v := col[0]
	for i := range col {
		col[i] = v
	}
}

// fullOp runs instruction in under a full mask — every lane, in ascending
// order — as a straight loop over the first n lanes of its columns: no lane
// index to load and, the columns sliced to one length, no bounds check per
// lane. It covers the ops whose mask loops the sweeps' CPU profiles show,
// and reports false for any other.
func (fr *colFrame) fullOp(in *inst, n int) bool {
	ri, rf := fr.ri, fr.rf
	switch in.Op {
	case opMovI:
		copy(ri[in.A][:n], ri[in.B][:n])
	case opAddI32:
		d, x, y := ri[in.A][:n], ri[in.B][:n], ri[in.C][:n]
		for l := range d {
			d[l] = int64(int32(x[l] + y[l]))
		}
	case opAddF32:
		d, x, y := rf[in.A][:n], rf[in.B][:n], rf[in.C][:n]
		for l := range d {
			d[l] = float64(float32(x[l] + y[l]))
		}
	case opSubF32:
		d, x, y := rf[in.A][:n], rf[in.B][:n], rf[in.C][:n]
		for l := range d {
			d[l] = float64(float32(x[l] - y[l]))
		}
	case opMulF32:
		d, x, y := rf[in.A][:n], rf[in.B][:n], rf[in.C][:n]
		for l := range d {
			d[l] = float64(float32(x[l] * y[l]))
		}
	case opVAddF, opVMulF:
		m := n * fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A][:m], fr.vf[in.B][:m], fr.vf[in.C][:m]
		if in.Op == opVAddF {
			for i := range d {
				d[i] = float64(float32(x[i] + y[i]))
			}
		} else {
			for i := range d {
				d[i] = float64(float32(x[i] * y[i]))
			}
		}
	case opBuildF:
		ld, d := fr.bf.VecFLens[in.A], fr.vf[in.A]
		for i, r := range fr.bf.Aux[in.Imm].Refs {
			for l, v := range rf[r.Idx][:n] {
				d[l*ld+i] = v
			}
		}
	default:
		return false
	}
	return true
}

// execOp executes one non-control, non-memory instruction for every lane
// in the mask, sweeping the columnar register banks: under a full mask as
// fullOp's straight loop if it has one, else as a loop over the mask.
// Errors carry the lane they occurred at.
func (g *groupState) execOp(fr *colFrame, in *inst, mask []int32, pc int32) error {
	if len(mask) == g.n && fr.fullOp(in, g.n) {
		return nil
	}
	ri, rf := fr.ri, fr.rf
	switch in.Op {
	case opConstI:
		d, v := ri[in.A], in.Imm
		for _, l := range mask {
			d[l] = v
		}
	case opMovI:
		d, s := ri[in.A], ri[in.B]
		for _, l := range mask {
			d[l] = s[l]
		}
	case opMovF:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = s[l]
		}

	case opGID:
		d, s := ri[in.A], g.gidCol[in.Imm]
		for _, l := range mask {
			d[l] = s[l]
		}
	case opLID:
		d, s := ri[in.A], g.lidCol[in.Imm]
		for _, l := range mask {
			d[l] = s[l]
		}
	case opGRP:
		d, v := ri[in.A], g.grp[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case opGSZ:
		d, v := ri[in.A], g.gsz[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case opLSZ:
		d, v := ri[in.A], g.lsz[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case opNGRP:
		d, v := ri[in.A], g.ngrp[in.Imm]
		for _, l := range mask {
			d[l] = v
		}
	case opWIQ:
		d, dim := ri[in.A], ri[in.B]
		for _, l := range mask {
			d[l] = g.wiQueryLane(l, in.N, dim[l])
		}

	case opAllocaP:
		// Private allocas resolve against the lane's own arena, so the
		// tagged address itself is uniform across the group.
		d, v := ri[in.A], int64(vm.MakeAddr(clc.ASPrivate, uint64(fr.frameBase)+uint64(in.Imm)))
		for _, l := range mask {
			d[l] = v
		}
	case opAllocaL:
		d, v := ri[in.A], in.Imm
		for _, l := range mask {
			d[l] = v
		}

	case opIndex:
		d, b, c, m := ri[in.A], ri[in.B], ri[in.C], in.Imm
		for _, l := range mask {
			d[l] = b[l] + c[l]*m
		}
	case opIndexC:
		d, b, m := ri[in.A], ri[in.B], in.Imm
		for _, l := range mask {
			d[l] = b[l] + m
		}

	case opAddI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = x[l] + y[l]
		}
	case opAddI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] + y[l]))
		}
	case opSubI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] - y[l]))
		}
	case opMulI32:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = int64(int32(x[l] * y[l]))
		}
	case opIntBin:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		op, k := clc.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			v, err := clc.IntBin(op, k, x[l], y[l])
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}

	case opAddF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] + y[l]))
		}
	case opSubF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] - y[l]))
		}
	case opMulF32:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = float64(float32(x[l] * y[l]))
		}
	case opFltBin:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		op, k := clc.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			v, err := clc.FloatBin(op, k, x[l], y[l])
			if err != nil {
				return laneErr(l, err)
			}
			d[l] = v
		}

	case opNegF:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = -s[l]
		}
	case opNegI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.NormInt(-s[l], k)
		}
	case opNotI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.NormInt(^s[l], k)
		}
	case opVNegF:
		ld := fr.bf.VecFLens[in.A]
		d, s := fr.vf[in.A], fr.vf[in.B]
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = -s[o+i]
			}
		}
	case opVNegI:
		ld := fr.bf.VecILens[in.A]
		d, s := fr.vi[in.A], fr.vi[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = clc.NormInt(-s[o+i], k)
			}
		}
	case opVNotI:
		ld := fr.bf.VecILens[in.A]
		d, s := fr.vi[in.A], fr.vi[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = clc.NormInt(^s[o+i], k)
			}
		}

	case opEqI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] == y[l])
		}
	case opNeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] != y[l])
		}
	case opLtI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] < y[l])
		}
	case opLeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] <= y[l])
		}
	case opGtI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] > y[l])
		}
	case opGeI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		for _, l := range mask {
			d[l] = b2i(x[l] >= y[l])
		}
	case opCmpI:
		d, x, y := ri[in.A], ri[in.B], ri[in.C]
		op, k := clc.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = b2i(clc.IntCmp(op, k, x[l], y[l]))
		}
	case opCmpF:
		d, x, y := ri[in.A], rf[in.B], rf[in.C]
		op := clc.Op(in.Sub)
		for _, l := range mask {
			d[l] = b2i(clc.FloatCmp(op, x[l], y[l]))
		}

	case opConvI:
		d, s := ri[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.NormInt(s[l], k)
		}
	case opI2F:
		d, s := rf[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.Round32(k, float64(s[l]))
		}
	case opU2F:
		d, s := rf[in.A], ri[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.Round32(k, float64(uint64(s[l])))
		}
	case opF2I:
		d, s := ri[in.A], rf[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			d[l] = clc.FloatToInt(s[l], k)
		}
	case opF2F32:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = float64(float32(s[l]))
		}
	case opVConv:
		g.vconvCol(fr, in, mask)

	case opVAddF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = float64(float32(x[o+i] + y[o+i]))
			}
		}
	case opVMulF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				d[o+i] = float64(float32(x[o+i] * y[o+i]))
			}
		}
	case opVBinF:
		ld := fr.bf.VecFLens[in.A]
		d, x, y := fr.vf[in.A], fr.vf[in.B], fr.vf[in.C]
		op, k := clc.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				v, err := clc.FloatBin(op, k, x[o+i], y[o+i])
				if err != nil {
					return laneErr(l, err)
				}
				d[o+i] = v
			}
		}
	case opVBinI:
		ld := fr.bf.VecILens[in.A]
		d, x, y := fr.vi[in.A], fr.vi[in.B], fr.vi[in.C]
		op, k := clc.Op(in.Sub), clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ld
			for i := 0; i < ld; i++ {
				v, err := clc.IntBin(op, k, x[o+i], y[o+i])
				if err != nil {
					return laneErr(l, err)
				}
				d[o+i] = v
			}
		}

	case opExtI:
		ls := fr.bf.VecILens[in.B]
		d, s := ri[in.A], fr.vi[in.B]
		for _, l := range mask {
			d[l] = s[int(l)*ls+int(in.Imm)]
		}
	case opExtF:
		ls := fr.bf.VecFLens[in.B]
		d, s := rf[in.A], fr.vf[in.B]
		for _, l := range mask {
			d[l] = s[int(l)*ls+int(in.Imm)]
		}
	case opInsI:
		ld, ls := fr.bf.VecILens[in.A], fr.bf.VecILens[in.B]
		m := min(ld, ls)
		d, s, v := fr.vi[in.A], fr.vi[in.B], ri[in.C]
		for _, l := range mask {
			copy(d[int(l)*ld:int(l)*ld+m], s[int(l)*ls:int(l)*ls+m])
			d[int(l)*ld+int(in.Imm)] = v[l]
		}
	case opInsF:
		ld, ls := fr.bf.VecFLens[in.A], fr.bf.VecFLens[in.B]
		m := min(ld, ls)
		d, s, v := fr.vf[in.A], fr.vf[in.B], rf[in.C]
		for _, l := range mask {
			copy(d[int(l)*ld:int(l)*ld+m], s[int(l)*ls:int(l)*ls+m])
			d[int(l)*ld+int(in.Imm)] = v[l]
		}
	case opShufI:
		ld, ls := fr.bf.VecILens[in.A], fr.bf.VecILens[in.B]
		comps := fr.bf.Aux[in.Imm].Comps
		d, s := fr.vi[in.A], fr.vi[in.B]
		for _, l := range mask {
			od, os := int(l)*ld, int(l)*ls
			for i, c := range comps {
				d[od+i] = s[os+int(c)]
			}
		}
	case opShufF:
		ld, ls := fr.bf.VecFLens[in.A], fr.bf.VecFLens[in.B]
		comps := fr.bf.Aux[in.Imm].Comps
		d, s := fr.vf[in.A], fr.vf[in.B]
		for _, l := range mask {
			od, os := int(l)*ld, int(l)*ls
			for i, c := range comps {
				d[od+i] = s[os+int(c)]
			}
		}
	case opBuildI:
		ld := fr.bf.VecILens[in.A]
		refs := fr.bf.Aux[in.Imm].Refs
		d := fr.vi[in.A]
		for _, l := range mask {
			o := int(l) * ld
			for i, r := range refs {
				d[o+i] = ri[r.Idx][l]
			}
		}
	case opBuildF:
		ld := fr.bf.VecFLens[in.A]
		refs := fr.bf.Aux[in.Imm].Refs
		d := fr.vf[in.A]
		for _, l := range mask {
			o := int(l) * ld
			for i, r := range refs {
				d[o+i] = rf[r.Idx][l]
			}
		}

	case opDotVF:
		ls := fr.bf.VecFLens[in.B]
		d, x, y := rf[in.A], fr.vf[in.B], fr.vf[in.C]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ls
			d[l] = clc.Dot(k, x[o:o+ls], y[o:o+ls])
		}
	case opDotSS:
		d, x, y := rf[in.A], rf[in.B], rf[in.C]
		for _, l := range mask {
			d[l] = x[l] * y[l]
		}
	case opLenVF:
		ls := fr.bf.VecFLens[in.B]
		d, x := rf[in.A], fr.vf[in.B]
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			o := int(l) * ls
			d[l] = clc.Length(k, x[o:o+ls])
		}
	case opLenSS:
		d, s := rf[in.A], rf[in.B]
		for _, l := range mask {
			d[l] = math.Abs(s[l])
		}

	case opMathF, opVMathF:
		// A scalar is a one-element column per lane.
		ax := &fr.bf.Aux[in.Imm]
		bank, ld := rf, 1
		if in.Op == opVMathF {
			bank, ld = fr.vf, fr.bf.VecFLens[in.A]
		}
		d := bank[in.A]
		fa := g.scratchF(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			for o := int(l) * ld; o < int(l+1)*ld; o++ {
				for i, r := range ax.Refs {
					fa[i] = bank[r.Idx][o]
				}
				v, err := clc.MathF(ax.Name, k, fa)
				if err != nil {
					return laneErr(l, err)
				}
				d[o] = v
			}
		}
	case opMathI, opVMathI:
		ax := &fr.bf.Aux[in.Imm]
		bank, ld := ri, 1
		if in.Op == opVMathI {
			bank, ld = fr.vi, fr.bf.VecILens[in.A]
		}
		d := bank[in.A]
		ia := g.scratchI(len(ax.Refs))
		k := clc.ScalarKind(in.Kind)
		for _, l := range mask {
			for o := int(l) * ld; o < int(l+1)*ld; o++ {
				for i, r := range ax.Refs {
					ia[i] = bank[r.Idx][o]
				}
				v, err := clc.MathI(ax.Name, k, ia)
				if err != nil {
					return laneErr(l, err)
				}
				d[o] = v
			}
		}

	default:
		return laneErr(mask[0], fmt.Errorf("wgvec: invalid opcode %d at pc %d", in.Op, pc))
	}
	return nil
}

// vconvCol performs a lane-wise vector conversion for all masked lanes.
// The source and destination lane counts match (the compiler traps
// mismatched conversions), so one offset walks both columns. Float and
// int vector registers are numbered apart, so each index reads its own
// bank.
func (g *groupState) vconvCol(fr *colFrame, in *inst, mask []int32) {
	from, to := clc.ScalarKind(in.Sub), clc.ScalarKind(in.Kind)
	var si, di []int64
	var sf, df []float64
	if from.IsFloat() {
		sf = fr.vf[in.B]
	} else {
		si = fr.vi[in.B]
	}
	var ld int
	if to.IsFloat() {
		df, ld = fr.vf[in.A], fr.bf.VecFLens[in.A]
	} else {
		di, ld = fr.vi[in.A], fr.bf.VecILens[in.A]
	}
	for _, l := range mask {
		clc.ConvertVec(di, df, si, sf, from, to, int(l)*ld, int(l+1)*ld)
	}
}

// wiQueryLane answers a runtime-dimension work-item query for one lane.
func (g *groupState) wiQueryLane(l int32, q int32, d int64) int64 {
	if d < 0 || d > 2 {
		return outsideDims(q)
	}
	switch q {
	case qGlobalID:
		return g.gidCol[d][l]
	case qLocalID:
		return g.lidCol[d][l]
	case qGroupID:
		return g.grp[d]
	case qGlobalSize:
		return g.gsz[d]
	case qLocalSize:
		return g.lsz[d]
	}
	return g.ngrp[d]
}

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
// and store loops. ok=false sends the access down checkedArena, which
// produces the canonical out-of-bounds diagnostics.
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

// addrPass computes every masked lane's effective address and, when
// tracing, records the access: under a full mask as one converged op whose
// address column the addresses are computed straight into, otherwise into
// the shared scratch with one record per masked lane, stamped with the
// ops recorded so far. Events are emitted before bounds are checked,
// matching the interpreter's trace-then-fault ordering.
func (g *groupState) addrPass(fr *colFrame, in *inst, mask []int32, fused, store bool) []uint64 {
	base := fr.ri[in.B]
	addrs := g.addrs
	// A full mask is every lane in ascending order, so lane l's slot of the
	// column is l, as it is of the scratch.
	full := len(mask) == g.n
	converged := g.trace != nil && full
	if converged {
		addrs = g.trace.AppendOp(in.In, in.N, store)
	}
	if fused && full {
		a, b, x := addrs[:g.n], base[:g.n], fr.ri[in.C][:g.n]
		for l := range a {
			a[l] = uint64(b[l] + x[l]*in.Imm)
		}
	} else if fused {
		idx := fr.ri[in.C]
		for _, l := range mask {
			addrs[l] = uint64(base[l] + idx[l]*in.Imm)
		}
	} else {
		for _, l := range mask {
			addrs[l] = uint64(base[l])
		}
	}
	if g.trace != nil && !converged {
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

// countAccesses adds n loads or stores to the round's.
func (g *groupState) countAccesses(store bool, n int) {
	if store {
		g.stores += int64(n)
	} else {
		g.loads += int64(n)
	}
}

// slotOp performs a load or store of a private variable that lives in a
// register column (a slot instruction): a column move under the
// mask, through the variable's kind on the way in. It is a memory
// instruction all the same — every masked lane makes one access to the
// variable's place on its stack, recorded under a full mask as one op that
// holds the address and takes no column — so it never runs once for the
// group, however uniform the value.
func (g *groupState) slotOp(fr *colFrame, in *inst, mask []int32) {
	store := in.Op == opSlotSt
	full := len(mask) == g.n
	if g.trace != nil {
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
	k := clc.ScalarKind(in.Kind)
	switch {
	case !store && k.IsFloat():
		moveCol(fr.rf[in.A], fr.rf[in.B], mask, full)
	case !store:
		moveCol(fr.ri[in.A], fr.ri[in.B], mask, full)
	case k == clc.KFloat:
		d, s := fr.rf[in.B], fr.rf[in.A]
		if full {
			d, s := d[:g.n], s[:g.n]
			for l := range d {
				d[l] = float64(float32(s[l]))
			}
			break
		}
		for _, l := range mask {
			d[l] = float64(float32(s[l]))
		}
	case k == clc.KDouble:
		moveCol(fr.rf[in.B], fr.rf[in.A], mask, full)
	case k == clc.KLong, k == clc.KULong: // and pointers
		moveCol(fr.ri[in.B], fr.ri[in.A], mask, full)
	default:
		// What the kind's store leaves in memory and its load reads back
		// (vm.StoreInt, vm.LoadInt) is the value normalized to the kind,
		// except that a bool is stored as a byte, not as NormInt's 0 or 1.
		if k == clc.KBool {
			k = clc.KUChar
		}
		d, s := fr.ri[in.B], fr.ri[in.A]
		if full {
			d, s := d[:g.n], s[:g.n]
			for l := range d {
				d[l] = clc.NormInt(s[l], k)
			}
			return
		}
		for _, l := range mask {
			d[l] = clc.NormInt(s[l], k)
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

// loadCol performs a load for all masked lanes. With uni set (a
// statically uniform access under a full mask) a scalar is loaded once and
// broadcast; the trace still holds an address per lane. Private memory is
// per-lane storage even at a uniform address, so uniform treatment only
// applies to the shared global and local arenas. Each bank has one lane
// loop that reads the kind it is given; a float under a full mask, the
// one load loop a profile of the sweeps shows hot, has a straight loop of
// its own.
func (g *groupState) loadCol(fr *colFrame, in *inst, mask []int32, fused, uni bool) error {
	addrs := g.addrPass(fr, in, mask, fused, false)
	if in.Sub > 0 {
		return g.loadVecCol(fr, in, mask, addrs)
	}
	k, sz := clc.ScalarKind(in.Kind), int(in.N)
	if uni {
		if sp, _ := vm.SplitAddr(addrs[mask[0]]); sp == clc.ASPrivate {
			uni = false
		}
	}
	if uni {
		a, off, err := g.checkedArena(addrs[mask[0]], mask[0], sz, false)
		switch {
		case err != nil:
			return err
		case k.IsFloat():
			broadcastF(fr.rf[in.A], mask, vm.LoadFloat(a, off, k))
		default:
			broadcastI(fr.ri[in.A], mask, vm.LoadInt(a, off, k))
		}
		return nil
	}
	if !k.IsFloat() {
		d := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.checkedArena(addrs[l], l, sz, false); err != nil {
					return err
				}
			}
			d[l] = vm.LoadInt(a, off, k)
		}
		return nil
	}
	d := fr.rf[in.A]
	if k == clc.KFloat && len(mask) == g.n {
		d, addrs := d[:g.n], addrs[:g.n]
		for l := range d {
			a, off, ok := g.hotArena(addrs[l], int32(l), sz)
			if !ok {
				var err error
				if a, off, err = g.checkedArena(addrs[l], int32(l), sz, false); err != nil {
					return err
				}
			}
			d[l] = vm.LoadFloat(a, off, clc.KFloat)
		}
		return nil
	}
	for _, l := range mask {
		a, off, ok := g.hotArena(addrs[l], l, sz)
		if !ok {
			var err error
			if a, off, err = g.checkedArena(addrs[l], l, sz, false); err != nil {
				return err
			}
		}
		d[l] = vm.LoadFloat(a, off, k)
	}
	return nil
}

// checkedArena is the resolver a lane's access takes when hotArena refuses
// it: vm.ResolveAccess, with the error attributed to the lane.
func (g *groupState) checkedArena(addr uint64, l int32, sz int, store bool) ([]byte, uint64, error) {
	a, off, err := vm.ResolveAccess(addr, sz, store, g.gmem, g.local, g.priv[l])
	if err != nil {
		return nil, 0, laneErr(l, err)
	}
	return a, off, nil
}

// storeCol performs a store for all masked lanes, with a lane loop per
// bank as loadCol has. A uniform scalar store writes once (the write is
// idempotent across lanes) but the trace still holds an address per lane.
// As with loadCol, private memory is per-lane storage, so the write-once
// shortcut only applies to the shared global and local arenas.
func (g *groupState) storeCol(fr *colFrame, in *inst, mask []int32, fused, uni bool) error {
	addrs := g.addrPass(fr, in, mask, fused, true)
	if in.Sub > 0 {
		return g.storeVecCol(fr, in, mask, addrs)
	}
	sz := int(in.N)
	if uni {
		if sp, _ := vm.SplitAddr(addrs[mask[0]]); sp != clc.ASPrivate {
			mask = mask[:1]
		}
	}
	if k := clc.ScalarKind(in.Kind); k.IsFloat() {
		src := fr.rf[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.checkedArena(addrs[l], l, sz, true); err != nil {
					return err
				}
			}
			vm.StoreFloat(a, off, k, src[l])
		}
	} else {
		src := fr.ri[in.A]
		for _, l := range mask {
			a, off, ok := g.hotArena(addrs[l], l, sz)
			if !ok {
				var err error
				if a, off, err = g.checkedArena(addrs[l], l, sz, true); err != nil {
					return err
				}
			}
			vm.StoreInt(a, off, k, src[l])
		}
	}
	return nil
}

// loadVecCol loads a vector register element by element at element-size
// strides for all masked lanes.
func (g *groupState) loadVecCol(fr *colFrame, in *inst, mask []int32, addrs []uint64) error {
	k, lanes := clc.ScalarKind(in.Kind), int(in.Sub)
	es := k.Size()
	if k.IsFloat() {
		ld, d := fr.bf.VecFLens[in.A], fr.vf[in.A]
		for _, l := range mask {
			o, addr := int(l)*ld, addrs[l]
			// Fast path: the whole vector sits in one arena, so resolve
			// and bounds-check once and decode at a constant stride.
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				if k == clc.KFloat {
					for i := 0; i < lanes; i++ {
						d[o+i] = vm.LoadFloat(v, uint64(4*i), clc.KFloat)
					}
				} else {
					for i := 0; i < lanes; i++ {
						d[o+i] = vm.LoadFloat(v, uint64(8*i), clc.KDouble)
					}
				}
				continue
			}
			// Slow path keeps the interpreter's per-element bounds checks
			// and error attribution.
			for i := 0; i < lanes; i++ {
				a, off, err := g.checkedArena(addr+uint64(i*es), l, es, false)
				if err != nil {
					return err
				}
				d[o+i] = vm.LoadFloat(a, off, k)
			}
		}
		return nil
	}
	ld, d := fr.bf.VecILens[in.A], fr.vi[in.A]
	for _, l := range mask {
		o, addr := int(l)*ld, addrs[l]
		if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
			for i := 0; i < lanes; i++ {
				d[o+i] = vm.LoadInt(a, off+uint64(i*es), k)
			}
			continue
		}
		for i := 0; i < lanes; i++ {
			a, off, err := g.checkedArena(addr+uint64(i*es), l, es, false)
			if err != nil {
				return err
			}
			d[o+i] = vm.LoadInt(a, off, k)
		}
	}
	return nil
}

// storeVecCol stores a vector register element by element for all masked
// lanes, with loadVecCol's fast and slow paths.
func (g *groupState) storeVecCol(fr *colFrame, in *inst, mask []int32, addrs []uint64) error {
	k, lanes := clc.ScalarKind(in.Kind), int(in.Sub)
	es := k.Size()
	if k.IsFloat() {
		ls, s := fr.bf.VecFLens[in.A], fr.vf[in.A]
		for _, l := range mask {
			o, addr := int(l)*ls, addrs[l]
			if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
				v := a[off:]
				if k == clc.KFloat {
					for i := 0; i < lanes; i++ {
						vm.StoreFloat(v, uint64(4*i), clc.KFloat, s[o+i])
					}
				} else {
					for i := 0; i < lanes; i++ {
						vm.StoreFloat(v, uint64(8*i), clc.KDouble, s[o+i])
					}
				}
				continue
			}
			for i := 0; i < lanes; i++ {
				a, off, err := g.checkedArena(addr+uint64(i*es), l, es, true)
				if err != nil {
					return err
				}
				vm.StoreFloat(a, off, k, s[o+i])
			}
		}
		return nil
	}
	ls, s := fr.bf.VecILens[in.A], fr.vi[in.A]
	for _, l := range mask {
		o, addr := int(l)*ls, addrs[l]
		if a, off, ok := g.hotArena(addr, l, lanes*es); ok {
			for i := 0; i < lanes; i++ {
				vm.StoreInt(a, off+uint64(i*es), k, s[o+i])
			}
			continue
		}
		for i := 0; i < lanes; i++ {
			a, off, err := g.checkedArena(addr+uint64(i*es), l, es, true)
			if err != nil {
				return err
			}
			vm.StoreInt(a, off, k, s[o+i])
		}
	}
	return nil
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
