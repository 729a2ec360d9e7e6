package wgvec

import (
	"errors"
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// colFrame is the pooled columnar register file for one call depth:
// scalar banks as [register][lane] columns, vector banks as flat
// lane-major columns (lane l of register r occupies
// vi[r][l*L:(l+1)*L] with L the register's lane count).
type colFrame struct {
	bf *bfunc
	n  int

	ri [][]int64
	rf [][]float64
	vi [][]int64
	vf [][]float64

	pcs []int32 // per-lane pending pc; -1 done/returned, -2 at a barrier
	seg []int32 // current segment mask (scratch, rebuilt per pick)

	frameBase, sp int

	// Per-lane return stash (callee side), in the bank of the function's
	// return type. A vector stash is strided by the return type's length.
	retI  []int64
	retF  []float64
	retVI []int64
	retVF []float64
}

// growCols shapes a scalar column set to nregs columns of n lanes.
func growCols[T int64 | float64](cols [][]T, nregs, n int) [][]T {
	if cap(cols) < nregs {
		grown := make([][]T, nregs)
		copy(grown, cols)
		cols = grown
	}
	cols = cols[:nregs]
	for i := range cols {
		if cap(cols[i]) < n {
			cols[i] = make([]T, n)
		}
		cols[i] = cols[i][:n]
	}
	return cols
}

// growVecCols shapes a vector column set: column i holds lens[i] lanes
// per work-item, flat lane-major.
func growVecCols[T int64 | float64](cols [][]T, lens []int, n int) [][]T {
	if cap(cols) < len(lens) {
		grown := make([][]T, len(lens))
		copy(grown, cols)
		cols = grown
	}
	cols = cols[:len(lens)]
	for i, ln := range lens {
		sz := ln * n
		if cap(cols[i]) < sz {
			cols[i] = make([]T, sz)
		}
		cols[i] = cols[i][:sz]
	}
	return cols
}

// ensure shapes the frame for bf with n lanes, refilling constant
// columns only when the shape changes (constant and parameter registers
// are never written by compiled code, so a matching shape stays valid).
func (fr *colFrame) ensure(bf *bfunc, n int) {
	if fr.bf == bf && fr.n == n {
		return
	}
	fr.bf, fr.n = bf, n
	fr.ri = growCols(fr.ri, bf.NInt, n)
	fr.rf = growCols(fr.rf, bf.NFlt, n)
	fr.vi = growVecCols(fr.vi, bf.VecILens, n)
	fr.vf = growVecCols(fr.vf, bf.VecFLens, n)
	if cap(fr.pcs) < n {
		fr.pcs = make([]int32, n)
		fr.seg = make([]int32, 0, n)
		fr.retI = make([]int64, n)
		fr.retF = make([]float64, n)
	}
	fr.pcs = fr.pcs[:n]
	fr.retI = fr.retI[:n]
	fr.retF = fr.retF[:n]
	if vt, ok := bf.Fn.Ret.(*clc.VectorType); ok && cap(fr.retVI) < vt.Len*n {
		fr.retVI = make([]int64, vt.Len*n)
		fr.retVF = make([]float64, vt.Len*n)
	}
	for ci, v := range bf.IntConsts {
		col := fr.ri[ci]
		for i := range col {
			col[i] = v
		}
	}
	for ci, v := range bf.FltConsts {
		col := fr.rf[ci]
		for i := range col {
			col[i] = v
		}
	}
}

// NewGroup implements vm.Executor: a state that runs work-groups of d the
// way the interpreter does — work-items advance in barrier-delimited rounds
// — here as lockstep segments over columnar registers rather than one
// work-item at a time.
func (m *Machine) NewGroup(d *vm.Dispatch, local []byte) vm.Group {
	return newGroupState(m, d, local)
}

// groupState executes one worker's work-groups of a launch, one at a
// time. Columns, frames, and scratch buffers are allocated once and reused
// across all the groups it runs.
type groupState struct {
	gmem  []byte
	local []byte
	stack int
	n     int

	gsz, lsz, ngrp, grp [3]int64
	gidCol, lidCol      [3][]int64

	priv   [][]byte
	frames []*colFrame

	allLanes []int32
	lane0    []int32
	barInstr []*ir.Instr
	resumePC []int32

	// trace is the running round's (nil when untraced): a column per
	// converged memory instruction, a record per lane otherwise, and each
	// lane's retired count. retired, loads and stores sum the round's.
	trace                  *vm.AccessBatch
	retired, loads, stores int64

	maskT, maskF []int32
	addrs        []uint64
	mathF        []float64
	mathI        []int64
}

func newGroupState(m *Machine, d *vm.Dispatch, local []byte) *groupState {
	cfg, bf := d.Config, m.funcs[d.Kernel]
	n := cfg.LocalSize[0] * cfg.LocalSize[1] * cfg.LocalSize[2]
	stack := m.p.StackBytes()
	g := &groupState{gmem: d.Mem.Data, local: local, stack: stack, n: n}
	for d := 0; d < 3; d++ {
		g.gsz[d] = int64(cfg.GlobalSize[d])
		g.lsz[d] = int64(cfg.LocalSize[d])
		g.ngrp[d] = int64(cfg.GlobalSize[d] / cfg.LocalSize[d])
		g.gidCol[d] = make([]int64, n)
		g.lidCol[d] = make([]int64, n)
	}
	lx0, lx1 := cfg.LocalSize[0], cfg.LocalSize[1]
	for wi := 0; wi < n; wi++ {
		lz := wi / (lx0 * lx1)
		rem := wi % (lx0 * lx1)
		g.lidCol[0][wi] = int64(rem % lx0)
		g.lidCol[1][wi] = int64(rem / lx0)
		g.lidCol[2][wi] = int64(lz)
	}
	g.priv = make([][]byte, n)
	for wi := range g.priv {
		g.priv[wi] = make([]byte, stack)
	}
	g.allLanes = make([]int32, n)
	for i := range g.allLanes {
		g.allLanes[i] = int32(i)
	}
	g.lane0 = []int32{0}
	g.barInstr = make([]*ir.Instr, n)
	g.resumePC = make([]int32, n)
	g.maskT = make([]int32, 0, n)
	g.maskF = make([]int32, 0, n)
	g.addrs = make([]uint64, n)

	fr := g.frame(0)
	fr.ensure(bf, n)
	for k, pr := range bf.Params {
		switch pr.Bank {
		case bankInt:
			col := fr.ri[pr.Idx]
			v := d.ParamI[k]
			for i := range col {
				col[i] = v
			}
		case bankFlt:
			col := fr.rf[pr.Idx]
			v := d.ParamF[k]
			for i := range col {
				col[i] = v
			}
		}
	}
	return g
}

// frame returns the pooled columnar frame for a call depth.
func (g *groupState) frame(depth int) *colFrame {
	for len(g.frames) <= depth {
		g.frames = append(g.frames, &colFrame{})
	}
	return g.frames[depth]
}

func laneErr(l int32, err error) error {
	return fmt.Errorf("work-item %d: %w", l, err)
}

// Begin implements vm.Group.
func (g *groupState) Begin(group [3]int) {
	for d := 0; d < 3; d++ {
		g.grp[d] = int64(group[d])
		base := g.grp[d] * g.lsz[d]
		gid, lid := g.gidCol[d], g.lidCol[d]
		for wi := range gid {
			gid[wi] = base + lid[wi]
		}
	}
	fr := g.frames[0]
	fr.frameBase, fr.sp = 0, fr.bf.FrameSize
	clear(fr.pcs)
}

// Round implements vm.Group: it releases the lanes the last round
// suspended at a barrier and runs lockstep segments until every lane is
// done or suspended again.
func (g *groupState) Round(trace *vm.AccessBatch) (vm.RoundStats, error) {
	g.trace, g.retired, g.loads, g.stores = trace, 0, 0, 0
	fr := g.frames[0]
	doneBefore := 0
	for l, pc := range fr.pcs {
		switch pc {
		case -1:
			doneBefore++
		case -2:
			fr.pcs[l] = g.resumePC[l]
		}
	}
	err := g.schedule(0, fr, g.allLanes)
	s := vm.RoundStats{Retired: g.retired, Loads: g.loads, Stores: g.stores}
	if err != nil {
		return s, err
	}
	// Every lane is done (-1) or at a barrier (-2) now.
	for l, pc := range fr.pcs {
		if pc == -1 {
			s.Finished++
			continue
		}
		if s.AtBarrier > 0 && g.barInstr[l] != s.Barrier {
			s.AtBarrier, s.Barrier = s.AtBarrier+1, nil
			return s, nil
		}
		s.AtBarrier, s.Barrier = s.AtBarrier+1, g.barInstr[l]
	}
	s.Finished -= doneBefore
	return s, nil
}

// schedule runs the given lanes to completion of the current function
// activation (or to a barrier at kernel level): it repeatedly picks the
// pending program point with the least key (block priority, pc) and runs
// one lockstep segment there with the mask of all lanes waiting at it. A
// segment parks its mask at any jump whose target's key is not below the
// least key of the lanes left waiting, so those run first and the two
// meet where their paths join. For structured CFGs the least key is never
// past a divergence region's post-dominator while lanes remain inside the
// region, so divergent lanes reconverge exactly there.
func (g *groupState) schedule(depth int, fr *colFrame, lanes []int32) error {
	bf := fr.bf
	for {
		best := noKey
		for _, l := range lanes {
			if pc := fr.pcs[l]; pc >= 0 {
				best = min(best, bf.key(pc))
			}
		}
		if best == noKey {
			return nil
		}
		pc, rest := int32(best), noKey
		seg := fr.seg[:0]
		for _, l := range lanes {
			switch p := fr.pcs[l]; {
			case p == pc:
				seg = append(seg, l)
			case p >= 0:
				rest = min(rest, bf.key(p))
			}
		}
		fr.seg = seg
		if err := g.runSeg(depth, fr, seg, pc, rest); err != nil {
			return err
		}
	}
}

// runSeg executes one lockstep segment and credits the instructions it
// retired to the round and, when tracing, to the mask's lanes: once, at the
// segment's end however it ends — the mask is constant within a segment and
// the counts only add up, so when within the round a lane is credited makes
// no difference to what the round reports.
func (g *groupState) runSeg(depth int, fr *colFrame, mask []int32, pc int32, rest int64) error {
	retired, err := g.execSeg(depth, fr, mask, pc, rest)
	g.retired += retired * int64(len(mask))
	if retired != 0 && g.trace != nil {
		for _, l := range mask {
			g.trace.Retired[l] += retired
		}
	}
	return err
}

// parks reports whether a segment jumping to pc stops there, rest being
// the least key of the lanes waiting elsewhere, and if so leaves the mask
// at pc for the scheduler.
func (fr *colFrame) parks(mask []int32, pc int32, rest int64) bool {
	if fr.bf.key(pc) < rest {
		return false
	}
	for _, l := range mask {
		fr.pcs[l] = pc
	}
	return true
}

// execSeg is the segment itself: starting at pc with the given active
// mask, it advances instruction by instruction — sweeping all masked lanes
// per instruction — until control diverges, a jump parks (see schedule),
// the activation returns, or (kernel level) a barrier suspends the mask.
// It returns the instructions each masked lane retired on the way.
func (g *groupState) execSeg(depth int, fr *colFrame, mask []int32, pc int32, rest int64) (retired int64, err error) {
	bf := fr.bf
	code := bf.Code
	n := g.n
	for {
		in := &code[pc]
		retired += int64(in.Retire)
		switch in.Op {
		case opNop:

		case opJmp:
			pc = int32(in.Imm)
			if fr.parks(mask, pc, rest) {
				return retired, nil
			}
			continue

		case opCondBrI, opCondBrF:
			t, f := int32(in.Imm), in.N
			segT, segF := g.maskT[:0], g.maskF[:0]
			if in.Op == opCondBrI {
				x := fr.ri[in.A]
				for _, l := range mask {
					if x[l] != 0 {
						segT = append(segT, l)
					} else {
						segF = append(segF, l)
					}
				}
			} else {
				x := fr.rf[in.A]
				for _, l := range mask {
					if x[l] != 0 {
						segT = append(segT, l)
					} else {
						segF = append(segF, l)
					}
				}
			}
			g.maskT, g.maskF = segT, segF
			// A branch all active lanes agree on is a jump; only genuine
			// divergence goes back to the scheduler.
			if len(segF) == 0 || len(segT) == 0 {
				if pc = t; len(segT) == 0 {
					pc = f
				}
				if fr.parks(mask, pc, rest) {
					return retired, nil
				}
				continue
			}
			for _, l := range segT {
				fr.pcs[l] = t
			}
			for _, l := range segF {
				fr.pcs[l] = f
			}
			return retired, nil

		case opRet, opRetI, opRetF, opRetVI, opRetVF:
			if depth == 0 {
				for _, l := range mask {
					fr.pcs[l] = -1
				}
				return retired, nil
			}
			g.retLanes(fr, in, mask)
			return retired, nil

		case opBarrier:
			if depth != 0 {
				return retired, laneErr(mask[0], errors.New("vm: barrier inside a function call is unsupported"))
			}
			for _, l := range mask {
				fr.pcs[l] = -2
				g.barInstr[l] = in.In
				g.resumePC[l] = pc + 1
			}
			return retired, nil

		case opCall:
			if err := g.callCol(depth, fr, in, mask); err != nil {
				return retired, err
			}

		case opLd, opLdX:
			if err := g.loadCol(fr, in, mask, in.Op == opLdX, bf.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}
		case opSt, opStX:
			if err := g.storeCol(fr, in, mask, in.Op == opStX, bf.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}
		case opSlotLd, opSlotSt:
			g.slotOp(fr, in, mask)

		default:
			if bf.uniform[pc] && len(mask) == n {
				if bank, ok := destBank(in.Op); ok {
					// Execute once on lane 0 and broadcast the result
					// column-wide; retire is counted for every lane.
					if err := g.execOp(fr, in, g.lane0, pc); err != nil {
						return retired, err
					}
					fr.broadcast(bank, in.A, n)
					pc++
					continue
				}
			}
			if err := g.execOp(fr, in, mask, pc); err != nil {
				return retired, err
			}
		}
		pc++
	}
}

// retLanes stashes per-lane return values and retires the mask from the
// current activation.
func (g *groupState) retLanes(fr *colFrame, in *inst, mask []int32) {
	switch in.Op {
	case opRet:
		for _, l := range mask {
			fr.pcs[l] = -1
		}
	case opRetI:
		src := fr.ri[in.B]
		for _, l := range mask {
			fr.retI[l] = src[l]
			fr.pcs[l] = -1
		}
	case opRetF:
		src := fr.rf[in.B]
		for _, l := range mask {
			fr.retF[l] = src[l]
			fr.pcs[l] = -1
		}
	case opRetVI:
		ls := fr.bf.VecILens[in.B]
		src := fr.vi[in.B]
		for _, l := range mask {
			copy(fr.retVI[int(l)*ls:int(l)*ls+ls], src[int(l)*ls:int(l)*ls+ls])
			fr.pcs[l] = -1
		}
	case opRetVF:
		ls := fr.bf.VecFLens[in.B]
		src := fr.vf[in.B]
		for _, l := range mask {
			copy(fr.retVF[int(l)*ls:int(l)*ls+ls], src[int(l)*ls:int(l)*ls+ls])
			fr.pcs[l] = -1
		}
	}
}

// callCol executes a user function for all masked lanes as a nested
// columnar activation: arguments copy column-to-column, the callee runs
// under the same segment scheduler one depth down, and return values
// copy out per lane from the stash. Verified IR gives every argument its
// parameter's type and every return the function's.
func (g *groupState) callCol(depth int, fr *colFrame, in *inst, mask []int32) error {
	ax := &fr.bf.Aux[in.Imm]
	callee := ax.Callee
	child := g.frame(depth + 1)
	child.ensure(callee, g.n)
	for i, r := range ax.Refs {
		p := callee.Params[i]
		switch p.Bank {
		case bankInt:
			dst, src := child.ri[p.Idx], fr.ri[r.Idx]
			for _, l := range mask {
				dst[l] = src[l]
			}
		case bankFlt:
			dst, src := child.rf[p.Idx], fr.rf[r.Idx]
			for _, l := range mask {
				dst[l] = src[l]
			}
		case bankVecI:
			ln, dst, src := callee.VecILens[p.Idx], child.vi[p.Idx], fr.vi[r.Idx]
			for _, l := range mask {
				copy(dst[int(l)*ln:int(l)*ln+ln], src[int(l)*ln:])
			}
		case bankVecF:
			ln, dst, src := callee.VecFLens[p.Idx], child.vf[p.Idx], fr.vf[r.Idx]
			for _, l := range mask {
				copy(dst[int(l)*ln:int(l)*ln+ln], src[int(l)*ln:])
			}
		}
	}
	child.frameBase = fr.sp
	child.sp = fr.sp + callee.FrameSize
	if child.sp > g.stack {
		return laneErr(mask[0], fmt.Errorf("vm: private stack overflow calling %s", callee.Fn.Name))
	}
	for _, l := range mask {
		child.pcs[l] = 0
	}
	if err := g.schedule(depth+1, child, mask); err != nil {
		return err
	}
	if in.A >= 0 {
		switch bank(in.Sub) {
		case bankInt:
			d := fr.ri[in.A]
			for _, l := range mask {
				d[l] = child.retI[l]
			}
		case bankFlt:
			d := fr.rf[in.A]
			for _, l := range mask {
				d[l] = child.retF[l]
			}
		case bankVecI:
			ln, d := fr.bf.VecILens[in.A], fr.vi[in.A]
			for _, l := range mask {
				copy(d[int(l)*ln:int(l)*ln+ln], child.retVI[int(l)*ln:])
			}
		case bankVecF:
			ln, d := fr.bf.VecFLens[in.A], fr.vf[in.A]
			for _, l := range mask {
				copy(d[int(l)*ln:int(l)*ln+ln], child.retVF[int(l)*ln:])
			}
		}
	}
	return nil
}
