package wgvec

import (
	"errors"
	"fmt"
	"time"

	"grover/internal/ir"
	"grover/internal/vm"
)

// Return-value tags for the per-lane stash of a columnar call frame. A
// lane's copy-out reads the stash only when the tag matches the
// destination bank.
const (
	retNone = iota
	retInt
	retFlt
	retVecI
	retVecF
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

	// Per-lane return stash (callee side). Vector stashes are strided by
	// the frame's maximal vector length.
	retSet       []uint8
	retI         []int64
	retF         []float64
	retVI        []int64
	retVF        []float64
	retVILen     int
	retVFLen     int
	maxVI, maxVF int
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
	fr.maxVI, fr.maxVF = 0, 0
	for _, ln := range bf.VecILens {
		fr.maxVI = max(fr.maxVI, ln)
	}
	for _, ln := range bf.VecFLens {
		fr.maxVF = max(fr.maxVF, ln)
	}
	if cap(fr.pcs) < n {
		fr.pcs = make([]int32, n)
		fr.seg = make([]int32, 0, n)
		fr.retSet = make([]uint8, n)
		fr.retI = make([]int64, n)
		fr.retF = make([]float64, n)
	}
	fr.pcs = fr.pcs[:n]
	fr.retSet = fr.retSet[:n]
	fr.retI = fr.retI[:n]
	fr.retF = fr.retF[:n]
	if sz := fr.maxVI * n; cap(fr.retVI) < sz {
		fr.retVI = make([]int64, sz)
	}
	if sz := fr.maxVF * n; cap(fr.retVF) < sz {
		fr.retVF = make([]float64, sz)
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
// work-item at a time. A traced state takes a trace buffer from the
// machine's pool; Release returns it.
func (m *Machine) NewGroup(d *vm.Dispatch, traced bool) vm.Group {
	g := newGroupState(m, d)
	if traced {
		g.trace = m.traces.Get().(*vm.AccessBatch)
	} else if d.Profiler != nil {
		// Untraced retire accounting needs counters of its own; traced
		// launches use the trace's.
		g.retired = make([]int64, g.n)
	}
	return g
}

// groupState executes one worker's work-groups of a launch, one at a
// time. Columns, frames, and scratch buffers are allocated once and reused
// across all the groups it runs.
type groupState struct {
	m          *Machine
	gmem       []byte
	local      []byte
	localTotal int
	stack      int
	// tracer is the running group's; batcher its batch extension (nil:
	// per-access replay).
	tracer  vm.Tracer
	batcher vm.BatchTracer
	prof    *vm.Profiler
	n       int

	// Per-round profiler accumulators; harvested and reset by runGroup
	// at every barrier round when prof is set.
	profLoads  int64
	profStores int64

	gsz, lsz, ngrp, grp [3]int64
	gidCol, lidCol      [3][]int64

	priv   [][]byte
	frames []*colFrame

	allLanes []int32
	lane0    []int32
	barInstr []*ir.Instr
	resumePC []int32

	// trace buffers the current barrier round's accesses during lockstep
	// execution (traced launches only): a column per converged memory
	// instruction, a record per lane otherwise. retired counts per-lane
	// retired instructions; it is the trace's Retired column when tracing.
	trace   *vm.AccessBatch
	retired []int64

	maskT, maskF []int32
	addrs        []uint64
	mathF        []float64
	mathI        []int64
}

func newGroupState(m *Machine, d *vm.Dispatch) *groupState {
	cfg, bf := d.Config, m.funcs[d.Kernel]
	n := cfg.LocalSize[0] * cfg.LocalSize[1] * cfg.LocalSize[2]
	stack := m.p.StackBytes()
	g := &groupState{m: m, gmem: d.Mem.Data, localTotal: d.LocalBytes, stack: stack, prof: d.Profiler, n: n}
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

// Release implements vm.Group: a traced state's trace buffer goes back to
// the machine's pool.
func (g *groupState) Release() {
	if g.trace != nil {
		g.m.traces.Put(g.trace)
		g.trace = nil
	}
}

// Run implements vm.Group: it executes one work-group in barrier-delimited
// rounds. Each round runs lockstep segments until every lane is done or
// suspended at a barrier, replays the buffered trace in work-item-major
// order, checks barrier divergence, then releases the suspended lanes into
// the next round.
func (g *groupState) Run(group [3]int, linear int, tr vm.Tracer) error {
	g.tracer = tr
	g.batcher, _ = tr.(vm.BatchTracer)
	n := g.n
	// Grover-rewritten kernels have no __local memory at all; skip the
	// arena sizing and per-group clear entirely in that case.
	if g.localTotal == 0 {
		g.local = nil
	} else if cap(g.local) < g.localTotal {
		g.local = make([]byte, g.localTotal)
	} else {
		g.local = g.local[:g.localTotal]
		clear(g.local)
	}
	for d := 0; d < 3; d++ {
		g.grp[d] = int64(group[d])
		base := g.grp[d] * g.lsz[d]
		gid, lid := g.gidCol[d], g.lidCol[d]
		for wi := 0; wi < n; wi++ {
			gid[wi] = base + lid[wi]
		}
	}
	fr := g.frames[0]
	fr.frameBase, fr.sp = 0, fr.bf.FrameSize
	for l := 0; l < n; l++ {
		fr.pcs[l] = 0
	}

	if g.tracer != nil {
		g.trace.Reset(n)
		g.retired = g.trace.Retired
		g.tracer.GroupBegin(group, linear)
	}
	doneBefore := 0
	round := 0
	var roundStart time.Time
	for {
		if g.prof != nil {
			roundStart = time.Now()
			g.profLoads, g.profStores = 0, 0
		}
		err := g.schedule(0, fr, g.allLanes)
		var roundRetired int64
		if g.prof != nil {
			// Harvest before replay flushes the per-lane counters to the
			// tracer (which zeroes them); zero manually when untraced.
			for l := 0; l < n; l++ {
				roundRetired += g.retired[l]
			}
			if g.tracer == nil {
				clear(g.retired)
			}
		}
		if g.tracer != nil {
			g.replay()
		}
		if err != nil {
			return err
		}
		var barrierAt *ir.Instr
		atBarrier, doneTotal := 0, 0
		for l := 0; l < n; l++ {
			switch fr.pcs[l] {
			case -1:
				doneTotal++
			case -2:
				atBarrier++
				if barrierAt == nil {
					barrierAt = g.barInstr[l]
				} else if barrierAt != g.barInstr[l] {
					return vm.ErrDifferentBarriers
				}
			}
		}
		if g.prof != nil {
			g.prof.Region(round, time.Since(roundStart), roundRetired, g.profLoads, g.profStores, atBarrier > 0)
			round++
		}
		doneNow := doneTotal - doneBefore
		if atBarrier > 0 && doneNow > 0 {
			return vm.BarrierDivergence(atBarrier, doneNow)
		}
		if atBarrier == 0 {
			break
		}
		if g.tracer != nil {
			g.tracer.Barrier(atBarrier)
		}
		doneBefore = doneTotal
		for l := 0; l < n; l++ {
			if fr.pcs[l] == -2 {
				fr.pcs[l] = g.resumePC[l]
			}
		}
	}
	if g.tracer != nil {
		g.tracer.GroupEnd()
	}
	return nil
}

// replay hands the barrier round's buffered trace to the tracer: in one
// call when it takes batches, else access by access in work-item-major
// order, matching the per-round stream the work-item-at-a-time backends
// produce.
func (g *groupState) replay() {
	if g.batcher != nil {
		g.batcher.AccessBatch(g.trace)
	} else {
		g.trace.Replay(g.tracer)
	}
	g.trace.Clear()
}

// schedule runs the given lanes to completion of the current function
// activation (or to a barrier at kernel level): it repeatedly picks the
// pending program point with minimal (block priority, pc) and executes
// one lockstep segment there with the mask of all lanes waiting at it.
// For structured CFGs the minimum is never past a divergence region's
// post-dominator while lanes remain inside the region, so divergent
// lanes reconverge exactly there.
func (g *groupState) schedule(depth int, fr *colFrame, lanes []int32) error {
	bf := fr.bf
	const inf = int64(1) << 62
	for {
		best := inf
		for _, l := range lanes {
			pc := fr.pcs[l]
			if pc < 0 {
				continue
			}
			key := int64(bf.prio[bf.blockOf[pc]])<<32 | int64(pc)
			if key < best {
				best = key
			}
		}
		if best == inf {
			return nil
		}
		pc := int32(best)
		seg := fr.seg[:0]
		for _, l := range lanes {
			if fr.pcs[l] == pc {
				seg = append(seg, l)
			}
		}
		fr.seg = seg
		if err := g.runSeg(depth, fr, seg, pc); err != nil {
			return err
		}
	}
}

// runSeg executes one lockstep segment and, when anything counts them,
// credits the instructions it retired to the mask's lanes: once, at the
// segment's end however it ends — the mask is constant within a segment and
// the counts only add up, so when within the round a lane is credited makes
// no difference to what the round reports.
func (g *groupState) runSeg(depth int, fr *colFrame, mask []int32, pc int32) error {
	retired, err := g.execSeg(depth, fr, mask, pc)
	if retired != 0 && (g.tracer != nil || g.prof != nil) {
		for _, l := range mask {
			g.retired[l] += retired
		}
	}
	return err
}

// execSeg is the segment itself: starting at pc with the given active
// mask, it advances instruction by instruction — sweeping all masked lanes
// per instruction — until control diverges, the activation returns, or
// (kernel level) a barrier suspends the mask. It returns the instructions
// each masked lane retired on the way.
func (g *groupState) execSeg(depth int, fr *colFrame, mask []int32, pc int32) (retired int64, err error) {
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
			// A branch all active lanes agree on continues the segment
			// inline; only genuine divergence goes back to the scheduler.
			if len(segF) == 0 {
				pc = t
				continue
			}
			if len(segT) == 0 {
				pc = f
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

		case opTrap:
			return retired, laneErr(mask[0], errors.New(bf.Aux[in.Imm].Name))

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
			fr.retSet[l] = retNone
			fr.pcs[l] = -1
		}
	case opRetI:
		src := fr.ri[in.B]
		for _, l := range mask {
			fr.retSet[l] = retInt
			fr.retI[l] = src[l]
			fr.pcs[l] = -1
		}
	case opRetF:
		src := fr.rf[in.B]
		for _, l := range mask {
			fr.retSet[l] = retFlt
			fr.retF[l] = src[l]
			fr.pcs[l] = -1
		}
	case opRetVI:
		ls := fr.bf.VecILens[in.B]
		src := fr.vi[in.B]
		fr.retVILen = ls
		for _, l := range mask {
			fr.retSet[l] = retVecI
			copy(fr.retVI[int(l)*fr.maxVI:int(l)*fr.maxVI+ls], src[int(l)*ls:int(l)*ls+ls])
			fr.pcs[l] = -1
		}
	case opRetVF:
		ls := fr.bf.VecFLens[in.B]
		src := fr.vf[in.B]
		fr.retVFLen = ls
		for _, l := range mask {
			fr.retSet[l] = retVecF
			copy(fr.retVF[int(l)*fr.maxVF:int(l)*fr.maxVF+ls], src[int(l)*ls:int(l)*ls+ls])
			fr.pcs[l] = -1
		}
	}
}

// callCol executes a user function for all masked lanes as a nested
// columnar activation: arguments copy column-to-column, the callee runs
// under the same segment scheduler one depth down, and return values
// copy out per lane from the stash (a lane whose stash tag mismatches
// the destination bank gets zero, exactly like reading the unused field
// of a boxed return value).
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
			ld, ls := callee.VecILens[p.Idx], fr.bf.VecILens[r.Idx]
			m := min(ld, ls)
			dst, src := child.vi[p.Idx], fr.vi[r.Idx]
			for _, l := range mask {
				copy(dst[int(l)*ld:int(l)*ld+m], src[int(l)*ls:int(l)*ls+m])
			}
		case bankVecF:
			ld, ls := callee.VecFLens[p.Idx], fr.bf.VecFLens[r.Idx]
			m := min(ld, ls)
			dst, src := child.vf[p.Idx], fr.vf[r.Idx]
			for _, l := range mask {
				copy(dst[int(l)*ld:int(l)*ld+m], src[int(l)*ls:int(l)*ls+m])
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
				if child.retSet[l] == retInt {
					d[l] = child.retI[l]
				} else {
					d[l] = 0
				}
			}
		case bankFlt:
			d := fr.rf[in.A]
			for _, l := range mask {
				if child.retSet[l] == retFlt {
					d[l] = child.retF[l]
				} else {
					d[l] = 0
				}
			}
		case bankVecI:
			ld := fr.bf.VecILens[in.A]
			d := fr.vi[in.A]
			for _, l := range mask {
				if child.retSet[l] == retVecI {
					m := min(ld, child.retVILen)
					copy(d[int(l)*ld:int(l)*ld+m], child.retVI[int(l)*child.maxVI:int(l)*child.maxVI+m])
				}
			}
		case bankVecF:
			ld := fr.bf.VecFLens[in.A]
			d := fr.vf[in.A]
			for _, l := range mask {
				if child.retSet[l] == retVecF {
					m := min(ld, child.retVFLen)
					copy(d[int(l)*ld:int(l)*ld+m], child.retVF[int(l)*child.maxVF:int(l)*child.maxVF+m])
				}
			}
		}
	}
	return nil
}
