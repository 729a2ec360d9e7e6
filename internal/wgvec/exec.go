package wgvec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"grover/internal/bcode"
	"grover/internal/clc"
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
	bf *bcode.BFunc
	rp *regionProgram
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
func (fr *colFrame) ensure(bf *bcode.BFunc, rp *regionProgram, n int) {
	fr.rp = rp
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

// Launch implements vm.Executor with the interpreter's launch contract:
// traced launches distribute work-groups round-robin over workers,
// untraced launches balance groups dynamically, and work-items within a
// group advance in barrier-delimited rounds — here as lockstep segments
// over columnar registers rather than one work-item at a time.
func (m *Machine) Launch(kernel string, cfg vm.Config, gmem *vm.GlobalMem, opts *vm.LaunchOpts) error {
	p := m.bm.Program()
	fn := p.Module.Kernel(kernel)
	if fn == nil {
		return fmt.Errorf("vm: no kernel %q", kernel)
	}
	bf := m.bm.Func(fn)
	ncfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	if len(ncfg.Args) != len(fn.Params) {
		return fmt.Errorf("vm: kernel %s expects %d args, got %d", kernel, len(fn.Params), len(ncfg.Args))
	}
	if opts == nil {
		opts = &vm.LaunchOpts{}
	}
	workers, tracerFor, prof := opts.Workers, opts.TracerFor, opts.Profiler
	if prof != nil {
		prof.LaunchBegin(kernel, Name)
		start := time.Now()
		defer func() { prof.LaunchDone(time.Since(start)) }()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	groups := [3]int{
		ncfg.GlobalSize[0] / ncfg.LocalSize[0],
		ncfg.GlobalSize[1] / ncfg.LocalSize[1],
		ncfg.GlobalSize[2] / ncfg.LocalSize[2],
	}
	nGroups := groups[0] * groups[1] * groups[2]
	if nGroups < workers {
		workers = nGroups
	}
	if workers == 0 {
		return nil
	}

	// Dynamic local buffers: lay out after the static local allocas.
	staticLocal := bf.LocalSize
	dynOff := make([]int, len(ncfg.Args))
	localTotal := staticLocal
	for i, a := range ncfg.Args {
		if a.Kind == vm.ArgLocalBuf {
			const align = 16
			localTotal = (localTotal + align - 1) &^ (align - 1)
			dynOff[i] = localTotal
			localTotal += a.LocalBytes
		}
	}

	paramI := make([]int64, len(ncfg.Args))
	paramF := make([]float64, len(ncfg.Args))
	for i, a := range ncfg.Args {
		switch a.Kind {
		case vm.ArgBuffer:
			paramI[i] = int64(a.Buf.Addr())
		case vm.ArgInt:
			paramI[i] = a.I
		case vm.ArgFloat:
			paramF[i] = a.F
		case vm.ArgLocalBuf:
			paramI[i] = int64(vm.MakeAddr(clc.ASLocal, uint64(dynOff[i])))
		}
	}

	n := ncfg.LocalSize[0] * ncfg.LocalSize[1] * ncfg.LocalSize[2]
	stack := p.StackBytes()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	sched := vm.NewGroupSchedule(nGroups, workers, tracerFor != nil)
	newState := func() *groupState {
		g := newGroupState(m, bf, ncfg, gmem.Data, paramI, paramF, localTotal, stack, n)
		g.prof = prof
		if prof != nil && tracerFor == nil {
			// Untraced retire accounting needs counters of its own;
			// traced launches use the trace's.
			g.retired = make([]int64, n)
		}
		return g
	}
	// A traced launch may ask for far more workers than can run (the device
	// model asks for GOMAXPROCS, but a caller that wants one stream per
	// simulated core asks for up to 60), and a traced group needs its
	// execution state — register columns, private stacks — and a trace
	// buffer here, often another in its tracer.
	// So the launch owns only as many of each as the host runs goroutines at
	// a time and a worker holds one for the length of a group: the rest wait
	// here instead of sitting preempted on full-grown buffers of their own.
	// Each worker's stream is its own, so the order between workers is free.
	// What is lent starts out as nil: the first worker to borrow one builds
	// it, so the states are built side by side and only as many as get used.
	var lent chan *groupState
	if tracerFor != nil {
		lent = make(chan *groupState, min(workers, runtime.GOMAXPROCS(0)))
		for i := 0; i < cap(lent); i++ {
			lent <- nil
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var g *groupState
			var tr vm.Tracer
			var batcher vm.BatchTracer
			if tracerFor != nil {
				tr = tracerFor(worker)
				batcher, _ = tr.(vm.BatchTracer)
			} else {
				g = newState()
			}
			cur := sched.Cursor(worker)
			for gi := cur.Next(); gi >= 0; gi = cur.Next() {
				gz := gi / (groups[0] * groups[1])
				rem := gi % (groups[0] * groups[1])
				gy := rem / groups[0]
				gx := rem % groups[0]
				if lent != nil {
					if g = <-lent; g == nil {
						g = newState()
						g.trace = m.traces.Get().(*vm.AccessBatch)
					}
					g.tracer, g.batcher = tr, batcher
				}
				err := g.runGroup([3]int{gx, gy, gz}, gi)
				if lent != nil {
					lent <- g
				}
				if err != nil {
					vm.AbortGroup(tr)
					errs[worker] = fmt.Errorf("group (%d,%d,%d): %w", gx, gy, gz, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < cap(lent); i++ {
		if g := <-lent; g != nil {
			m.traces.Put(g.trace)
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// groupState executes work-groups one at a time: an untraced worker's own
// for all its groups, or one of a traced launch's, lent to a worker for the
// length of a group. Columns, frames, and scratch buffers are allocated once
// and reused across all the groups it runs.
type groupState struct {
	m          *Machine
	gmem       []byte
	local      []byte
	localTotal int
	stack      int
	// tracer is the borrowing worker's; batcher its batch extension (nil:
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

func newGroupState(m *Machine, bf *bcode.BFunc, cfg vm.Config, gmem []byte,
	paramI []int64, paramF []float64, localTotal, stack, n int) *groupState {
	g := &groupState{m: m, gmem: gmem, localTotal: localTotal, stack: stack, n: n}
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
	fr.ensure(bf, m.progs[bf.Fn], n)
	for k, pr := range bf.Params {
		switch pr.Bank {
		case bcode.BankInt:
			col := fr.ri[pr.Idx]
			v := paramI[k]
			for i := range col {
				col[i] = v
			}
		case bcode.BankFlt:
			col := fr.rf[pr.Idx]
			v := paramF[k]
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

// runGroup executes one work-group in barrier-delimited rounds. Each
// round runs lockstep segments until every lane is done or suspended at
// a barrier, replays the buffered trace in work-item-major order, checks
// barrier divergence with the interpreter's exact diagnostics, then
// releases the suspended lanes into the next round.
func (g *groupState) runGroup(group [3]int, linear int) error {
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
					return fmt.Errorf("barrier divergence: work-items reached different barriers")
				}
			}
		}
		if g.prof != nil {
			g.prof.Region(round, time.Since(roundStart), roundRetired, g.profLoads, g.profStores, atBarrier > 0)
			round++
		}
		doneNow := doneTotal - doneBefore
		if atBarrier > 0 && doneNow > 0 {
			return fmt.Errorf("barrier divergence: %d work-items at a barrier while %d finished", atBarrier, doneNow)
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
	rp := fr.rp
	const inf = int64(1) << 62
	for {
		best := inf
		for _, l := range lanes {
			pc := fr.pcs[l]
			if pc < 0 {
				continue
			}
			key := int64(rp.prio[rp.blockOf[pc]])<<32 | int64(pc)
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
	rp := fr.rp
	n := g.n
	for {
		in := &code[pc]
		retired += int64(in.Retire)
		switch in.Op {
		case bcode.OpNop:

		case bcode.OpJmp:
			pc = int32(in.Imm)
			continue

		case bcode.OpCondBrI, bcode.OpCondBrF:
			t, f := int32(in.Imm), in.N
			segT, segF := g.maskT[:0], g.maskF[:0]
			if in.Op == bcode.OpCondBrI {
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

		case bcode.OpRet, bcode.OpRetI, bcode.OpRetF, bcode.OpRetVI, bcode.OpRetVF:
			if depth == 0 {
				for _, l := range mask {
					fr.pcs[l] = -1
				}
				return retired, nil
			}
			g.retLanes(fr, in, mask)
			return retired, nil

		case bcode.OpBarrier:
			if depth != 0 {
				return retired, laneErr(mask[0], errors.New("vm: barrier inside a function call is unsupported"))
			}
			for _, l := range mask {
				fr.pcs[l] = -2
				g.barInstr[l] = in.In
				g.resumePC[l] = pc + 1
			}
			return retired, nil

		case bcode.OpTrap:
			return retired, laneErr(mask[0], errors.New(bf.Aux[in.Imm].Name))

		case bcode.OpCall:
			if err := g.callCol(depth, fr, in, mask); err != nil {
				return retired, err
			}

		case bcode.OpLdI8, bcode.OpLdU8, bcode.OpLdI16, bcode.OpLdU16, bcode.OpLdI32,
			bcode.OpLdU32, bcode.OpLdI64, bcode.OpLdF32, bcode.OpLdF64:
			if err := g.loadCol(fr, in, mask, false, rp.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}
		case bcode.OpLdXI8, bcode.OpLdXU8, bcode.OpLdXI16, bcode.OpLdXU16, bcode.OpLdXI32,
			bcode.OpLdXU32, bcode.OpLdXI64, bcode.OpLdXF32, bcode.OpLdXF64:
			if err := g.loadCol(fr, in, mask, true, rp.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}

		case bcode.OpStI8, bcode.OpStI16, bcode.OpStI32, bcode.OpStI64, bcode.OpStF32, bcode.OpStF64:
			if err := g.storeCol(fr, in, mask, false, rp.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}
		case bcode.OpStXI8, bcode.OpStXI16, bcode.OpStXI32, bcode.OpStXI64, bcode.OpStXF32, bcode.OpStXF64:
			if err := g.storeCol(fr, in, mask, true, rp.uniform[pc] && len(mask) == n); err != nil {
				return retired, err
			}

		case bcode.OpSlotLdI, bcode.OpSlotLdF, bcode.OpSlotStI, bcode.OpSlotStF:
			g.slotOp(fr, in, mask)

		case bcode.OpLdVI, bcode.OpLdVF:
			if err := g.loadVecCol(fr, in, mask, false); err != nil {
				return retired, err
			}
		case bcode.OpLdXVI, bcode.OpLdXVF:
			if err := g.loadVecCol(fr, in, mask, true); err != nil {
				return retired, err
			}
		case bcode.OpStVI, bcode.OpStVF:
			if err := g.storeVecCol(fr, in, mask, false); err != nil {
				return retired, err
			}
		case bcode.OpStXVI, bcode.OpStXVF:
			if err := g.storeVecCol(fr, in, mask, true); err != nil {
				return retired, err
			}

		default:
			if rp.uniform[pc] && len(mask) == n {
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
func (g *groupState) retLanes(fr *colFrame, in *bcode.Inst, mask []int32) {
	switch in.Op {
	case bcode.OpRet:
		for _, l := range mask {
			fr.retSet[l] = retNone
			fr.pcs[l] = -1
		}
	case bcode.OpRetI:
		src := fr.ri[in.B]
		for _, l := range mask {
			fr.retSet[l] = retInt
			fr.retI[l] = src[l]
			fr.pcs[l] = -1
		}
	case bcode.OpRetF:
		src := fr.rf[in.B]
		for _, l := range mask {
			fr.retSet[l] = retFlt
			fr.retF[l] = src[l]
			fr.pcs[l] = -1
		}
	case bcode.OpRetVI:
		ls := fr.bf.VecILens[in.B]
		src := fr.vi[in.B]
		fr.retVILen = ls
		for _, l := range mask {
			fr.retSet[l] = retVecI
			copy(fr.retVI[int(l)*fr.maxVI:int(l)*fr.maxVI+ls], src[int(l)*ls:int(l)*ls+ls])
			fr.pcs[l] = -1
		}
	case bcode.OpRetVF:
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
func (g *groupState) callCol(depth int, fr *colFrame, in *bcode.Inst, mask []int32) error {
	ax := &fr.bf.Aux[in.Imm]
	callee := ax.Callee
	child := g.frame(depth + 1)
	child.ensure(callee, g.m.progs[callee.Fn], g.n)
	for i, r := range ax.Refs {
		p := callee.Params[i]
		switch p.Bank {
		case bcode.BankInt:
			dst, src := child.ri[p.Idx], fr.ri[r.Idx]
			for _, l := range mask {
				dst[l] = src[l]
			}
		case bcode.BankFlt:
			dst, src := child.rf[p.Idx], fr.rf[r.Idx]
			for _, l := range mask {
				dst[l] = src[l]
			}
		case bcode.BankVecI:
			ld, ls := callee.VecILens[p.Idx], fr.bf.VecILens[r.Idx]
			m := min(ld, ls)
			dst, src := child.vi[p.Idx], fr.vi[r.Idx]
			for _, l := range mask {
				copy(dst[int(l)*ld:int(l)*ld+m], src[int(l)*ls:int(l)*ls+m])
			}
		case bcode.BankVecF:
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
		switch bcode.Bank(in.Sub) {
		case bcode.BankInt:
			d := fr.ri[in.A]
			for _, l := range mask {
				if child.retSet[l] == retInt {
					d[l] = child.retI[l]
				} else {
					d[l] = 0
				}
			}
		case bcode.BankFlt:
			d := fr.rf[in.A]
			for _, l := range mask {
				if child.retSet[l] == retFlt {
					d[l] = child.retF[l]
				} else {
					d[l] = 0
				}
			}
		case bcode.BankVecI:
			ld := fr.bf.VecILens[in.A]
			d := fr.vi[in.A]
			for _, l := range mask {
				if child.retSet[l] == retVecI {
					m := min(ld, child.retVILen)
					copy(d[int(l)*ld:int(l)*ld+m], child.retVI[int(l)*child.maxVI:int(l)*child.maxVI+m])
				}
			}
		case bcode.BankVecF:
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
