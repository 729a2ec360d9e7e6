package bcode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// regFile is one register-file instance shaped for a BFunc: dense scalar
// banks plus per-register lane slices for the vector banks.
type regFile struct {
	ri []int64
	rf []float64
	vi [][]int64
	vf [][]float64
}

// ensure resizes the file to bf's shape, reusing backing storage.
func (r *regFile) ensure(bf *BFunc) {
	if cap(r.ri) < bf.NInt {
		r.ri = make([]int64, bf.NInt)
	}
	r.ri = r.ri[:bf.NInt]
	if cap(r.rf) < bf.NFlt {
		r.rf = make([]float64, bf.NFlt)
	}
	r.rf = r.rf[:bf.NFlt]
	if cap(r.vi) < len(bf.VecILens) {
		grown := make([][]int64, len(bf.VecILens))
		copy(grown, r.vi)
		r.vi = grown
	}
	r.vi = r.vi[:len(bf.VecILens)]
	for i, n := range bf.VecILens {
		if cap(r.vi[i]) < n {
			r.vi[i] = make([]int64, n)
		}
		r.vi[i] = r.vi[i][:n]
	}
	if cap(r.vf) < len(bf.VecFLens) {
		grown := make([][]float64, len(bf.VecFLens))
		copy(grown, r.vf)
		r.vf = grown
	}
	r.vf = r.vf[:len(bf.VecFLens)]
	for i, n := range bf.VecFLens {
		if cap(r.vf[i]) < n {
			r.vf[i] = make([]float64, n)
		}
		r.vf[i] = r.vf[i][:n]
	}
}

// bFrame is a pooled register file for one call depth.
type bFrame struct {
	regs regFile
}

// wCtx is one work-item's resumable execution state. The current register
// file is exposed as direct slice fields (swapped on call/return) so the
// dispatch loop indexes banks without indirection.
type wCtx struct {
	wi int
	bf *BFunc
	pc int32

	ri  []int64
	rfl []float64
	vi  [][]int64
	vf  [][]float64

	gid, lid, grp [3]int64
	frameBase, sp int

	done    bool
	pending int64 // retired instructions not yet flushed to the tracer

	gmem []byte
	lmem []byte
	pmem []byte

	// Return-value stash for nested calls. OpRet* clears the fields it
	// does not set, mirroring the interpreter's fresh boxed return value.
	retI  int64
	retF  float64
	retVI []int64
	retVF []float64

	kern   regFile // kernel-level register file
	depth  int
	frames []*bFrame
}

// frame returns the pooled frame for the current call depth.
func (c *wCtx) frame() *bFrame {
	for len(c.frames) <= c.depth {
		c.frames = append(c.frames, &bFrame{})
	}
	return c.frames[c.depth]
}

// Launch implements vm.Executor with the interpreter's exact scheduling:
// traced launches distribute work-groups round-robin over workers with
// each worker running its groups in ascending order, untraced launches
// balance groups dynamically, and work-items within a group advance in
// barrier-delimited rounds.
func (m *Machine) Launch(kernel string, cfg vm.Config, gmem *vm.GlobalMem, opts *vm.LaunchOpts) error {
	fn := m.p.Module.Kernel(kernel)
	if fn == nil {
		return fmt.Errorf("vm: no kernel %q", kernel)
	}
	bf := m.funcs[fn]
	ncfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	if len(ncfg.Args) != len(fn.Params) {
		return fmt.Errorf("vm: kernel %s expects %d args, got %d", kernel, len(fn.Params), len(ncfg.Args))
	}
	workers := 1
	var tracerFor func(int) vm.Tracer
	var prof *vm.Profiler
	if opts != nil {
		workers = opts.Workers
		tracerFor = opts.TracerFor
		prof = opts.Profiler
	}
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

	// Parameter payloads by Bank. Only the payload matching the argument's
	// kind is set; a parameter whose Bank reads the other payload sees
	// zero, exactly like reading the unused field of a boxed value.
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

	var wg sync.WaitGroup
	errs := make([]error, workers)
	sched := vm.NewGroupSchedule(nGroups, workers, tracerFor != nil)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var tr vm.Tracer
			if tracerFor != nil {
				tr = tracerFor(worker)
			}
			g := &groupRun{
				m: m, bf: bf, cfg: ncfg, gmem: gmem,
				paramI: paramI, paramF: paramF,
				localTotal: localTotal, tracer: tr, prof: prof,
			}
			for d := 0; d < 3; d++ {
				g.gsz[d] = int64(ncfg.GlobalSize[d])
				g.lsz[d] = int64(ncfg.LocalSize[d])
				g.ngrp[d] = int64(ncfg.GlobalSize[d] / ncfg.LocalSize[d])
			}
			cur := sched.Cursor(worker)
			for gi := cur.Next(); gi >= 0; gi = cur.Next() {
				gz := gi / (groups[0] * groups[1])
				rem := gi % (groups[0] * groups[1])
				gy := rem / groups[0]
				gx := rem % groups[0]
				if err := g.runGroup([3]int{gx, gy, gz}, gi); err != nil {
					vm.AbortGroup(tr)
					errs[worker] = fmt.Errorf("group (%d,%d,%d): %w", gx, gy, gz, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// groupRun runs the work-groups assigned to one worker.
type groupRun struct {
	m          *Machine
	bf         *BFunc
	cfg        vm.Config
	gmem       *vm.GlobalMem
	paramI     []int64
	paramF     []float64
	localTotal int
	tracer     vm.Tracer
	prof       *vm.Profiler

	// Per-round profiler accumulators; harvested and reset by runGroup
	// at every barrier round when prof is set.
	profRetired int64
	profLoads   int64
	profStores  int64

	gsz, lsz, ngrp [3]int64

	local []byte
	ctxs  []wCtx
	priv  [][]byte

	// Scratch buffers for math-builtin argument marshaling (never live
	// across a nested exec, so sharing them per worker is safe).
	mathF []float64
	mathI []int64
}

func (g *groupRun) runGroup(group [3]int, linear int) error {
	lsz := g.cfg.LocalSize
	n := lsz[0] * lsz[1] * lsz[2]

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
	if len(g.ctxs) < n {
		g.ctxs = make([]wCtx, n)
		g.priv = make([][]byte, n)
	}
	stack := g.m.p.StackBytes()
	bf := g.bf
	for wi := 0; wi < n; wi++ {
		c := &g.ctxs[wi]
		c.kern.ensure(bf)
		if g.priv[wi] == nil || len(g.priv[wi]) < stack {
			g.priv[wi] = make([]byte, stack)
		}
		copy(c.kern.ri, bf.IntConsts)
		copy(c.kern.rf, bf.FltConsts)
		for k, pr := range bf.Params {
			switch pr.Bank {
			case BankInt:
				c.kern.ri[pr.Idx] = g.paramI[k]
			case BankFlt:
				c.kern.rf[pr.Idx] = g.paramF[k]
			}
		}
		lz := wi / (lsz[0] * lsz[1])
		rem := wi % (lsz[0] * lsz[1])
		ly := rem / lsz[0]
		lx := rem % lsz[0]
		c.wi = wi
		c.bf = bf
		c.pc = 0
		c.ri, c.rfl = c.kern.ri, c.kern.rf
		c.vi, c.vf = c.kern.vi, c.kern.vf
		c.lid = [3]int64{int64(lx), int64(ly), int64(lz)}
		c.grp = [3]int64{int64(group[0]), int64(group[1]), int64(group[2])}
		c.gid = [3]int64{
			int64(group[0]*lsz[0] + lx),
			int64(group[1]*lsz[1] + ly),
			int64(group[2]*lsz[2] + lz),
		}
		c.frameBase = 0
		c.sp = bf.FrameSize
		c.done = false
		c.pending = 0
		c.depth = 0
		c.gmem, c.lmem, c.pmem = g.gmem.Data, g.local, g.priv[wi]
	}

	if g.tracer != nil {
		g.tracer.GroupBegin(group, linear)
	}
	// Rounds: run every live work-item to its next barrier (or to
	// completion); repeat until all are done.
	round := 0
	var roundStart time.Time
	for {
		if g.prof != nil {
			roundStart = time.Now()
			g.profRetired, g.profLoads, g.profStores = 0, 0, 0
		}
		var barrierAt *ir.Instr
		liveBefore := 0
		atBarrier := 0
		doneNow := 0
		for wi := 0; wi < n; wi++ {
			c := &g.ctxs[wi]
			if c.done {
				continue
			}
			liveBefore++
			hitBarrier, bInstr, err := g.exec(c, true)
			if c.pending > 0 && (g.tracer != nil || g.prof != nil) {
				if g.tracer != nil {
					g.tracer.Instrs(c.wi, c.pending)
				}
				g.profRetired += c.pending
				c.pending = 0
			}
			if err != nil {
				return fmt.Errorf("work-item %d: %w", wi, err)
			}
			if hitBarrier {
				atBarrier++
				if barrierAt == nil {
					barrierAt = bInstr
				} else if barrierAt != bInstr {
					return fmt.Errorf("barrier divergence: work-items reached different barriers")
				}
			} else {
				doneNow++
			}
		}
		if liveBefore == 0 {
			break
		}
		if g.prof != nil {
			g.prof.Region(round, time.Since(roundStart), g.profRetired, g.profLoads, g.profStores, atBarrier > 0)
			round++
		}
		if atBarrier > 0 && doneNow > 0 {
			return fmt.Errorf("barrier divergence: %d work-items at a barrier while %d finished", atBarrier, doneNow)
		}
		if atBarrier > 0 && g.tracer != nil {
			g.tracer.Barrier(atBarrier)
		}
		if atBarrier == 0 {
			break
		}
	}
	if g.tracer != nil {
		g.tracer.GroupEnd()
	}
	return nil
}

const kF32 = uint8(clc.KFloat)

// exec runs c until a barrier (kernel level only), a return, or an error.
func (g *groupRun) exec(c *wCtx, kernelLevel bool) (bool, *ir.Instr, error) {
	tr := g.tracer
	prof := g.prof != nil
	code := c.bf.Code
	auxs := c.bf.Aux
	ri, rf := c.ri, c.rfl
	vi, vf := c.vi, c.vf
	pc := int(c.pc)
	for {
		in := &code[pc]
		c.pending += int64(in.Retire)
		switch in.Op {
		case OpNop:

		case OpJmp:
			pc = int(in.Imm)
			continue
		case OpCondBrI:
			if ri[in.A] != 0 {
				pc = int(in.Imm)
			} else {
				pc = int(in.N)
			}
			continue
		case OpCondBrF:
			if rf[in.A] != 0 {
				pc = int(in.Imm)
			} else {
				pc = int(in.N)
			}
			continue

		case OpRet, OpRetI, OpRetF, OpRetVI, OpRetVF:
			if kernelLevel {
				c.done = true
				return false, nil, nil
			}
			c.retI, c.retF, c.retVI, c.retVF = 0, 0, nil, nil
			switch in.Op {
			case OpRetI:
				c.retI = ri[in.B]
			case OpRetF:
				c.retF = rf[in.B]
			case OpRetVI:
				c.retVI = vi[in.B]
			case OpRetVF:
				c.retVF = vf[in.B]
			}
			return false, nil, nil

		case OpBarrier:
			if !kernelLevel {
				return false, nil, errors.New("vm: barrier inside a function call is unsupported")
			}
			c.pc = int32(pc + 1)
			return true, in.In, nil

		case OpCall:
			if err := g.callFn(c, in, ri, rf, vi, vf); err != nil {
				return false, nil, err
			}

		case OpTrap:
			return false, nil, errors.New(auxs[in.Imm].Name)

		case OpConstI:
			ri[in.A] = in.Imm
		case OpZeroI:
			ri[in.A] = 0
		case OpZeroF:
			rf[in.A] = 0
		case OpMovI:
			ri[in.A] = ri[in.B]
		case OpMovF:
			rf[in.A] = rf[in.B]

		case OpGID:
			ri[in.A] = c.gid[in.Imm]
		case OpLID:
			ri[in.A] = c.lid[in.Imm]
		case OpGRP:
			ri[in.A] = c.grp[in.Imm]
		case OpGSZ:
			ri[in.A] = g.gsz[in.Imm]
		case OpLSZ:
			ri[in.A] = g.lsz[in.Imm]
		case OpNGRP:
			ri[in.A] = g.ngrp[in.Imm]
		case OpWIQ:
			ri[in.A] = g.wiQuery(c, in.N, ri[in.B])

		case OpAllocaP:
			ri[in.A] = int64(vm.MakeAddr(clc.ASPrivate, uint64(c.frameBase)+uint64(in.Imm)))
		case OpAllocaL:
			ri[in.A] = in.Imm

		case OpIndex:
			ri[in.A] = ri[in.B] + ri[in.C]*in.Imm
		case OpIndexC:
			ri[in.A] = ri[in.B] + in.Imm

		case OpLdI8, OpLdU8, OpLdI16, OpLdU16, OpLdI32, OpLdU32, OpLdI64, OpLdF32, OpLdF64:
			addr := uint64(ri[in.B])
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), false)
			}
			if prof {
				g.profLoads++
			}
			if err := c.load(in, addr); err != nil {
				return false, nil, err
			}
		case OpLdXI8, OpLdXU8, OpLdXI16, OpLdXU16, OpLdXI32, OpLdXU32, OpLdXI64, OpLdXF32, OpLdXF64:
			addr := uint64(ri[in.B] + ri[in.C]*in.Imm)
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), false)
			}
			if prof {
				g.profLoads++
			}
			if err := c.load(in, addr); err != nil {
				return false, nil, err
			}

		case OpStI8, OpStI16, OpStI32, OpStI64, OpStF32, OpStF64:
			addr := uint64(ri[in.B])
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), true)
			}
			if prof {
				g.profStores++
			}
			if err := c.store(in, addr); err != nil {
				return false, nil, err
			}
		case OpStXI8, OpStXI16, OpStXI32, OpStXI64, OpStXF32, OpStXF64:
			addr := uint64(ri[in.B] + ri[in.C]*in.Imm)
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), true)
			}
			if prof {
				g.profStores++
			}
			if err := c.store(in, addr); err != nil {
				return false, nil, err
			}

		case OpLdVI, OpLdVF:
			addr := uint64(ri[in.B])
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), false)
			}
			if prof {
				g.profLoads++
			}
			if err := c.loadVec(in, addr); err != nil {
				return false, nil, err
			}
		case OpLdXVI, OpLdXVF:
			addr := uint64(ri[in.B] + ri[in.C]*in.Imm)
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), false)
			}
			if prof {
				g.profLoads++
			}
			if err := c.loadVec(in, addr); err != nil {
				return false, nil, err
			}
		case OpStVI, OpStVF:
			addr := uint64(ri[in.B])
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), true)
			}
			if prof {
				g.profStores++
			}
			if err := c.storeVec(in, addr); err != nil {
				return false, nil, err
			}
		case OpStXVI, OpStXVF:
			addr := uint64(ri[in.B] + ri[in.C]*in.Imm)
			if tr != nil {
				tr.Access(in.In, c.wi, addr, int(in.N), true)
			}
			if prof {
				g.profStores++
			}
			if err := c.storeVec(in, addr); err != nil {
				return false, nil, err
			}

		case OpAddI:
			ri[in.A] = ri[in.B] + ri[in.C]
		case OpSubI:
			ri[in.A] = ri[in.B] - ri[in.C]
		case OpMulI:
			ri[in.A] = ri[in.B] * ri[in.C]
		case OpAndI:
			ri[in.A] = ri[in.B] & ri[in.C]
		case OpOrI:
			ri[in.A] = ri[in.B] | ri[in.C]
		case OpXorI:
			ri[in.A] = ri[in.B] ^ ri[in.C]
		case OpAddI32:
			ri[in.A] = int64(int32(ri[in.B] + ri[in.C]))
		case OpSubI32:
			ri[in.A] = int64(int32(ri[in.B] - ri[in.C]))
		case OpMulI32:
			ri[in.A] = int64(int32(ri[in.B] * ri[in.C]))
		case OpAddU32:
			ri[in.A] = int64(uint32(ri[in.B] + ri[in.C]))
		case OpSubU32:
			ri[in.A] = int64(uint32(ri[in.B] - ri[in.C]))
		case OpMulU32:
			ri[in.A] = int64(uint32(ri[in.B] * ri[in.C]))
		case OpIntBin:
			v, err := vm.IntBin(ir.Op(in.Sub), clc.ScalarKind(in.Kind), ri[in.B], ri[in.C])
			if err != nil {
				return false, nil, err
			}
			ri[in.A] = v

		case OpAddF:
			rf[in.A] = rf[in.B] + rf[in.C]
		case OpSubF:
			rf[in.A] = rf[in.B] - rf[in.C]
		case OpMulF:
			rf[in.A] = rf[in.B] * rf[in.C]
		case OpDivF:
			rf[in.A] = rf[in.B] / rf[in.C]
		case OpAddF32:
			rf[in.A] = float64(float32(rf[in.B] + rf[in.C]))
		case OpSubF32:
			rf[in.A] = float64(float32(rf[in.B] - rf[in.C]))
		case OpMulF32:
			rf[in.A] = float64(float32(rf[in.B] * rf[in.C]))
		case OpDivF32:
			rf[in.A] = float64(float32(rf[in.B] / rf[in.C]))
		case OpFltBin:
			v, err := vm.FloatBin(ir.Op(in.Sub), clc.ScalarKind(in.Kind), rf[in.B], rf[in.C])
			if err != nil {
				return false, nil, err
			}
			rf[in.A] = v

		case OpNegF:
			rf[in.A] = -rf[in.B]
		case OpNegI:
			ri[in.A] = vm.NormInt(-ri[in.B], clc.ScalarKind(in.Kind))
		case OpNotI:
			ri[in.A] = vm.NormInt(^ri[in.B], clc.ScalarKind(in.Kind))
		case OpVNegF:
			d, s := vf[in.A], vf[in.B]
			for i := range d {
				d[i] = -s[i]
			}
		case OpVNegI:
			k := clc.ScalarKind(in.Kind)
			d, s := vi[in.A], vi[in.B]
			for i := range d {
				d[i] = vm.NormInt(-s[i], k)
			}
		case OpVNotI:
			k := clc.ScalarKind(in.Kind)
			d, s := vi[in.A], vi[in.B]
			for i := range d {
				d[i] = vm.NormInt(^s[i], k)
			}

		case OpEqI:
			ri[in.A] = b2i(ri[in.B] == ri[in.C])
		case OpNeI:
			ri[in.A] = b2i(ri[in.B] != ri[in.C])
		case OpLtI:
			ri[in.A] = b2i(ri[in.B] < ri[in.C])
		case OpLeI:
			ri[in.A] = b2i(ri[in.B] <= ri[in.C])
		case OpGtI:
			ri[in.A] = b2i(ri[in.B] > ri[in.C])
		case OpGeI:
			ri[in.A] = b2i(ri[in.B] >= ri[in.C])
		case OpLtU:
			ri[in.A] = b2i(uint64(ri[in.B]) < uint64(ri[in.C]))
		case OpLeU:
			ri[in.A] = b2i(uint64(ri[in.B]) <= uint64(ri[in.C]))
		case OpGtU:
			ri[in.A] = b2i(uint64(ri[in.B]) > uint64(ri[in.C]))
		case OpGeU:
			ri[in.A] = b2i(uint64(ri[in.B]) >= uint64(ri[in.C]))
		case OpEqF:
			ri[in.A] = b2i(rf[in.B] == rf[in.C])
		case OpNeF:
			ri[in.A] = b2i(rf[in.B] != rf[in.C])
		case OpLtF:
			ri[in.A] = b2i(rf[in.B] < rf[in.C])
		case OpLeF:
			ri[in.A] = b2i(rf[in.B] <= rf[in.C])
		case OpGtF:
			ri[in.A] = b2i(rf[in.B] > rf[in.C])
		case OpGeF:
			ri[in.A] = b2i(rf[in.B] >= rf[in.C])

		case OpConvI:
			ri[in.A] = vm.NormInt(ri[in.B], clc.ScalarKind(in.Kind))
		case OpI2F:
			rf[in.A] = vm.Round32(clc.ScalarKind(in.Kind), float64(ri[in.B]))
		case OpU2F:
			rf[in.A] = vm.Round32(clc.ScalarKind(in.Kind), float64(uint64(ri[in.B])))
		case OpF2I:
			f := rf[in.B]
			if math.IsNaN(f) {
				ri[in.A] = 0
			} else {
				ri[in.A] = vm.NormInt(int64(f), clc.ScalarKind(in.Kind))
			}
		case OpF2F32:
			rf[in.A] = float64(float32(rf[in.B]))
		case OpVConv:
			c.vconv(in)

		case OpVAddF:
			d, x, y := vf[in.A], vf[in.B], vf[in.C]
			if in.Kind == kF32 {
				for i := range d {
					d[i] = float64(float32(x[i] + y[i]))
				}
			} else {
				for i := range d {
					d[i] = x[i] + y[i]
				}
			}
		case OpVSubF:
			d, x, y := vf[in.A], vf[in.B], vf[in.C]
			if in.Kind == kF32 {
				for i := range d {
					d[i] = float64(float32(x[i] - y[i]))
				}
			} else {
				for i := range d {
					d[i] = x[i] - y[i]
				}
			}
		case OpVMulF:
			d, x, y := vf[in.A], vf[in.B], vf[in.C]
			if in.Kind == kF32 {
				for i := range d {
					d[i] = float64(float32(x[i] * y[i]))
				}
			} else {
				for i := range d {
					d[i] = x[i] * y[i]
				}
			}
		case OpVDivF:
			d, x, y := vf[in.A], vf[in.B], vf[in.C]
			if in.Kind == kF32 {
				for i := range d {
					d[i] = float64(float32(x[i] / y[i]))
				}
			} else {
				for i := range d {
					d[i] = x[i] / y[i]
				}
			}
		case OpVBinF:
			d, x, y := vf[in.A], vf[in.B], vf[in.C]
			op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
			for i := range d {
				v, err := vm.FloatBin(op, k, x[i], y[i])
				if err != nil {
					return false, nil, err
				}
				d[i] = v
			}
		case OpVBinI:
			d, x, y := vi[in.A], vi[in.B], vi[in.C]
			op, k := ir.Op(in.Sub), clc.ScalarKind(in.Kind)
			for i := range d {
				v, err := vm.IntBin(op, k, x[i], y[i])
				if err != nil {
					return false, nil, err
				}
				d[i] = v
			}

		case OpExtI:
			ri[in.A] = vi[in.B][in.Imm]
		case OpExtF:
			rf[in.A] = vf[in.B][in.Imm]
		case OpInsI:
			d := vi[in.A]
			copy(d, vi[in.B])
			d[in.Imm] = ri[in.C]
		case OpInsF:
			d := vf[in.A]
			copy(d, vf[in.B])
			d[in.Imm] = rf[in.C]
		case OpShufI:
			d, s := vi[in.A], vi[in.B]
			for i, l := range auxs[in.Imm].Comps {
				d[i] = s[l]
			}
		case OpShufF:
			d, s := vf[in.A], vf[in.B]
			for i, l := range auxs[in.Imm].Comps {
				d[i] = s[l]
			}
		case OpBuildI:
			d := vi[in.A]
			for i, r := range auxs[in.Imm].Refs {
				d[i] = ri[r.Idx]
			}
		case OpBuildF:
			d := vf[in.A]
			for i, r := range auxs[in.Imm].Refs {
				d[i] = rf[r.Idx]
			}

		case OpDotVF:
			x, y := vf[in.B], vf[in.C]
			var sum float64
			for i := range x {
				sum += x[i] * y[i]
			}
			rf[in.A] = vm.Round32(clc.ScalarKind(in.Kind), sum)
		case OpDotSS:
			rf[in.A] = rf[in.B] * rf[in.C]
		case OpLenVF:
			x := vf[in.B]
			var sum float64
			for i := range x {
				sum += x[i] * x[i]
			}
			rf[in.A] = vm.Round32(clc.ScalarKind(in.Kind), math.Sqrt(sum))
		case OpLenSS:
			rf[in.A] = math.Abs(rf[in.B])
		case OpMathF:
			ax := &auxs[in.Imm]
			fa := g.scratchF(len(ax.Refs))
			for i, r := range ax.Refs {
				fa[i] = rf[r.Idx]
			}
			v, err := vm.MathF(ax.Name, clc.ScalarKind(in.Kind), fa)
			if err != nil {
				return false, nil, err
			}
			rf[in.A] = v
		case OpMathI:
			ax := &auxs[in.Imm]
			ia := g.scratchI(len(ax.Refs))
			for i, r := range ax.Refs {
				ia[i] = ri[r.Idx]
			}
			v, err := vm.MathI(ax.Name, clc.ScalarKind(in.Kind), ia)
			if err != nil {
				return false, nil, err
			}
			ri[in.A] = v
		case OpVMathF:
			ax := &auxs[in.Imm]
			d := vf[in.A]
			fa := g.scratchF(len(ax.Refs))
			k := clc.ScalarKind(in.Kind)
			for l := range d {
				for i, r := range ax.Refs {
					fa[i] = vf[r.Idx][l]
				}
				v, err := vm.MathF(ax.Name, k, fa)
				if err != nil {
					return false, nil, err
				}
				d[l] = v
			}
		case OpVMathI:
			ax := &auxs[in.Imm]
			d := vi[in.A]
			ia := g.scratchI(len(ax.Refs))
			k := clc.ScalarKind(in.Kind)
			for l := range d {
				for i, r := range ax.Refs {
					ia[i] = vi[r.Idx][l]
				}
				v, err := vm.MathI(ax.Name, k, ia)
				if err != nil {
					return false, nil, err
				}
				d[l] = v
			}

		default:
			return false, nil, fmt.Errorf("bcode: invalid opcode %d at pc %d", in.Op, pc)
		}
		pc++
	}
}

// callFn executes a user function synchronously within the work-item,
// running it in the pooled register file for the current call depth. The
// caller's Bank slices are passed in so the return value lands in the
// caller's registers after the context is restored.
func (g *groupRun) callFn(c *wCtx, in *Inst, ri []int64, rf []float64, vi [][]int64, vf [][]float64) error {
	ax := &c.bf.Aux[in.Imm]
	callee := ax.Callee
	fr := c.frame()
	fr.regs.ensure(callee)
	copy(fr.regs.ri, callee.IntConsts)
	copy(fr.regs.rf, callee.FltConsts)
	for i, r := range ax.Refs {
		p := callee.Params[i]
		switch p.Bank {
		case BankInt:
			fr.regs.ri[p.Idx] = ri[r.Idx]
		case BankFlt:
			fr.regs.rf[p.Idx] = rf[r.Idx]
		case BankVecI:
			copy(fr.regs.vi[p.Idx], vi[r.Idx])
		case BankVecF:
			copy(fr.regs.vf[p.Idx], vf[r.Idx])
		}
	}

	saveBf, savePC := c.bf, c.pc
	saveRi, saveRf, saveVi, saveVf := c.ri, c.rfl, c.vi, c.vf
	saveBase, saveSP := c.frameBase, c.sp

	c.bf = callee
	c.pc = 0
	c.ri, c.rfl = fr.regs.ri, fr.regs.rf
	c.vi, c.vf = fr.regs.vi, fr.regs.vf
	c.frameBase = c.sp
	c.sp += callee.FrameSize
	c.depth++
	if c.sp > len(c.pmem) {
		return fmt.Errorf("vm: private stack overflow calling %s", callee.Fn.Name)
	}
	_, _, err := g.exec(c, false)
	c.depth--
	c.bf, c.pc = saveBf, savePC
	c.ri, c.rfl = saveRi, saveRf
	c.vi, c.vf = saveVi, saveVf
	c.frameBase, c.sp = saveBase, saveSP
	if err != nil {
		return err
	}
	if in.A >= 0 {
		switch Bank(in.Sub) {
		case BankInt:
			ri[in.A] = c.retI
		case BankFlt:
			rf[in.A] = c.retF
		case BankVecI:
			if c.retVI != nil {
				copy(vi[in.A], c.retVI)
			}
		case BankVecF:
			if c.retVF != nil {
				copy(vf[in.A], c.retVF)
			}
		}
	}
	return nil
}

// wiQuery answers a runtime-dimension work-item query.
func (g *groupRun) wiQuery(c *wCtx, q int32, d int64) int64 {
	if d < 0 || d > 2 {
		return 0
	}
	switch q {
	case QGlobalID:
		return c.gid[d]
	case QLocalID:
		return c.lid[d]
	case QGroupID:
		return c.grp[d]
	case QGlobalSize:
		return g.gsz[d]
	case QLocalSize:
		return g.lsz[d]
	case QNumGroups:
		return g.ngrp[d]
	case QWorkDim:
		return 3
	}
	return 0
}

// arena resolves a tagged address to its backing byte arena, with the
// interpreter's exact bounds diagnostics.
func (c *wCtx) arena(addr uint64) ([]byte, uint64, error) {
	space, off := vm.SplitAddr(addr)
	switch space {
	case clc.ASGlobal:
		if int(off) >= len(c.gmem) {
			return nil, 0, fmt.Errorf("vm: global access at %d out of bounds (%d)", off, len(c.gmem))
		}
		return c.gmem, off, nil
	case clc.ASLocal:
		if int(off) >= len(c.lmem) {
			return nil, 0, fmt.Errorf("vm: local access at %d out of bounds (%d)", off, len(c.lmem))
		}
		return c.lmem, off, nil
	default:
		if int(off) >= len(c.pmem) {
			return nil, 0, fmt.Errorf("vm: private access at %d out of bounds (%d)", off, len(c.pmem))
		}
		return c.pmem, off, nil
	}
}

// load performs a scalar load. For scalar memory ops in.N is both the
// traced size and the access width.
func (c *wCtx) load(in *Inst, addr uint64) error {
	a, off, err := c.arena(addr)
	if err != nil {
		return err
	}
	sz := int(in.N)
	if int(off)+sz > len(a) {
		return fmt.Errorf("vm: load of %d bytes at %d overruns arena (%d)", sz, off, len(a))
	}
	switch in.Op {
	case OpLdI8, OpLdXI8:
		c.ri[in.A] = int64(int8(a[off]))
	case OpLdU8, OpLdXU8:
		c.ri[in.A] = int64(a[off])
	case OpLdI16, OpLdXI16:
		c.ri[in.A] = int64(int16(binary.LittleEndian.Uint16(a[off:])))
	case OpLdU16, OpLdXU16:
		c.ri[in.A] = int64(binary.LittleEndian.Uint16(a[off:]))
	case OpLdI32, OpLdXI32:
		c.ri[in.A] = int64(int32(binary.LittleEndian.Uint32(a[off:])))
	case OpLdU32, OpLdXU32:
		c.ri[in.A] = int64(binary.LittleEndian.Uint32(a[off:]))
	case OpLdI64, OpLdXI64:
		c.ri[in.A] = int64(binary.LittleEndian.Uint64(a[off:]))
	case OpLdF32, OpLdXF32:
		c.rfl[in.A] = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:])))
	case OpLdF64, OpLdXF64:
		c.rfl[in.A] = math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
	}
	return nil
}

// store performs a scalar store.
func (c *wCtx) store(in *Inst, addr uint64) error {
	a, off, err := c.arena(addr)
	if err != nil {
		return err
	}
	sz := int(in.N)
	if int(off)+sz > len(a) {
		return fmt.Errorf("vm: store of %d bytes at %d overruns arena (%d)", sz, off, len(a))
	}
	switch in.Op {
	case OpStI8, OpStXI8:
		a[off] = byte(c.ri[in.A])
	case OpStI16, OpStXI16:
		binary.LittleEndian.PutUint16(a[off:], uint16(c.ri[in.A]))
	case OpStI32, OpStXI32:
		binary.LittleEndian.PutUint32(a[off:], uint32(c.ri[in.A]))
	case OpStI64, OpStXI64:
		binary.LittleEndian.PutUint64(a[off:], uint64(c.ri[in.A]))
	case OpStF32, OpStXF32:
		binary.LittleEndian.PutUint32(a[off:], math.Float32bits(float32(c.rfl[in.A])))
	case OpStF64, OpStXF64:
		binary.LittleEndian.PutUint64(a[off:], math.Float64bits(c.rfl[in.A]))
	}
	return nil
}

// loadVec loads a vector lane by lane at element-size strides, with the
// interpreter's per-lane bounds checks.
func (c *wCtx) loadVec(in *Inst, addr uint64) error {
	k := clc.ScalarKind(in.Kind)
	es := k.Size()
	lanes := int(in.Sub)
	flt := in.Op == OpLdVF || in.Op == OpLdXVF
	for i := 0; i < lanes; i++ {
		a, off, err := c.arena(addr + uint64(i*es))
		if err != nil {
			return err
		}
		if int(off)+es > len(a) {
			return fmt.Errorf("vm: load of %d bytes at %d overruns arena (%d)", es, off, len(a))
		}
		if flt {
			if k == clc.KFloat {
				c.vf[in.A][i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:])))
			} else {
				c.vf[in.A][i] = math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
			}
		} else {
			c.vi[in.A][i] = loadIntLane(a, off, k)
		}
	}
	return nil
}

// storeVec stores a vector lane by lane.
func (c *wCtx) storeVec(in *Inst, addr uint64) error {
	k := clc.ScalarKind(in.Kind)
	es := k.Size()
	lanes := int(in.Sub)
	flt := in.Op == OpStVF || in.Op == OpStXVF
	for i := 0; i < lanes; i++ {
		a, off, err := c.arena(addr + uint64(i*es))
		if err != nil {
			return err
		}
		if int(off)+es > len(a) {
			return fmt.Errorf("vm: store of %d bytes at %d overruns arena (%d)", es, off, len(a))
		}
		if flt {
			if k == clc.KFloat {
				binary.LittleEndian.PutUint32(a[off:], math.Float32bits(float32(c.vf[in.A][i])))
			} else {
				binary.LittleEndian.PutUint64(a[off:], math.Float64bits(c.vf[in.A][i]))
			}
		} else {
			storeIntLane(a, off, k, c.vi[in.A][i])
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

// vconv performs a lane-wise vector conversion.
func (c *wCtx) vconv(in *Inst) {
	from := clc.ScalarKind(in.Sub)
	to := clc.ScalarKind(in.Kind)
	if from.IsFloat() {
		src := c.vf[in.B]
		if to.IsFloat() {
			d := c.vf[in.A]
			for i := range d {
				_, d[i] = vm.ConvertKind(0, src[i], from, to)
			}
		} else {
			d := c.vi[in.A]
			for i := range d {
				d[i], _ = vm.ConvertKind(0, src[i], from, to)
			}
		}
	} else {
		src := c.vi[in.B]
		if to.IsFloat() {
			d := c.vf[in.A]
			for i := range d {
				_, d[i] = vm.ConvertKind(src[i], 0, from, to)
			}
		} else {
			d := c.vi[in.A]
			for i := range d {
				d[i], _ = vm.ConvertKind(src[i], 0, from, to)
			}
		}
	}
}

// scratchF returns the worker's pooled float argument buffer.
func (g *groupRun) scratchF(n int) []float64 {
	if cap(g.mathF) < n {
		g.mathF = make([]float64, n)
	}
	return g.mathF[:n]
}

// scratchI returns the worker's pooled integer argument buffer.
func (g *groupRun) scratchI(n int) []int64 {
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
