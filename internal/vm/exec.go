package vm

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
)

// wiCtx is one work-item's resumable execution state.
type wiCtx struct {
	wi   int // linear id within the group
	fn   *ir.Function
	blk  *ir.Block
	idx  int
	regs []rv
	prms []rv
	mem  memView

	gid, lid, grp [3]int64

	frameBase int
	sp        int

	done    bool
	pending int64 // retired instructions not yet counted for the round
	callRet rv    // return value stash for nested function calls

	// depth is the current call-nesting depth; frames pools one register
	// file per depth, reused across calls and across work-groups (the
	// contexts themselves are reused by groupExec) to avoid per-call
	// allocation. Calls are synchronous, so one frame per depth suffices.
	depth  int
	frames []*callFrame
}

// callFrame is a pooled register file and argument buffer for one call
// depth.
type callFrame struct {
	regs []rv
	args []rv
}

// frame returns the pooled frame for the work-item's current call depth.
func (c *wiCtx) frame() *callFrame {
	for len(c.frames) <= c.depth {
		c.frames = append(c.frames, &callFrame{})
	}
	return c.frames[c.depth]
}

// storeRet copies a call's return value into a caller register. Vector
// lanes are copied out of the pooled callee register file so the value
// stays valid after the frame is reused by a later call.
func storeRet(dst *rv, ret rv) {
	dst.i, dst.f = ret.i, ret.f
	if ret.vf != nil {
		copy(ensureVF(dst, len(ret.vf)), ret.vf)
	}
	if ret.vi != nil {
		copy(ensureVI(dst, len(ret.vi)), ret.vi)
	}
}

// interpreter is the tree-walking interpreter as an Executor: it compiles
// nothing, and its group state walks the program's IR.
type interpreter struct{ p *Program }

// NewGroup implements Executor.
func (e interpreter) NewGroup(d *Dispatch, local []byte) Group {
	params := make([]rv, len(d.ParamI))
	for i := range params {
		params[i] = rv{i: d.ParamI[i], f: d.ParamF[i]}
	}
	lsz := d.Config.LocalSize
	n := lsz[0] * lsz[1] * lsz[2]
	ge := &groupExec{p: e.p, fn: d.Kernel, cfg: d.Config, ctxs: make([]wiCtx, n)}
	nRegs := e.p.regCount[d.Kernel]
	for wi := range ge.ctxs {
		c := &ge.ctxs[wi]
		c.wi = wi
		c.regs = make([]rv, nRegs)
		c.prms = params
		c.lid = [3]int64{int64(wi % lsz[0]), int64(wi / lsz[0] % lsz[1]), int64(wi / (lsz[0] * lsz[1]))}
		c.mem = memView{global: d.Mem.Data, local: local, private: make([]byte, e.p.stackBytes)}
	}
	return ge
}

// groupExec runs work-groups of one launch on the interpreter, one
// work-item at a time.
type groupExec struct {
	p    *Program
	fn   *ir.Function
	cfg  Config
	ctxs []wiCtx

	// The running round's trace (nil when untraced) and access counts.
	trace         *AccessBatch
	loads, stores int64

	// Scratch buffers for evalMath argument marshaling (never live across
	// a nested exec, so sharing them per worker is safe).
	mathArgs []rv
	mathF    []float64
	mathI    []int64
}

// Begin implements Group.
func (ge *groupExec) Begin(group [3]int) {
	lsz := ge.cfg.LocalSize
	for wi := range ge.ctxs {
		c := &ge.ctxs[wi]
		c.fn = ge.fn
		c.blk = ge.fn.Entry()
		c.idx = 0
		c.grp = [3]int64{int64(group[0]), int64(group[1]), int64(group[2])}
		for d := range c.gid {
			c.gid[d] = c.grp[d]*int64(lsz[d]) + c.lid[d]
		}
		c.frameBase = 0
		c.sp = ge.p.frames[ge.fn].size
		c.done = false
		c.depth = 0
	}
}

// Round implements Group: it runs each live work-item in turn to its next
// barrier or to completion.
func (ge *groupExec) Round(trace *AccessBatch) (RoundStats, error) {
	ge.trace, ge.loads, ge.stores = trace, 0, 0
	var s RoundStats
	for wi := range ge.ctxs {
		c := &ge.ctxs[wi]
		if c.done {
			continue
		}
		hitBarrier, bInstr, err := ge.exec(c, true)
		s.Retired += c.pending
		if trace != nil {
			trace.Retired[wi] += c.pending
		}
		c.pending = 0
		if err != nil {
			return s, fmt.Errorf("work-item %d: %w", wi, err)
		}
		if !hitBarrier {
			s.Finished++
			continue
		}
		if s.AtBarrier > 0 && bInstr != s.Barrier {
			s.AtBarrier, s.Barrier = s.AtBarrier+1, nil
			return s, nil
		}
		s.AtBarrier, s.Barrier = s.AtBarrier+1, bInstr
	}
	s.Loads, s.Stores = ge.loads, ge.stores
	return s, nil
}

// access records one memory access of c's in the round's trace, if there
// is one, and counts it.
func (ge *groupExec) access(c *wiCtx, in *ir.Instr, addr uint64, size int, store bool) {
	if t := ge.trace; t != nil {
		t.Items[c.wi] = append(t.Items[c.wi], AccessRec{Addr: addr, Instr: t.Intern(in), Size: int32(size), Store: store})
	}
	if store {
		ge.stores++
	} else {
		ge.loads++
	}
}

// val resolves an operand to its runtime value.
func (c *wiCtx) val(v ir.Value) rv {
	switch t := v.(type) {
	case *ir.Instr:
		return c.regs[t.ID]
	case *ir.ConstInt:
		return rv{i: t.Val}
	case *ir.ConstFloat:
		return rv{f: t.Val}
	case *ir.Param:
		return c.prms[t.Index]
	}
	panic(fmt.Sprintf("vm: unknown value %T", v))
}

// exec runs c until a barrier (kernel level only), a return, or an error.
// It reports whether execution suspended at a barrier, and which barrier
// instruction it was.
func (ge *groupExec) exec(c *wiCtx, kernelLevel bool) (bool, *ir.Instr, error) {
	for {
		in := c.blk.Instrs[c.idx] // verified blocks end in a terminator
		c.pending++
		switch in.Op {
		case ir.OpAlloca:
			var addr uint64
			if in.Space == clc.ASLocal {
				addr = MakeAddr(clc.ASLocal, uint64(ge.p.localOff[in]))
			} else {
				addr = MakeAddr(clc.ASPrivate, uint64(c.frameBase+ge.p.frames[c.fn].offsets[in]))
			}
			c.regs[in.ID] = rv{i: int64(addr)}
			c.idx++

		case ir.OpLoad:
			addr := uint64(c.val(in.Args[0]).i)
			ge.access(c, in, addr, in.Typ.Size(), false)
			v, err := ge.loadTyped(c, addr, in.Typ, in)
			if err != nil {
				return false, nil, err
			}
			c.regs[in.ID] = v
			c.idx++

		case ir.OpStore:
			addr := uint64(c.val(in.Args[0]).i)
			val := c.val(in.Args[1])
			t := in.Args[1].Type()
			ge.access(c, in, addr, t.Size(), true)
			if err := ge.storeTyped(c, addr, t, val); err != nil {
				return false, nil, err
			}
			c.idx++

		case ir.OpIndex:
			base := c.val(in.Args[0]).i
			idx := c.val(in.Args[1]).i
			step := int64(ir.PointeeSize(in.Args[0].Type()))
			c.regs[in.ID] = rv{i: base + idx*step}
			c.idx++

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
			v, err := ge.binArith(c, in)
			if err != nil {
				return false, nil, err
			}
			c.regs[in.ID] = v
			c.idx++

		case ir.OpNeg, ir.OpNot:
			c.regs[in.ID] = ge.unArith(c, in)
			c.idx++

		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			c.regs[in.ID] = ge.compare(c, in)
			c.idx++

		case ir.OpConvert:
			c.regs[in.ID] = ge.convert(c, in)
			c.idx++

		case ir.OpExtract:
			src := c.val(in.Args[0])
			lane := in.Comps[0]
			vt := in.Args[0].Type().(*clc.VectorType)
			if vt.Elem.Kind.IsFloat() {
				c.regs[in.ID] = rv{f: src.vf[lane]}
			} else {
				c.regs[in.ID] = rv{i: src.vi[lane]}
			}
			c.idx++

		case ir.OpInsert:
			src := c.val(in.Args[0])
			sc := c.val(in.Args[1])
			vt := in.Typ.(*clc.VectorType)
			if vt.Elem.Kind.IsFloat() {
				dst := ensureVF(&c.regs[in.ID], vt.Len)
				copy(dst, src.vf)
				dst[in.Comps[0]] = sc.f
			} else {
				dst := ensureVI(&c.regs[in.ID], vt.Len)
				copy(dst, src.vi)
				dst[in.Comps[0]] = sc.i
			}
			c.idx++

		case ir.OpShuffle:
			src := c.val(in.Args[0])
			vt := in.Typ.(*clc.VectorType)
			if vt.Elem.Kind.IsFloat() {
				dst := ensureVF(&c.regs[in.ID], vt.Len)
				for i, l := range in.Comps {
					dst[i] = src.vf[l]
				}
			} else {
				dst := ensureVI(&c.regs[in.ID], vt.Len)
				for i, l := range in.Comps {
					dst[i] = src.vi[l]
				}
			}
			c.idx++

		case ir.OpBuild:
			vt := in.Typ.(*clc.VectorType)
			if vt.Elem.Kind.IsFloat() {
				dst := ensureVF(&c.regs[in.ID], vt.Len)
				for i, a := range in.Args {
					dst[i] = c.val(a).f
				}
			} else {
				dst := ensureVI(&c.regs[in.ID], vt.Len)
				for i, a := range in.Args {
					dst[i] = c.val(a).i
				}
			}
			c.idx++

		case ir.OpWorkItem:
			c.regs[in.ID] = ge.workItem(c, in)
			c.idx++

		case ir.OpMath:
			v, err := ge.evalMath(c, in)
			if err != nil {
				return false, nil, err
			}
			c.regs[in.ID] = v
			c.idx++

		case ir.OpBarrier:
			if !kernelLevel {
				return false, nil, fmt.Errorf("vm: barrier inside a function call is unsupported")
			}
			c.idx++
			return true, in, nil

		case ir.OpCall:
			fr := c.frame()
			if cap(fr.args) < len(in.Args) {
				fr.args = make([]rv, len(in.Args))
			}
			args := fr.args[:len(in.Args)]
			for i, a := range in.Args {
				args[i] = c.val(a)
			}
			ret, err := ge.call(c, in.Callee, fr, args)
			if err != nil {
				return false, nil, err
			}
			if in.Producing() {
				storeRet(&c.regs[in.ID], ret)
			}
			c.idx++

		case ir.OpBr:
			c.blk = in.Targets[0]
			c.idx = 0

		case ir.OpCondBr:
			cond := c.val(in.Args[0])
			taken := cond.i != 0
			if s, ok := in.Args[0].Type().(*clc.ScalarType); ok && s.Kind.IsFloat() {
				taken = cond.f != 0
			}
			if taken {
				c.blk = in.Targets[0]
			} else {
				c.blk = in.Targets[1]
			}
			c.idx = 0

		case ir.OpRet:
			if kernelLevel {
				c.done = true
				return false, nil, nil
			}
			var ret rv
			if len(in.Args) > 0 {
				ret = c.val(in.Args[0])
			}
			// Stash the return value in the context for call() to pick up.
			c.callRet = ret
			return false, nil, nil

		default:
			return false, nil, fmt.Errorf("vm: unhandled op %s", in.Op)
		}
	}
}

// call executes a user function synchronously within the work-item,
// running it in the pooled register file for the current call depth.
func (ge *groupExec) call(c *wiCtx, callee *ir.Function, fr *callFrame, args []rv) (rv, error) {
	saveFn, saveBlk, saveIdx := c.fn, c.blk, c.idx
	saveRegs, savePrms := c.regs, c.prms
	saveBase, saveSP := c.frameBase, c.sp

	frame := ge.p.frames[callee]
	nRegs := ge.p.regCount[callee]
	if cap(fr.regs) < nRegs {
		fr.regs = make([]rv, nRegs)
	}
	c.fn = callee
	c.blk = callee.Entry()
	c.idx = 0
	c.regs = fr.regs[:nRegs]
	c.prms = args
	c.frameBase = c.sp
	c.sp += frame.size
	c.depth++
	if c.sp > len(c.mem.private) {
		return rv{}, fmt.Errorf("vm: private stack overflow calling %s", callee.Name)
	}

	if _, _, err := ge.exec(c, false); err != nil {
		return rv{}, err
	}
	ret := c.callRet

	c.depth--
	c.fn, c.blk, c.idx = saveFn, saveBlk, saveIdx
	c.regs, c.prms = saveRegs, savePrms
	c.frameBase, c.sp = saveBase, saveSP
	return ret, nil
}

func (ge *groupExec) workItem(c *wiCtx, in *ir.Instr) rv {
	var d int64
	if len(in.Args) > 0 {
		d = c.val(in.Args[0]).i
	}
	if d < 0 || d > 2 {
		// Outside dimensions 0-2 a size is 1 and an id 0 (OpenCL 1.2
		// §6.12.1).
		switch in.Func {
		case "get_global_size", "get_local_size", "get_num_groups":
			return rv{i: 1}
		}
		return rv{}
	}
	switch in.Func {
	case "get_global_id":
		return rv{i: c.gid[d]}
	case "get_local_id":
		return rv{i: c.lid[d]}
	case "get_group_id":
		return rv{i: c.grp[d]}
	case "get_global_size":
		return rv{i: int64(ge.cfg.GlobalSize[d])}
	case "get_local_size":
		return rv{i: int64(ge.cfg.LocalSize[d])}
	case "get_num_groups":
		return rv{i: int64(ge.cfg.GlobalSize[d] / ge.cfg.LocalSize[d])}
	case "get_work_dim":
		return rv{i: 3}
	}
	return rv{}
}

// ensureVF returns r's float-lane slice resized to n.
func ensureVF(r *rv, n int) []float64 {
	if cap(r.vf) < n {
		r.vf = make([]float64, n)
	} else {
		r.vf = r.vf[:n]
	}
	return r.vf
}

// ensureVI returns r's int-lane slice resized to n.
func ensureVI(r *rv, n int) []int64 {
	if cap(r.vi) < n {
		r.vi = make([]int64, n)
	} else {
		r.vi = r.vi[:n]
	}
	return r.vi
}

// loadTyped loads a value of type t at addr.
func (ge *groupExec) loadTyped(c *wiCtx, addr uint64, t clc.Type, in *ir.Instr) (rv, error) {
	switch tt := t.(type) {
	case *clc.ScalarType:
		return c.mem.loadScalar(addr, tt.Kind)
	case *clc.VectorType:
		// Load directly into the destination register's lane slice so the
		// hot path performs no allocation.
		dst := &c.regs[in.ID]
		es := tt.Elem.Size()
		if tt.Elem.Kind.IsFloat() {
			lanes := ensureVF(dst, tt.Len)
			for i := 0; i < tt.Len; i++ {
				v, err := c.mem.loadScalar(addr+uint64(i*es), tt.Elem.Kind)
				if err != nil {
					return rv{}, err
				}
				lanes[i] = v.f
			}
		} else {
			lanes := ensureVI(dst, tt.Len)
			for i := 0; i < tt.Len; i++ {
				v, err := c.mem.loadScalar(addr+uint64(i*es), tt.Elem.Kind)
				if err != nil {
					return rv{}, err
				}
				lanes[i] = v.i
			}
		}
		return *dst, nil
	case *clc.PointerType:
		v, err := c.mem.loadScalar(addr, clc.KULong)
		return v, err
	}
	return rv{}, fmt.Errorf("vm: load of unsupported type %s", t)
}

// storeTyped stores v of type t at addr.
func (ge *groupExec) storeTyped(c *wiCtx, addr uint64, t clc.Type, v rv) error {
	switch tt := t.(type) {
	case *clc.ScalarType:
		return c.mem.storeScalar(addr, tt.Kind, v)
	case *clc.VectorType:
		es := tt.Elem.Size()
		for i := 0; i < tt.Len; i++ {
			var lane rv
			if tt.Elem.Kind.IsFloat() {
				lane.f = v.vf[i]
			} else {
				lane.i = v.vi[i]
			}
			if err := c.mem.storeScalar(addr+uint64(i*es), tt.Elem.Kind, lane); err != nil {
				return err
			}
		}
		return nil
	case *clc.PointerType:
		return c.mem.storeScalar(addr, clc.KULong, v)
	}
	return fmt.Errorf("vm: store of unsupported type %s", t)
}
