package jit

import (
	"fmt"
	"strings"

	"grover/internal/bcode"
	"grover/internal/ir"
)

// genModule emits a self-contained Go source file ("package main",
// stdlib imports only) containing one native lane function per eligible
// kernel plus the group runner and subprocess-worker machinery. The
// same source builds as a plugin (NewRunner is the exported entry) and
// as a worker executable (main → workerMain), so one artifact key
// covers both transports. Returns the source, the kernel-name → index
// map, and ok=false when no kernel is eligible.
//
// The generated code is a statement-for-statement transliteration of
// the bytecode's per-lane semantics: identical expression forms (so Go
// compiles identical float operations — no FMA contraction on amd64,
// no reassociation), identical arena-decode order, and identical error
// strings. Bit-identical results are by construction, and the
// differential suites enforce it.
func genModule(bm *bcode.Machine) (src string, kernels map[string]int, ok bool) {
	p := bm.Program()
	g := &srcGen{fnID: map[*bcode.BFunc]int{}}
	kernels = map[string]int{}
	var kerns []*bcode.BFunc
	for _, f := range p.Module.Funcs {
		if !f.IsKernel {
			continue
		}
		bf := bm.Func(f)
		if bf == nil || !g.supported(bf, map[*bcode.BFunc]bool{}) {
			continue
		}
		kernels[f.Name] = len(kerns)
		kerns = append(kerns, bf)
	}
	if len(kerns) == 0 {
		return "", nil, false
	}

	g.raw(genPreamble)

	// Analyses (barrier liveness, private-slot promotion) run for every
	// kernel before any emission: the dispatch table needs each kernel's
	// spill sizes, which include promoted slots.
	fes := make([]*fnEmit, len(kerns))
	for i, bf := range kerns {
		fes[i] = g.prepFunc(bf, i, true)
	}

	// Kernel dispatch: one case per kernel with its barrier-spill sizes.
	g.wl("func (s *runnerState) run(kernel int, gmem, local []byte, priv [][]byte, pi []int64, pf []float64, geom []int64) error {")
	g.wl("switch kernel {")
	for i, fe := range fes {
		nI, nF := fe.spillNeeds()
		g.wl("case %d:", i)
		g.wl("return s.runGroup(kern%d, %d, %d, gmem, local, priv, pi, pf, geom)", i, nI, nF)
	}
	g.wl("}")
	g.wl("return fmt.Errorf(\"jit: unknown native kernel %%d\", kernel)")
	g.wl("}")
	g.wl("")

	for _, fe := range fes {
		fe.emit()
	}
	// Callees discovered at call sites, in deterministic first-use order.
	for qi := 0; qi < len(g.fnQueue); qi++ {
		g.emitFunc(g.fnQueue[qi], g.fnID[g.fnQueue[qi]], false)
	}
	return g.b.String(), kernels, true
}

// srcGen accumulates the generated source and the callee emission queue.
type srcGen struct {
	b       strings.Builder
	fnID    map[*bcode.BFunc]int
	fnQueue []*bcode.BFunc
}

func (g *srcGen) raw(s string)          { g.b.WriteString(s) }
func (g *srcGen) wl(f string, a ...any) { fmt.Fprintf(&g.b, f+"\n", a...) }

// fnRef returns the generated-function id for a callee, queueing it for
// emission on first use.
func (g *srcGen) fnRef(bf *bcode.BFunc) int {
	id, have := g.fnID[bf]
	if !have {
		// Callee ids live above the kernel index space; uniqueness is all
		// that matters for the generated fn<N> names.
		id = 1000 + len(g.fnQueue)
		g.fnID[bf] = id
		g.fnQueue = append(g.fnQueue, bf)
	}
	return id
}

// spillSlots sizes the per-lane barrier spill arrays: every scalar
// register plus every vector lane of each bank.
func spillSlots(bf *bcode.BFunc) (nI, nF int) {
	nI, nF = bf.NInt, bf.NFlt
	for _, l := range bf.VecILens {
		nI += l
	}
	for _, l := range bf.VecFLens {
		nF += l
	}
	return nI, nF
}

// supported reports whether every opcode reachable from bf (through
// calls) has a native lowering. Unsupported kernels run on wgvec.
func (g *srcGen) supported(bf *bcode.BFunc, seen map[*bcode.BFunc]bool) bool {
	if seen[bf] {
		return true
	}
	seen[bf] = true
	for i := range bf.Code {
		in := &bf.Code[i]
		switch in.Op {
		case bcode.OpNop, bcode.OpJmp, bcode.OpCondBrI, bcode.OpCondBrF,
			bcode.OpRet, bcode.OpRetI, bcode.OpRetF, bcode.OpRetVI, bcode.OpRetVF,
			bcode.OpBarrier, bcode.OpTrap,
			bcode.OpConstI, bcode.OpZeroI, bcode.OpZeroF, bcode.OpMovI, bcode.OpMovF,
			bcode.OpGID, bcode.OpLID, bcode.OpGRP, bcode.OpGSZ, bcode.OpLSZ, bcode.OpNGRP,
			bcode.OpWIQ, bcode.OpAllocaP, bcode.OpAllocaL, bcode.OpIndex, bcode.OpIndexC,
			bcode.OpLdI8, bcode.OpLdU8, bcode.OpLdI16, bcode.OpLdU16, bcode.OpLdI32,
			bcode.OpLdU32, bcode.OpLdI64, bcode.OpLdF32, bcode.OpLdF64,
			bcode.OpLdXI8, bcode.OpLdXU8, bcode.OpLdXI16, bcode.OpLdXU16, bcode.OpLdXI32,
			bcode.OpLdXU32, bcode.OpLdXI64, bcode.OpLdXF32, bcode.OpLdXF64,
			bcode.OpStI8, bcode.OpStI16, bcode.OpStI32, bcode.OpStI64, bcode.OpStF32, bcode.OpStF64,
			bcode.OpStXI8, bcode.OpStXI16, bcode.OpStXI32, bcode.OpStXI64, bcode.OpStXF32, bcode.OpStXF64,
			bcode.OpLdVI, bcode.OpLdVF, bcode.OpLdXVI, bcode.OpLdXVF,
			bcode.OpStVI, bcode.OpStVF, bcode.OpStXVI, bcode.OpStXVF,
			bcode.OpAddI, bcode.OpSubI, bcode.OpMulI, bcode.OpAndI, bcode.OpOrI, bcode.OpXorI,
			bcode.OpAddI32, bcode.OpSubI32, bcode.OpMulI32,
			bcode.OpAddU32, bcode.OpSubU32, bcode.OpMulU32,
			bcode.OpAddF, bcode.OpSubF, bcode.OpMulF, bcode.OpDivF,
			bcode.OpAddF32, bcode.OpSubF32, bcode.OpMulF32, bcode.OpDivF32,
			bcode.OpNegF, bcode.OpNegI, bcode.OpNotI,
			bcode.OpVNegF, bcode.OpVNegI, bcode.OpVNotI,
			bcode.OpEqI, bcode.OpNeI, bcode.OpLtI, bcode.OpLeI, bcode.OpGtI, bcode.OpGeI,
			bcode.OpLtU, bcode.OpLeU, bcode.OpGtU, bcode.OpGeU,
			bcode.OpEqF, bcode.OpNeF, bcode.OpLtF, bcode.OpLeF, bcode.OpGtF, bcode.OpGeF,
			bcode.OpConvI, bcode.OpI2F, bcode.OpU2F, bcode.OpF2I, bcode.OpF2F32, bcode.OpVConv,
			bcode.OpVAddF, bcode.OpVSubF, bcode.OpVMulF, bcode.OpVDivF,
			bcode.OpExtI, bcode.OpExtF, bcode.OpInsI, bcode.OpInsF,
			bcode.OpShufI, bcode.OpShufF, bcode.OpBuildI, bcode.OpBuildF,
			bcode.OpDotVF, bcode.OpDotSS, bcode.OpLenVF, bcode.OpLenSS,
			bcode.OpMathF, bcode.OpMathI, bcode.OpVMathF, bcode.OpVMathI:
		case bcode.OpIntBin, bcode.OpVBinI:
			switch ir.Op(in.Sub) {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
			default:
				return false
			}
		case bcode.OpFltBin, bcode.OpVBinF:
			switch ir.Op(in.Sub) {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
			default:
				return false
			}
		case bcode.OpCall:
			if !g.supported(bf.Aux[in.Imm].Callee, seen) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// genPreamble is the static part of every generated module: the lane
// environment, the arena decode with the interpreter's exact error
// diagnostics, the group runner with its round structure and divergence
// messages, and the subprocess worker loop.
const genPreamble = `// Code generated by grover/internal/jit. DO NOT EDIT.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
)

var (
	_ = binary.LittleEndian
	_ = math.Sqrt
	_ = errors.New
	_ = bufio.NewReader
	_ = gob.NewDecoder
	_ = os.Stdin
)

const addrMask = 0x3fffffffffffffff

// env is one work-item's execution environment. Arenas and parameter
// banks are shared slices bound per group; ids and spill arrays are
// per lane.
type env struct {
	gmem, lmem, pmem []byte
	pi               []int64
	pf               []float64
	gid, lid, grp    [3]int64
	gsz, lsz, ngrp   [3]int64
	si               []int64
	sf               []float64
}

// arena selects the byte arena for a tag (addr >> 62).
func (e *env) arena(tag uint64) []byte {
	switch tag {
	case 1:
		return e.gmem
	case 2:
		return e.lmem
	}
	return e.pmem
}

// memErr reproduces the interpreter's two-stage bounds diagnostics for a
// failed scalar access.
func (e *env) memErr(addr uint64, sz int, store bool) error {
	off := addr & addrMask
	name := "private"
	switch addr >> 62 {
	case 1:
		name = "global"
	case 2:
		name = "local"
	}
	a := e.arena(addr >> 62)
	if int(off) >= len(a) {
		return fmt.Errorf("vm: %s access at %d out of bounds (%d)", name, off, len(a))
	}
	verb := "load"
	if store {
		verb = "store"
	}
	return fmt.Errorf("vm: %s of %d bytes at %d overruns arena (%d)", verb, sz, off, len(a))
}

// vecErr attributes a failed vector access to its first failing
// element, matching wgvec's per-element decode order.
func (e *env) vecErr(addr uint64, es, lanes int, store bool) error {
	for i := 0; i < lanes; i++ {
		a := addr + uint64(i*es)
		off := a & addrMask
		if int(off)+es > len(e.arena(a>>62)) {
			return e.memErr(a, es, store)
		}
	}
	return errors.New("vm: vector access error")
}

var (
	errDivZero     = errors.New("vm: integer division by zero")
	errRemZero     = errors.New("vm: integer remainder by zero")
	errBarrierCall = errors.New("vm: barrier inside a function call is unsupported")
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func nb(x int64) int64 {
	if x != 0 {
		return 1
	}
	return 0
}

func minS(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxS(a, b int64) int64 {
	if a < b {
		return b
	}
	return a
}

func minU(a, b int64) int64 {
	if uint64(a) < uint64(b) {
		return a
	}
	return b
}

func maxU(a, b int64) int64 {
	if uint64(a) < uint64(b) {
		return b
	}
	return a
}

// runnerState holds per-worker lane state reused across groups.
type runnerState struct {
	envs   []env
	resume []int
	done   []bool
}

// NewRunner is the plugin entry point: it returns a group runner bound
// to fresh per-worker state. geom is [gsz0..2, lsz0..2, ngrp0..2,
// grp0..2]; the runner executes exactly one work-group per call.
func NewRunner() func(kernel int, gmem, local []byte, priv [][]byte, pi []int64, pf []float64, geom []int64) error {
	s := &runnerState{}
	return s.run
}

// runGroup executes one work-group in barrier-delimited rounds with
// the interpreter's exact divergence diagnostics: a lane function returns
// 0 when the work-item finished and a positive barrier-site id when it
// suspended there.
func (s *runnerState) runGroup(kern func(*env, int) (int, error), needI, needF int,
	gmem, local []byte, priv [][]byte, pi []int64, pf []float64, geom []int64) error {
	n := int(geom[3] * geom[4] * geom[5])
	if cap(s.envs) < n {
		s.envs = make([]env, n)
		s.resume = make([]int, n)
		s.done = make([]bool, n)
	}
	envs, resume, done := s.envs[:n], s.resume[:n], s.done[:n]
	lx, lp := int(geom[3]), int(geom[3]*geom[4])
	for l := 0; l < n; l++ {
		e := &envs[l]
		e.gmem, e.lmem, e.pmem = gmem, local, priv[l]
		e.pi, e.pf = pi, pf
		for d := 0; d < 3; d++ {
			e.gsz[d], e.lsz[d], e.ngrp[d], e.grp[d] = geom[d], geom[3+d], geom[6+d], geom[9+d]
		}
		e.lid[0], e.lid[1], e.lid[2] = int64(l%lx), int64((l%lp)/lx), int64(l/lp)
		for d := 0; d < 3; d++ {
			e.gid[d] = e.grp[d]*e.lsz[d] + e.lid[d]
		}
		if cap(e.si) < needI {
			e.si = make([]int64, needI)
		}
		e.si = e.si[:needI]
		if cap(e.sf) < needF {
			e.sf = make([]float64, needF)
		}
		e.sf = e.sf[:needF]
		resume[l] = 0
		done[l] = false
	}
	doneBefore := 0
	for {
		barrierAt := -1
		atBarrier, doneTotal := 0, 0
		for l := 0; l < n; l++ {
			if done[l] {
				doneTotal++
				continue
			}
			site, err := kern(&envs[l], resume[l])
			if err != nil {
				return fmt.Errorf("work-item %d: %w", l, err)
			}
			if site == 0 {
				done[l] = true
				doneTotal++
				continue
			}
			resume[l] = site
			atBarrier++
			if barrierAt < 0 {
				barrierAt = site
			} else if barrierAt != site {
				return fmt.Errorf("barrier divergence: work-items reached different barriers")
			}
		}
		doneNow := doneTotal - doneBefore
		if atBarrier > 0 && doneNow > 0 {
			return fmt.Errorf("barrier divergence: %d work-items at a barrier while %d finished", atBarrier, doneNow)
		}
		if atBarrier == 0 {
			return nil
		}
		doneBefore = doneTotal
	}
}

// workerReq/workerResp are the gob frames of the subprocess transport;
// the host mirrors these shapes (gob matches by field name).
type workerReq struct {
	Kernel     int
	Gmem       []byte
	LocalBytes int
	PrivBytes  int
	ParamI     []int64
	ParamF     []float64
	Geom       []int64 // gsz0..2, lsz0..2, ngrp0..2
}

type workerResp struct {
	Gmem []byte
	Err  string
}

// workerMain is the subprocess transport: one whole launch per request,
// groups run in ascending linear order with wgvec's group error wrap.
func workerMain() {
	dec := gob.NewDecoder(bufio.NewReader(os.Stdin))
	bw := bufio.NewWriter(os.Stdout)
	enc := gob.NewEncoder(bw)
	run := NewRunner()
	for {
		var req workerReq
		if err := dec.Decode(&req); err != nil {
			return
		}
		n := int(req.Geom[3] * req.Geom[4] * req.Geom[5])
		priv := make([][]byte, n)
		for i := range priv {
			priv[i] = make([]byte, req.PrivBytes)
		}
		var local []byte
		geom := make([]int64, 12)
		copy(geom, req.Geom[:9])
		ng0, ng1, ng2 := int(req.Geom[6]), int(req.Geom[7]), int(req.Geom[8])
		var err error
		for gi := 0; gi < ng0*ng1*ng2 && err == nil; gi++ {
			gz := gi / (ng0 * ng1)
			rem := gi % (ng0 * ng1)
			gy, gx := rem/ng0, rem%ng0
			if req.LocalBytes > 0 {
				if local == nil {
					local = make([]byte, req.LocalBytes)
				} else {
					clear(local)
				}
			}
			geom[9], geom[10], geom[11] = int64(gx), int64(gy), int64(gz)
			if e := run(req.Kernel, req.Gmem, local, priv, req.ParamI, req.ParamF, geom); e != nil {
				err = fmt.Errorf("group (%d,%d,%d): %w", gx, gy, gz, e)
			}
		}
		resp := workerResp{Gmem: req.Gmem}
		if err != nil {
			resp.Err = err.Error()
		}
		if e := enc.Encode(&resp); e != nil {
			return
		}
		if e := bw.Flush(); e != nil {
			return
		}
	}
}

func main() { workerMain() }

`
