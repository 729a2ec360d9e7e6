// Package wgvec is a work-group-vectorized execution backend for the
// kernel VM. It compiles each function once into register bytecode
// (bytecode.go, compile.go) and flips the interpreter's loop nest: instead
// of dispatching every instruction once per work-item, the executor walks
// instructions once per work-group and sweeps all active work-items over
// columnar (struct-of-arrays) register banks — ri[reg][wi], rf[reg][wi] —
// so the dispatch overhead of a barrier region is paid once instead of
// local_size times and the inner loops are tight, bounds-check-friendly
// sweeps over contiguous columns.
//
// Control flow is handled with per-work-item active masks: the CFG of
// each function is annotated with reverse-post-order block priorities,
// and a scheduler repeatedly runs the pending program point with minimal
// (block priority, pc), with the mask of all work-items waiting there.
// For the reducible, structured CFGs the frontend emits this reconverges
// divergent work-items exactly at the immediate post-dominator of the
// branch (the divergence-region machinery of internal/analysis); on
// adversarial shapes it degrades to smaller masks, never to wrong
// results. Instructions proven work-group-uniform by the uniformity
// analysis execute once per group and broadcast, guarded at runtime by a
// full-mask check.
//
// The backend preserves the PR 3 execution contract exactly: cooperative
// barrier semantics with barrier-divergence detection, and
// backend-invariant simulated counters. Memory-trace events are buffered
// during lockstep execution — a memory instruction under a full mask as one
// op and a column of addresses, any other as a record per active work-item
// — and handed to the tracer at the end of each barrier round — as one
// vm.AccessBatch when the tracer takes batches, else replayed access by
// access in work-item-major order — so memsim observes the same stream as
// from the interpreter.
//
// The package installs itself as the VM's engine, "wgvec"; importing it
// (a blank import suffices) makes every launch that names no backend run
// here.
package wgvec

import (
	"context"
	"sync"

	"grover/internal/analysis"
	"grover/internal/ir"
	"grover/internal/telemetry"
	"grover/internal/vm"
)

// Name is the engine's name, the one vm.Engine reports.
const Name = vm.BackendWgvec

func init() {
	vm.InstallEngine(func(ctx context.Context, p *vm.Program) (vm.Executor, error) {
		return CompileCtx(ctx, p)
	})
}

// Machine is a prepared program compiled to bytecode: one bfunc per
// function of the module, with its scheduling and uniformity metadata. It
// implements vm.Executor; the vm caches one Machine per program.
type Machine struct {
	p     *vm.Program
	funcs map[*ir.Function]*bfunc

	// traces pools the trace buffers (*vm.AccessBatch) traced launches
	// work with, so a machine launched again — concurrently, under an
	// all-device autotune — does not regrow them every time. Their
	// instruction tables point into this machine's own program.
	traces sync.Pool
}

// Compile lowers every function of a prepared program to bytecode and
// annotates it for the lockstep scheduler.
func Compile(p *vm.Program) (*Machine, error) {
	return CompileCtx(context.Background(), p)
}

// CompileCtx is Compile recording a wgvec.compile span into the trace
// carried by ctx, if any.
func CompileCtx(ctx context.Context, p *vm.Program) (*Machine, error) {
	defer telemetry.StartSpan(ctx, "wgvec.compile")()
	m := &Machine{p: p, funcs: map[*ir.Function]*bfunc{}}
	m.traces.New = func() any { return new(vm.AccessBatch) }
	// Uniform execute-once facts assume work-group-uniform parameters,
	// which holds for launch arguments but not for call arguments; only
	// kernels that are never themselves called qualify.
	called := map[*ir.Function]bool{}
	for _, f := range p.Module.Funcs {
		// Shells first so call sites can reference not-yet-compiled callees.
		m.funcs[f] = &bfunc{Fn: f}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil {
					called[in.Callee] = true
				}
			}
		}
	}
	for _, f := range p.Module.Funcs {
		compileFunc(p, m.funcs, f)
		m.funcs[f].annotate(f.IsKernel && !called[f])
	}
	return m, nil
}

// Program returns the prepared program this machine executes.
func (m *Machine) Program() *vm.Program { return m.p }

// annotate fills in the scheduling metadata of a compiled function. root
// marks functions whose parameters are work-group-uniform (kernels never
// called as functions); only those get uniform execute-once flags.
func (bf *bfunc) annotate(root bool) {
	fn := bf.Fn
	bf.blockOf = make([]int32, len(bf.Code))
	bf.uniform = make([]bool, len(bf.Code))
	nb := len(fn.Blocks)
	if nb == 0 {
		bf.prio = []int32{0}
		return
	}
	for bi := 0; bi < nb; bi++ {
		start := bf.BlockStart[bi]
		end := int32(len(bf.Code))
		if bi+1 < nb {
			end = bf.BlockStart[bi+1]
		}
		for pc := start; pc < end; pc++ {
			bf.blockOf[pc] = int32(bi)
		}
	}
	cfg := ir.NewCFG(fn)
	// Reverse post-order places every block of a divergence region before
	// the region's immediate post-dominator (for reducible CFGs), so the
	// min-priority scheduler keeps divergent work-items inside the region
	// until all of them arrive at the reconvergence point.
	bf.prio = make([]int32, nb)
	for i := range bf.prio {
		bf.prio[i] = int32(nb) // unreachable blocks last; never executed
	}
	for i, b := range cfg.RPO() {
		bf.prio[b] = int32(i)
	}
	if !root {
		return
	}
	u := analysis.ComputeUniformity(cfg, analysis.ComputeReachingDefs(cfg))
	for pc := range bf.Code {
		bf.uniform[pc] = uniformInst(&bf.Code[pc], u)
	}
}

// uniformInst reports whether one bytecode instruction is statically
// work-group-uniform: its originating IR instruction produces the same
// value for every work-item and sits in a control-uniform block. The
// executor additionally requires a full active mask at runtime before
// applying execute-once-and-broadcast.
func uniformInst(in *inst, u *analysis.Uniformity) bool {
	switch in.Op {
	case opNop, opJmp, opCondBrI, opCondBrF,
		opRet, opRetI, opRetF, opRetVI, opRetVF,
		opBarrier, opCall, opTrap:
		// Control flow is handled by the scheduler; calls execute
		// per-work-item so nested trace and retire accounting stay exact.
		return false
	}
	src := in.In
	if src == nil || src.Block == nil || u.DivergentBlock(src.Block) {
		return false
	}
	if src.Op == ir.OpStore {
		// A store is uniform when address and value are; for fused
		// superinstructions Args[0] is the folded index instruction,
		// whose divergence covers the address chain.
		for _, a := range src.Args {
			if u.Divergent(a) {
				return false
			}
		}
		return true
	}
	if !src.Producing() {
		return false
	}
	return !u.Divergent(src)
}
