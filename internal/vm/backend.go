package vm

import (
	"context"
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
)

// BackendInterp names the built-in tree-walking interpreter backend: the
// oracle every other engine is checked against.
const BackendInterp = "interp"

// BackendWgvec names the work-group-vectorized engine (internal/wgvec),
// the engine wherever it is linked in. The vm cannot import it — the
// engine is built on the vm — so the name lives here.
const BackendWgvec = "wgvec"

// Executor is an execution engine for a prepared Program. Program.Launch
// owns everything about a launch but running its work-groups: it resolves
// the kernel, geometry and arguments into a Dispatch, deals the groups to
// host workers and collects errors. An engine builds one group state per
// worker and runs that worker's work-groups with it; Program.Launch
// releases the state when the worker is done.
//
// An engine must preserve the VM contract exactly — identical results,
// identical memory-trace emission and identical error behavior — so that
// simulated cycle counts are backend-invariant.
type Executor interface {
	// NewGroup builds a state that runs one worker's work-groups of d.
	// traced says whether each Run is given the worker's tracer.
	NewGroup(d *Dispatch, traced bool) Group
}

// Group is one engine's execution state for a dispatch. It runs one
// work-group at a time and keeps what it built (registers, stacks, scratch)
// from one group to the next.
type Group interface {
	// Run executes one work-group with the given coordinates and linear
	// id, reporting to tr (nil when the launch is untraced). A group that
	// fails returns the error; Program.Launch aborts the tracer's group.
	Run(group [3]int, linear int, tr Tracer) error
	// Release gives back what the state borrowed; it runs no group after.
	Release()
}

// buildEngine compiles wgvec's executor for a program; nil in a binary
// that links no engine. oracle, set by the oracle build tag (oracle.go),
// makes the interpreter run every launch that names no backend.
var (
	buildEngine func(context.Context, *Program) (Executor, error)
	oracle      bool
)

// InstallEngine makes build the engine, BackendWgvec: what every launch
// whose Config.Backend is empty runs on. internal/wgvec calls it from init,
// so importing that package is enough. The builder receives the caller's
// context so compilation shows up as a span when the request is traced.
func InstallEngine(build func(context.Context, *Program) (Executor, error)) {
	buildEngine = build
}

// Engine names the engine that runs launches whose Config.Backend is
// empty: wgvec where it is linked in, else — and in a binary built with
// the oracle tag — the interpreter.
func Engine() string {
	if buildEngine == nil || oracle {
		return BackendInterp
	}
	return BackendWgvec
}

// Backends returns the names a launch can give in Config.Backend, sorted:
// the interpreter and, where it is linked in, wgvec.
func Backends() []string {
	if buildEngine == nil {
		return []string{BackendInterp}
	}
	return []string{BackendInterp, BackendWgvec}
}

// ValidBackend reports whether a launch can name the engine.
func ValidBackend(name string) bool {
	return name == BackendInterp || name == BackendWgvec && buildEngine != nil
}

// ExecutorCtx returns the named engine's executor for this program. The
// interpreter compiles nothing: vm builds its executor on every call.
// wgvec is compiled on first use, with the caller's context threaded into
// the build so its span records into the request trace, and cached
// alongside the program; cache hits never touch the context. Concurrent
// first uses share one build. A failed build is not cached; the next call
// tries again.
func (p *Program) ExecutorCtx(ctx context.Context, name string) (Executor, error) {
	if name == BackendInterp {
		return interpreter{p}, nil
	}
	if !ValidBackend(name) {
		return nil, fmt.Errorf("vm: unknown backend %q (available: %v)", name, Backends())
	}
	p.execMu.Lock()
	b := p.exec
	if b == nil {
		b = new(execBuild)
		p.exec = b
	}
	p.execMu.Unlock()
	b.once.Do(func() {
		b.exec, b.err = buildEngine(ctx, p)
		if b.err != nil {
			b.err = fmt.Errorf("vm: backend %q: %w", name, b.err)
			p.execMu.Lock()
			p.exec = nil
			p.execMu.Unlock()
		}
	})
	return b.exec, b.err
}

// The accessors below expose the layouts Prepare computed so alternative
// backends can replicate the interpreter's memory model bit for bit.

// FrameSize returns the private-memory frame size of f in bytes.
func (p *Program) FrameSize(f *ir.Function) int { return p.frames[f].size }

// AllocaOffset returns the byte offset of an alloca within its arena:
// the function frame for private allocas, the group-local arena for
// __local allocas.
func (p *Program) AllocaOffset(in *ir.Instr, f *ir.Function) int {
	if in.Space == clc.ASLocal {
		return p.localOff[in]
	}
	return p.frames[f].offsets[in]
}

// StackBytes returns the conservative per-work-item private arena size.
func (p *Program) StackBytes() int { return p.stackBytes }
