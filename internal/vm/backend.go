package vm

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"grover/internal/clc"
	"grover/internal/ir"
)

// BackendInterp names the built-in tree-walking interpreter backend: the
// oracle every other engine is checked against.
const BackendInterp = "interp"

// BackendWgvec names the work-group-vectorized engine (internal/wgvec),
// the default wherever it is linked in. The vm cannot import it — the
// engine is built on the vm — so the name lives here.
const BackendWgvec = "wgvec"

// EnvBackend is the environment variable that selects the default
// execution backend for launches whose Config.Backend is empty.
const EnvBackend = "GROVER_BACKEND"

// Executor is an execution engine for a prepared Program. Program.Launch
// owns everything about a launch but running its work-groups: it resolves
// the kernel, geometry and arguments into a Dispatch, deals the groups to
// host workers, lends traced launches their states and collects errors.
// An engine builds one group state for a dispatch and runs work-groups
// with it; Program.Launch releases the state when the launch ends.
//
// An engine must preserve the VM contract exactly — identical results,
// identical memory-trace emission and identical error behavior — so that
// simulated cycle counts are backend-invariant.
type Executor interface {
	// NewGroup builds a state that runs work-groups of d. traced says
	// whether the launch is traced: a traced state is lent from worker to
	// worker, each Run with the borrowing worker's tracer.
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

var backendsMu sync.RWMutex
var backendBuilders = map[string]func(context.Context, *Program) (Executor, error){}

// RegisterBackend makes a backend available under the given name.
// Backends register themselves from an init function; importing the
// backend package is enough to enable it. The builder receives the
// caller's context so backend compilation shows up as a span when the
// request is traced.
func RegisterBackend(name string, build func(context.Context, *Program) (Executor, error)) {
	if name == BackendInterp {
		panic("vm: cannot replace the interpreter backend")
	}
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if _, dup := backendBuilders[name]; dup {
		panic(fmt.Sprintf("vm: duplicate backend %q", name))
	}
	backendBuilders[name] = build
}

// Backends returns the names of all available backends, sorted, always
// including the built-in interpreter.
func Backends() []string {
	backendsMu.RLock()
	names := make([]string, 0, len(backendBuilders)+1)
	for n := range backendBuilders {
		names = append(names, n)
	}
	backendsMu.RUnlock()
	names = append(names, BackendInterp)
	sort.Strings(names)
	return names
}

// ValidBackend reports whether name refers to a registered backend.
func ValidBackend(name string) bool {
	if name == BackendInterp {
		return true
	}
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	_, ok := backendBuilders[name]
	return ok
}

// DefaultBackend returns the backend used when Config.Backend is empty:
// the GROVER_BACKEND environment variable when set, else wgvec, else —
// in a binary that links no compiled engine — the interpreter. The
// environment value is returned as given; ResolveBackend validates it.
func DefaultBackend() string {
	if v := os.Getenv(EnvBackend); v != "" {
		return v
	}
	if ValidBackend(BackendWgvec) {
		return BackendWgvec
	}
	return BackendInterp
}

// ResolveBackend validates a requested backend name eagerly, before any
// launch work happens: the empty string resolves through DefaultBackend
// (so a bad GROVER_BACKEND value is caught here too), and an unknown
// name errors immediately, listing every registered backend.
func ResolveBackend(name string) (string, error) {
	src := "backend"
	if name == "" {
		name = DefaultBackend()
		src = EnvBackend
	}
	if !ValidBackend(name) {
		return "", fmt.Errorf("vm: unknown %s %q (available: %v)", src, name, Backends())
	}
	return name, nil
}

// Executor returns the named backend's executor for this program,
// compiling it on first use and caching it alongside the program. The
// interpreter compiles nothing: vm builds its executor on every call.
func (p *Program) Executor(name string) (Executor, error) {
	return p.ExecutorCtx(context.Background(), name)
}

// ExecutorCtx is Executor with the caller's context threaded into the
// backend builder, so a first-use backend compile records its span into
// the request trace. Cache hits never touch the context.
//
// At most one build per backend name is in flight: concurrent first uses
// of one name share that build, and builds of different names do not wait
// on each other, so a builder may itself ask this program for another
// backend's executor. A failed build is not cached; the next call tries
// again.
func (p *Program) ExecutorCtx(ctx context.Context, name string) (Executor, error) {
	if name == BackendInterp {
		return interpreter{p}, nil
	}
	backendsMu.RLock()
	build, ok := backendBuilders[name]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vm: unknown backend %q (available: %v)", name, Backends())
	}
	p.execMu.Lock()
	b := p.execs[name]
	if b == nil {
		if p.execs == nil {
			p.execs = map[string]*execBuild{}
		}
		b = new(execBuild)
		p.execs[name] = b
	}
	p.execMu.Unlock()
	b.once.Do(func() {
		b.exec, b.err = build(ctx, p)
		if b.err != nil {
			b.err = fmt.Errorf("vm: backend %q: %w", name, b.err)
			p.execMu.Lock()
			delete(p.execs, name)
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

// RegCount returns the number of producing instructions in f.
func (p *Program) RegCount(f *ir.Function) int { return p.regCount[f] }

// StackBytes returns the conservative per-work-item private arena size.
func (p *Program) StackBytes() int { return p.stackBytes }
