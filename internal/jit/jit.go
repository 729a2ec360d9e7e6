// Package jit is the native-code execution backend for the kernel VM: a
// code generator, a build cache, and a small launch shim layered on the
// program's wgvec machine.
//
// With GROVER_JIT=native (or the -jit-native flag on the CLIs) every
// eligible kernel is emitted as Go source — a statement-for-statement
// transliteration of its bytecode — built with `go build
// -buildmode=plugin` (with a subprocess worker as fallback transport),
// and content-addressed in a kcache.DiskStore so a fleet of groverd
// processes compiles each kernel×plan once. The bytecode comes from the
// wgvec machine the program's executor cache already holds, so a jit
// compile lowers the program once, not twice.
//
// A launch has exactly two paths. It runs the natively built kernel when
// one exists for that kernel and the launch is neither traced nor
// profiled; every other case — native off, no Go toolchain, a failed
// build or load, a kernel the generator does not support, a tracer, a
// profiler, a native worker that died — is one call to the wgvec
// executor of the same program. Non-native execution therefore is wgvec,
// not a copy of it: trace streams, simulated counters, profile reports
// (labeled "wgvec", the engine that ran) and error text are the same
// object's output. See EXPERIMENTS.md for the invariance argument.
//
// The backend registers itself with the VM under the name "jit";
// importing the package (a blank import suffices) enables it.
package jit

import (
	"context"

	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// Name is the backend's registration name.
const Name = "jit"

func init() {
	vm.RegisterBackend(Name, func(ctx context.Context, p *vm.Program) (vm.Executor, error) {
		return CompileCtx(ctx, p)
	})
}

// Machine is the program's shared wgvec machine plus, in native mode, the
// natively compiled kernels. It implements vm.Executor; the vm caches one
// Machine per program, and a Machine is safe for concurrent launches from
// many workers.
type Machine struct {
	wg *wgvec.Machine

	// native holds the built module when GROVER_JIT=native produced one;
	// nil means every launch runs on wg.
	native *nativeModule
}

// CompileCtx takes the program's wgvec machine from its executor cache
// (compiling it there on first use, under the bcode.compile and
// wgvec.compile spans) and, in native mode, emits, builds and loads
// native code for the eligible kernels under a jit.compile span.
func CompileCtx(ctx context.Context, p *vm.Program) (*Machine, error) {
	e, err := p.ExecutorCtx(ctx, wgvec.Name)
	if err != nil {
		return nil, err
	}
	m := &Machine{wg: e.(*wgvec.Machine)}
	if NativeEnabled() {
		defer telemetry.StartSpan(ctx, "jit.compile")()
		// Best-effort: any failure (no toolchain, incompatible host build,
		// no eligible kernel) leaves native nil.
		m.native = buildNativeModule(ctx, m.wg.Bytecode())
	}
	return m, nil
}

// Program returns the prepared program this machine executes.
func (m *Machine) Program() *vm.Program { return m.wg.Program() }
