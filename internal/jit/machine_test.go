package jit_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/jit"
	"grover/internal/lower"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// machineSrc has two kernels so one can lose its native lowering while
// its sibling keeps it, and a barrier plus dynamic __local memory so a
// trace of rot has several regions and all three arenas.
const machineSrc = `
__kernel void rot(__global float* out, __global const float* in, __local float* tmp) {
  int l = get_local_id(0);
  int g = get_global_id(0);
  tmp[l] = in[g] * 2.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[g] = tmp[(l + 1) % 16] + in[g];
}
__kernel void shift(__global float* out, __global const float* in, __local float* tmp) {
  int g = get_global_id(0);
  out[g] = in[g] + 3.0f;
}
`

const machineItems = 64

// prepareSrc builds a fresh program from machineSrc; edit, when set,
// changes the lowered module before it is prepared.
func prepareSrc(t *testing.T, edit func(*ir.Module)) *vm.Program {
	t.Helper()
	f, err := clc.Parse("m.cl", machineSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(mod)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// launchOn runs one kernel of machineSrc on a backend over fresh memory
// and returns the launch error and the out buffer.
func launchOn(prog *vm.Program, kernel, backend string, opts *vm.LaunchOpts) ([]float32, error) {
	g := vm.NewGlobalMem(1 << 12)
	out, in := g.Alloc(machineItems*4), g.Alloc(machineItems*4)
	vals := make([]float32, machineItems)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	in.WriteFloat32s(vals)
	cfg := vm.Config{
		GlobalSize: [3]int{machineItems, 1, 1}, LocalSize: [3]int{16, 1, 1},
		Backend: backend,
		Args:    []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.LocalArg(16 * 4)},
	}
	err := prog.Launch(kernel, cfg, g, opts)
	return out.ReadFloat32s(machineItems), err
}

// mustMatchWgvec launches the kernel untraced on jit and on wgvec and
// fails unless both succeed with equal memory.
func mustMatchWgvec(t *testing.T, prog *vm.Program, kernel string) {
	t.Helper()
	want, err := launchOn(prog, kernel, wgvec.Name, nil)
	if err != nil {
		t.Fatalf("wgvec %s: %v", kernel, err)
	}
	got, err := launchOn(prog, kernel, jit.Name, nil)
	if err != nil {
		t.Fatalf("jit %s: %v", kernel, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("jit %s memory differs from wgvec:\n jit   %v\n wgvec %v", kernel, got, want)
	}
}

// nativeEnv turns native codegen on for one test with a cache directory
// of its own and no module left over from an earlier test.
func nativeEnv(t *testing.T) {
	t.Helper()
	t.Setenv("GROVER_JIT", "native")
	t.Setenv("GROVER_JIT_CACHE", t.TempDir())
	jit.ResetNativeForTest()
}

func jitExecutor(t *testing.T, prog *vm.Program) vm.Executor {
	t.Helper()
	e, err := prog.Executor(jit.Name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hashTracer folds the whole event stream, in order, into one hash.
type hashTracer struct {
	h      hash.Hash64
	events int
}

func (s *hashTracer) put(tag byte, vals ...uint64) {
	var b [8]byte
	s.h.Write([]byte{tag})
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		s.h.Write(b[:])
	}
	s.events++
}

func (s *hashTracer) GroupBegin(g [3]int, linear int) {
	s.put('g', uint64(g[0]), uint64(g[1]), uint64(g[2]), uint64(linear))
}
func (s *hashTracer) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	st := uint64(0)
	if store {
		st = 1
	}
	s.put('a', uint64(in.ID), uint64(wi), addr, uint64(size), st)
}
func (s *hashTracer) Barrier(n int)          { s.put('b', uint64(n)) }
func (s *hashTracer) Instrs(wi int, n int64) { s.put('i', uint64(wi), uint64(n)) }
func (s *hashTracer) GroupEnd()              { s.put('e') }

func tracedHash(t *testing.T, prog *vm.Program, backend string) (uint64, int) {
	t.Helper()
	tr := &hashTracer{h: fnv.New64a()}
	opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
	if _, err := launchOn(prog, "rot", backend, opts); err != nil {
		t.Fatalf("traced %s: %v", backend, err)
	}
	return tr.h.Sum64(), tr.events
}

func profiled(t *testing.T, prog *vm.Program, backend string) *vm.ProfileReport {
	t.Helper()
	prof := vm.NewProfiler()
	if _, err := launchOn(prog, "rot", backend, &vm.LaunchOpts{Workers: 1, Profiler: prof}); err != nil {
		t.Fatalf("profiled %s: %v", backend, err)
	}
	return prof.Report()
}

// TestNativeOffIsWgvec: without native codegen a jit launch is a wgvec
// launch — same memory, and the profile names the engine that ran.
func TestNativeOffIsWgvec(t *testing.T) {
	t.Setenv("GROVER_JIT", "")
	prog := prepareSrc(t, nil)
	if k := jit.NativeKernels(jitExecutor(t, prog)); len(k) != 0 {
		t.Fatalf("native kernels %v with GROVER_JIT unset", k)
	}
	mustMatchWgvec(t, prog, "rot")
	mustMatchWgvec(t, prog, "shift")
	if rep := profiled(t, prog, jit.Name); rep.Backend != wgvec.Name {
		t.Errorf("profile labeled %q, want %q", rep.Backend, wgvec.Name)
	}
}

// TestNativeTracedAndProfiledRunOnWgvec: with native code built, a traced
// launch delivers exactly the stream a direct wgvec launch delivers and a
// profiled launch reports wgvec's regions, while the plain launch of the
// same kernel still agrees on memory.
func TestNativeTracedAndProfiledRunOnWgvec(t *testing.T) {
	nativeEnv(t)
	prog := prepareSrc(t, nil)
	if k := jit.NativeKernels(jitExecutor(t, prog)); !reflect.DeepEqual(k, []string{"rot", "shift"}) {
		t.Fatalf("native kernels = %v, want both (is a Go toolchain on PATH?)", k)
	}
	mustMatchWgvec(t, prog, "rot")

	wantHash, wantEvents := tracedHash(t, prog, wgvec.Name)
	gotHash, gotEvents := tracedHash(t, prog, jit.Name)
	if wantEvents == 0 {
		t.Fatal("wgvec delivered an empty trace")
	}
	if gotHash != wantHash || gotEvents != wantEvents {
		t.Errorf("traced jit stream (%d events, %#x) differs from wgvec's (%d events, %#x)",
			gotEvents, gotHash, wantEvents, wantHash)
	}

	want, got := profiled(t, prog, wgvec.Name), profiled(t, prog, jit.Name)
	if got.Backend != wgvec.Name {
		t.Errorf("profile labeled %q, want %q", got.Backend, wgvec.Name)
	}
	if got.Retired == 0 || got.Retired != want.Retired || got.Loads != want.Loads ||
		got.Stores != want.Stores || len(got.Regions) != len(want.Regions) {
		t.Errorf("profiled jit counters differ from wgvec's:\n jit   %+v\n wgvec %+v", got, want)
	}
}

// TestUnsupportedKernelFallsBackAlone: a kernel the generator rejects
// runs on wgvec — here to the very error wgvec raises — while its sibling
// in the same module keeps its native code. No OpenCL C source lowers to
// an unsupported opcode today, so the float add in shift is rewritten to
// a bitwise and after lowering.
func TestUnsupportedKernelFallsBackAlone(t *testing.T) {
	nativeEnv(t)
	prog := prepareSrc(t, func(mod *ir.Module) {
		edited := false
		for _, b := range mod.Kernel("shift").Blocks {
			for _, in := range b.Instrs {
				if st, ok := in.Typ.(*clc.ScalarType); ok && in.Op == ir.OpAdd && st.Kind.IsFloat() {
					in.Op = ir.OpAnd
					edited = true
				}
			}
		}
		if !edited {
			t.Fatal("no float add in shift to rewrite")
		}
	})
	if k := jit.NativeKernels(jitExecutor(t, prog)); !reflect.DeepEqual(k, []string{"rot"}) {
		t.Fatalf("native kernels = %v, want only rot", k)
	}
	mustMatchWgvec(t, prog, "rot")
	_, wantErr := launchOn(prog, "shift", wgvec.Name, nil)
	_, gotErr := launchOn(prog, "shift", jit.Name, nil)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("shift on jit: %v; on wgvec: %v; want the same error", gotErr, wantErr)
	}
}

// TestNoToolchainRunsOnWgvec: native mode on a host without `go` builds
// nothing and launches stay correct.
func TestNoToolchainRunsOnWgvec(t *testing.T) {
	nativeEnv(t)
	t.Setenv("PATH", t.TempDir())
	prog := prepareSrc(t, nil)
	if k := jit.NativeKernels(jitExecutor(t, prog)); len(k) != 0 {
		t.Fatalf("native kernels %v built without a toolchain", k)
	}
	mustMatchWgvec(t, prog, "rot")
	mustMatchWgvec(t, prog, "shift")
}

// TestWorkerDeathFallsBackToWgvec kills the native worker subprocess
// between launches. The launch that finds it dead, later launches of the
// same machine, and a machine prepared afterwards from the same source
// (which shares the worker through the module cache) must all return
// wgvec's result without an error.
func TestWorkerDeathFallsBackToWgvec(t *testing.T) {
	nativeEnv(t)
	t.Setenv("GROVER_JIT_TRANSPORT", "worker")
	prog := prepareSrc(t, nil)
	e := jitExecutor(t, prog)
	if k := jit.NativeKernels(e); len(k) != 2 {
		t.Fatalf("native kernels = %v, want both (is a Go toolchain on PATH?)", k)
	}
	mustMatchWgvec(t, prog, "rot")

	if !jit.KillWorker(e) {
		t.Fatal("no worker subprocess to kill under GROVER_JIT_TRANSPORT=worker")
	}
	mustMatchWgvec(t, prog, "rot")
	if k := jit.NativeKernels(e); len(k) != 0 {
		t.Errorf("native kernels %v still offered after the worker died", k)
	}
	mustMatchWgvec(t, prog, "shift")

	again := prepareSrc(t, nil)
	mustMatchWgvec(t, again, "rot")
}
