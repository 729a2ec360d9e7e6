package opencl

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	igrover "grover/internal/grover"
	"grover/internal/vm"
)

const testKernel = `
__kernel void scale(__global float* data, float f, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * f;
}
`

func TestPlatformDevices(t *testing.T) {
	plat := NewPlatform()
	if len(plat.Devices()) != 6 {
		t.Fatalf("expected the paper's 6 devices, got %d", len(plat.Devices()))
	}
	for _, name := range []string{"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"} {
		d, err := plat.DeviceByName(name)
		if err != nil {
			t.Errorf("DeviceByName(%s): %v", name, err)
			continue
		}
		if d.ComputeUnits() <= 0 || d.Profile() == "" {
			t.Errorf("%s profile incomplete", name)
		}
	}
	if _, err := plat.DeviceByName("GTX9000"); err == nil {
		t.Error("unknown device should fail")
	}
	gpu, _ := plat.DeviceByName("Fermi")
	cpu, _ := plat.DeviceByName("SNB")
	if !gpu.IsGPU() || cpu.IsGPU() {
		t.Error("IsGPU misclassifies")
	}
}

func TestCompileAndRun(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.KernelNames(); len(got) != 1 || got[0] != "scale" {
		t.Errorf("KernelNames = %v", got)
	}
	k, err := prog.Kernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Kernel("missing"); err == nil {
		t.Error("missing kernel should error")
	}
	const n = 100
	buf := ctx.NewBuffer(n * 4)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	buf.WriteFloat32(vals)
	q := ctx.NewQueue()
	nd := NDRange{Global: [3]int{128, 1, 1}, Local: [3]int{32, 1, 1}}
	if _, err := q.EnqueueNDRange(k, nd, buf, float32(2.5), int32(n)); err != nil {
		t.Fatal(err)
	}
	got := buf.ReadFloat32(n)
	for i := range got {
		if got[i] != float32(i)*2.5 {
			t.Fatalf("data[%d] = %g", i, got[i])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	cases := map[string]string{
		"syntax":    `__kernel void k(__global float* a) { a[0] = ; }`,
		"semantics": `__kernel void k(__global float* a) { a[0] = undefined_var; }`,
		"preproc":   "#include <x.h>\n__kernel void k(__global float* a) {}",
	}
	for name, src := range cases {
		if _, err := ctx.CompileProgram(name, src, nil); err == nil {
			t.Errorf("%s: expected compile error", name)
		}
	}
}

func TestBadArguments(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("scale")
	q := ctx.NewQueue()
	nd := NDRange{Global: [3]int{32, 1, 1}, Local: [3]int{32, 1, 1}}
	// Wrong arg count.
	if _, err := q.EnqueueNDRange(k, nd, ctx.NewBuffer(4)); err == nil {
		t.Error("missing arguments should fail")
	}
	// Unsupported arg type.
	if _, err := q.EnqueueNDRange(k, nd, "nope", float32(1), int32(1)); err == nil {
		t.Error("string argument should fail")
	}
	// Global size not divisible by local size.
	bad := NDRange{Global: [3]int{33, 1, 1}, Local: [3]int{32, 1, 1}}
	if _, err := q.EnqueueNDRange(k, bad, ctx.NewBuffer(256), float32(1), int32(1)); err == nil {
		t.Error("indivisible NDRange should fail")
	}
}

func TestProfilingQueueTimes(t *testing.T) {
	plat := NewPlatform()
	for _, devName := range []string{"SNB", "Fermi"} {
		dev, _ := plat.DeviceByName(devName)
		ctx := NewContext(dev)
		prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := prog.Kernel("scale")
		buf := ctx.NewBuffer(1024 * 4)
		q, err := ctx.NewProfilingQueue()
		if err != nil {
			t.Fatal(err)
		}
		nd := NDRange{Global: [3]int{1024, 1, 1}, Local: [3]int{64, 1, 1}}
		evt, err := q.EnqueueNDRange(k, nd, buf, float32(3), int32(1024))
		if err != nil {
			t.Fatal(err)
		}
		if evt.Duration() <= 0 || evt.Cycles <= 0 || evt.Instrs <= 0 {
			t.Errorf("%s: profiling event incomplete: %+v", devName, evt)
		}
		// Events must be reproducible (deterministic simulator).
		evt2, err := q.EnqueueNDRange(k, nd, buf, float32(3), int32(1024))
		if err != nil {
			t.Fatal(err)
		}
		if evt.Cycles != evt2.Cycles {
			t.Errorf("%s: non-deterministic events: %d vs %d", devName, evt.Cycles, evt2.Cycles)
		}
	}
}

// divergentKernel fails in work-group 0, whose second half skips the
// barrier, while the other groups run to completion.
const divergentKernel = `
__kernel void bad(__global float* out) {
    __local float tile[16];
    tile[get_local_id(0)] = 1.0f;
    if (get_group_id(0) != 0 || get_local_id(0) < 8) barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[0];
}
`

// TestProfilingQueueSurvivesFailedLaunch: a kernel that fails mid-group on
// a single-device profiling queue returns its error promptly — no host
// worker is left waiting for a simulated core's turn behind the group that
// never ends — and the next launch on the same queue reports what a fresh
// queue reports.
func TestProfilingQueueSurvivesFailedLaunch(t *testing.T) {
	// Every device has an even number of cores, so with two host workers a
	// simulated core only ever takes groups from one of them; with three,
	// host workers cross and one can wait behind the failed group.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	plat := NewPlatform()
	for _, devName := range []string{"SNB", "Fermi"} {
		for _, backend := range vm.Backends() {
			dev, _ := plat.DeviceByName(devName)
			ctx := NewContext(dev)
			if err := ctx.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			kernel := func(name, src, kname string) *Kernel {
				prog, err := ctx.CompileProgram(name, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				k, err := prog.Kernel(kname)
				if err != nil {
					t.Fatal(err)
				}
				return k
			}
			bad, scale := kernel("bad.cl", divergentKernel, "bad"), kernel("scale.cl", testKernel, "scale")
			const n = 16 * 128
			nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
			buf := ctx.NewBuffer(n * 4)
			q, err := ctx.NewProfilingQueue()
			if err != nil {
				t.Fatal(err)
			}
			failed := make(chan error, 1)
			go func() {
				_, err := q.EnqueueNDRange(bad, nd, buf)
				failed <- err
			}()
			select {
			case err := <-failed:
				if err == nil || !strings.Contains(err.Error(), "barrier divergence") {
					t.Fatalf("%s on %s: error %v, want barrier divergence", devName, backend, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s on %s: the failing launch has not returned", devName, backend)
			}
			fresh, err := ctx.NewProfilingQueue()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.EnqueueNDRange(scale, nd, buf, float32(1), int32(n))
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.EnqueueNDRange(scale, nd, buf, float32(1), int32(n))
			if err != nil {
				t.Fatalf("%s on %s: launch after the failed one: %v", devName, backend, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: after a failed launch\n got %+v\nwant %+v", devName, backend, got.Stats, want.Stats)
			}
		}
	}
}

// TestPattern pins the deterministic fill: the apps' inputs — hence the
// data-dependent exits of AMD-SS and ROD-SC, the golden cells and every
// committed tune — and the service's buffer arguments are computed from it.
func TestPattern(t *testing.T) {
	for _, c := range []struct {
		seed uint32
		want []float32
	}{
		{1, []float32{-0.29492188, 0.8515625, 0.7558594, 0.51171875, 0.33789062, -0.921875, -0.29882812, 0.80078125}},
		{41, []float32{-0.5292969, -0.1953125, -0.8535156, -0.41015625, 0.35351562, -0.71875, 0.34179688, -0.87109375}},
	} {
		if got := Pattern(len(c.want), c.seed); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Pattern(%d, %d) = %v, want %v", len(c.want), c.seed, got, c.want)
		}
		// A longer fill starts the same way.
		if got := Pattern(100, c.seed)[:len(c.want)]; !reflect.DeepEqual(got, c.want) {
			t.Errorf("Pattern(100, %d) starts %v, want %v", c.seed, got, c.want)
		}
	}
	if len(Pattern(0, 1)) != 0 {
		t.Error("Pattern(0, 1) is not empty")
	}
}

func TestWithLocalMemoryDisabled(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	src := `
__kernel void k(__global float* out, __global float* in) {
    __local float sm[64];
    int lx = get_local_id(0);
    sm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = sm[lx] * 2.0f;
}
`
	prog, err := ctx.CompileProgram("k.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	noLM, rep, err := prog.WithLocalMemoryDisabled("k", igrover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Transformed() {
		t.Fatal("not transformed")
	}
	// Original program must be untouched.
	if !strings.Contains(prog.IR(), "__local") {
		t.Error("original program lost its local alloca")
	}
	if strings.Contains(noLM.IR(), "__local") {
		t.Errorf("transformed program still has local memory:\n%s", noLM.IR())
	}
	// Both versions must produce the same results.
	in := ctx.NewBuffer(256 * 4)
	out := ctx.NewBuffer(256 * 4)
	vals := make([]float32, 256)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	in.WriteFloat32(vals)
	q := ctx.NewQueue()
	nd := NDRange{Global: [3]int{256, 1, 1}, Local: [3]int{64, 1, 1}}
	for _, p := range []*Program{prog, noLM} {
		k, _ := p.Kernel("k")
		if _, err := q.EnqueueNDRange(k, nd, out, in); err != nil {
			t.Fatal(err)
		}
		got := out.ReadFloat32(256)
		for i := range got {
			if got[i] != vals[i]*2 {
				t.Fatalf("out[%d] = %g, want %g", i, got[i], vals[i]*2)
			}
		}
	}
}

func TestNoCandidatesPassthrough(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.WithLocalMemoryDisabled("scale", igrover.Options{}); err != igrover.ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestDynamicLocalArgViaAPI(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	src := `
__kernel void k(__global float* out, __local float* sm) {
    int lx = get_local_id(0);
    sm[lx] = (float)lx;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = sm[get_local_size(0) - 1 - lx];
}
`
	prog, err := ctx.CompileProgram("k.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("k")
	out := ctx.NewBuffer(64 * 4)
	q := ctx.NewQueue()
	nd := NDRange{Global: [3]int{64, 1, 1}, Local: [3]int{64, 1, 1}}
	if _, err := q.EnqueueNDRange(k, nd, out, LocalMem{Size: 64 * 4}); err != nil {
		t.Fatal(err)
	}
	got := out.ReadFloat32(64)
	for i := range got {
		if got[i] != float32(63-i) {
			t.Fatalf("out[%d] = %g", i, got[i])
		}
	}
}

func TestEventCarriesCacheStats(t *testing.T) {
	plat := NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := NewContext(dev)
	prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("scale")
	buf := ctx.NewBuffer(1024 * 4)
	q, err := ctx.NewProfilingQueue()
	if err != nil {
		t.Fatal(err)
	}
	nd := NDRange{Global: [3]int{1024, 1, 1}, Local: [3]int{64, 1, 1}}
	evt, err := q.EnqueueNDRange(k, nd, buf, float32(2), int32(1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(evt.Stats.Caches) != 3 { // SNB: L1+L2+LLC
		t.Fatalf("cache levels = %d, want 3", len(evt.Stats.Caches))
	}
	l1 := evt.Stats.Caches[0]
	if l1.Name != "L1" || l1.Accesses == 0 {
		t.Errorf("L1 stats missing: %+v", l1)
	}
	if l1.Hits+l1.Misses != l1.Accesses {
		t.Errorf("L1 invariants broken: %+v", l1)
	}
	if evt.Stats.DRAMAccesses == 0 {
		t.Error("cold run should touch DRAM")
	}
}

func TestDeviceByNameErrorListsDevices(t *testing.T) {
	plat := NewPlatform()
	_, err := plat.DeviceByName("GTX9000")
	if err == nil {
		t.Fatal("expected an error for an unknown device")
	}
	msg := err.Error()
	for _, name := range []string{"GTX9000", "Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not mention %q", msg, name)
		}
	}
}

// TestEngineNames pins what linking this package makes available: the
// oracle and the engine, wgvec when nothing is named, and the names of
// the engines removed in PRs 15 and 16 (the first still names the
// lowering package) unknown like any other, from every door.
func TestEngineNames(t *testing.T) {
	const available = "[interp wgvec]"
	if got := fmt.Sprint(vm.Backends()); got != available {
		t.Fatalf("vm.Backends() = %s, want %s", got, available)
	}
	t.Setenv(vm.EnvBackend, "")
	if got := vm.DefaultBackend(); got != vm.BackendWgvec {
		t.Errorf("vm.DefaultBackend() = %q, want %q", got, vm.BackendWgvec)
	}
	if got, err := vm.ResolveBackend(""); err != nil || got != vm.BackendWgvec {
		t.Errorf(`vm.ResolveBackend("") = %q, %v; want %q`, got, err, vm.BackendWgvec)
	}

	unknown := func(door, name string, err error, blame string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: %s accepted", door, name)
			return
		}
		for _, want := range []string{blame, fmt.Sprintf("%q", name), available} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %s", door, err, want)
			}
		}
	}
	ctx := NewContext(NewPlatform().Devices()[0])
	for _, removed := range []string{"bcode", "jit"} {
		_, err := vm.ResolveBackend(removed)
		unknown("ResolveBackend", removed, err, "unknown backend")
		unknown("SetBackend", removed, ctx.SetBackend(removed), "unknown backend")
		if ctx.Backend() != "" {
			t.Errorf("a rejected SetBackend stuck: %q", ctx.Backend())
		}
		t.Setenv(vm.EnvBackend, removed)
		_, err = vm.ResolveBackend("")
		unknown("GROVER_BACKEND", removed, err, vm.EnvBackend)
	}

	for _, name := range []string{"", "interp", "wgvec"} {
		if err := ctx.SetBackend(name); err != nil {
			t.Errorf("SetBackend(%q): %v", name, err)
		}
	}
}

// TestUnsetBackendRunsOnWgvec launches through a queue with nothing
// selected and reads which engine ran off the kernel profiler's report;
// naming the interpreter — on the context or in the environment — still
// gets the oracle.
func TestUnsetBackendRunsOnWgvec(t *testing.T) {
	ran := func(name string) string {
		t.Helper()
		ctx := NewContext(NewPlatform().Devices()[0])
		if err := ctx.SetBackend(name); err != nil {
			t.Fatal(err)
		}
		prog, err := ctx.CompileProgram("scale.cl", testKernel, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := prog.Kernel("scale")
		q := ctx.NewQueue()
		prof := vm.NewProfiler()
		q.SetKernelProfiler(prof)
		nd := NDRange{Global: [3]int{64, 1, 1}, Local: [3]int{16, 1, 1}}
		if _, err := q.EnqueueNDRange(k, nd, ctx.NewBuffer(64*4), float32(2), int32(64)); err != nil {
			t.Fatal(err)
		}
		return prof.Report().Backend
	}
	t.Setenv(vm.EnvBackend, "")
	if got := ran(""); got != vm.BackendWgvec {
		t.Errorf("nothing set: ran on %q, want %q", got, vm.BackendWgvec)
	}
	if got := ran(vm.BackendInterp); got != vm.BackendInterp {
		t.Errorf("SetBackend(interp): ran on %q", got)
	}
	t.Setenv(vm.EnvBackend, vm.BackendInterp)
	if got := ran(""); got != vm.BackendInterp {
		t.Errorf("%s=interp: ran on %q", vm.EnvBackend, got)
	}
}

// TestCompileModuleSharedAcrossContexts compiles once and instantiates the
// module on two devices concurrently — the pattern concurrent groverd
// requests sharing a cached artifact rely on. Run under -race this also checks that
// instantiation does not mutate the shared artifact.
func TestCompileModuleSharedAcrossContexts(t *testing.T) {
	mod, err := CompileModule("scale.cl", testKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	plat := NewPlatform()
	var wg sync.WaitGroup
	for _, name := range []string{"SNB", "Kepler"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			dev, err := plat.DeviceByName(name)
			if err != nil {
				t.Error(err)
				return
			}
			ctx := NewContext(dev)
			prog, err := ctx.NewProgramFromIR("scale.cl", mod)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			k, err := prog.Kernel("scale")
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			const n = 64
			buf := ctx.NewBuffer(n * 4)
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = float32(i)
			}
			buf.WriteFloat32(vals)
			q := ctx.NewQueue()
			nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
			if _, err := q.EnqueueNDRange(k, nd, buf, float32(3), int32(n)); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			got := buf.ReadFloat32(n)
			for i := range got {
				if got[i] != float32(i)*3 {
					t.Errorf("%s: out[%d] = %g, want %g", name, i, got[i], float32(i)*3)
					return
				}
			}
		}(name)
	}
	wg.Wait()
}
