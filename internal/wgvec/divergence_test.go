// Divergence-stress fixtures for the lockstep backend: kernels chosen
// to force mask partitioning, reconvergence, and uniform-branch barrier
// placement. Every kernel must produce bit-identical memory and retire
// the same instruction count on the interpreter and on wgvec.
package wgvec_test

import (
	"bytes"
	"testing"

	"grover/internal/enginetest"
	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

var backends = enginetest.Engines()

// nestedSrc: both loop trip counts depend on the work-item id, so lanes
// leave the inner and outer loops at different iterations and must
// reconverge at each loop exit.
const nestedSrc = `
__kernel void nested(__global int* out, int n) {
    int g = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < (g % 4) + 1; i++) {
        for (int j = 0; j < ((i + g) % 3) + 1; j++) {
            acc += i * 10 + j + 1;
        }
    }
    out[g] = acc;
}
`

// breakSrc: divergent continue and break, plus a divergent early return.
const breakSrc = `
__kernel void breaker(__global int* out, int n) {
    int g = get_global_id(0);
    if (g >= n) {
        return;
    }
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        if (((i + g) % 5) == 0) {
            continue;
        }
        if (i > (g % 7) + 6) {
            break;
        }
        acc += i + 1;
    }
    out[g] = acc;
}
`

// ubarSrc: a barrier pair inside a branch on a uniform kernel argument —
// legal because every work-item takes the same arm. Exercises wgvec's
// all-lanes-agree inline continuation around barrier suspension.
const ubarSrc = `
__kernel void ubar(__global float* out, __global float* in,
                   __local float* tile, int mode) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    float v = in[g];
    if (mode > 0) {
        tile[l] = v;
        barrier(CLK_LOCAL_MEM_FENCE);
        v += tile[(l + 1) % ls];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[g] = v;
}
`

// diamondSrc: a divergent if/else diamond feeding a local-memory
// exchange, so reconvergence must be complete before the barrier.
const diamondSrc = `
__kernel void diamond(__global float* out, __global float* in,
                      __local float* tile, int n) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    float v;
    if ((g % 2) == 0) {
        v = in[g] * 2.0f;
    } else {
        v = in[g] + 3.0f;
    }
    tile[l] = v;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g] = tile[ls - 1 - l];
}
`

// privSrc: regression for uniform loads/stores of private variables. The
// loop counter and accumulator live at statically uniform private
// addresses, but private storage is per-lane: a second work-group must
// not observe the first group's accumulator.
const privSrc = `
__kernel void priv(__global float* out, __global float* in,
                   __local float* dyn, int n) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    dyn[l] = in[g % n];
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int i = 0; i < ls; i++) {
        acc += dyn[(l + i) % ls];
    }
    out[g % n] = acc + (float)l;
}
`

type retireTracer struct{ n int64 }

func (t *retireTracer) GroupBegin(group [3]int, linear int)                            {}
func (t *retireTracer) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {}
func (t *retireTracer) Barrier(wiCount int)                                            {}
func (t *retireTracer) Instrs(wi int, n int64)                                         { t.n += n }
func (t *retireTracer) GroupEnd()                                                      {}

type fixture struct {
	name, src, kernel string
	global, local     [3]int
	scalar            int64 // trailing int argument (n or mode)
	dynBytes          int   // dynamic __local size; 0 = no __local argument
	floats            bool  // float in/out buffers instead of one int buffer
}

func runFixture(t *testing.T, fx fixture) {
	t.Helper()
	plat := opencl.NewPlatform()
	var wantMem []byte
	var wantRetired int64
	for bi, backend := range backends {
		ctx := opencl.NewContext(plat.Devices()[0])
		prog, err := ctx.CompileProgram(fx.name, fx.src, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		var args []interface{}
		if fx.floats {
			out := ctx.NewBuffer(4 * 256)
			in := ctx.NewBuffer(4 * 256)
			vals := make([]float32, 256)
			for i := range vals {
				vals[i] = float32(i%13) + 0.5
			}
			in.WriteFloat32(vals)
			args = []interface{}{out, in}
		} else {
			args = []interface{}{ctx.NewBuffer(4 * 256)}
		}
		if fx.dynBytes > 0 {
			args = append(args, opencl.LocalMem{Size: fx.dynBytes})
		}
		args = append(args, fx.scalar)
		vargs, err := opencl.VMArgs(args...)
		if err != nil {
			t.Fatalf("args: %v", err)
		}
		tr := &retireTracer{}
		cfg := vm.Config{GlobalSize: fx.global, LocalSize: fx.local, Backend: backend, Args: vargs}
		opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
		if err := prog.VM().Launch(fx.kernel, cfg, ctx.Mem(), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if bi == 0 {
			wantMem = append([]byte(nil), ctx.Mem().Data...)
			wantRetired = tr.n
			continue
		}
		if !bytes.Equal(ctx.Mem().Data, wantMem) {
			t.Errorf("%s: memory differs from interpreter", backend)
		}
		if tr.n != wantRetired {
			t.Errorf("%s: retired %d instructions, interpreter retired %d", backend, tr.n, wantRetired)
		}
	}
}

func TestDivergenceFixtures(t *testing.T) {
	fixtures := []fixture{
		{name: "nested", src: nestedSrc, kernel: "nested",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 64},
		{name: "break", src: breakSrc, kernel: "breaker",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 50},
		{name: "ubar-on", src: ubarSrc, kernel: "ubar",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 1,
			dynBytes: 4 * 8, floats: true},
		{name: "ubar-off", src: ubarSrc, kernel: "ubar",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 0,
			dynBytes: 4 * 8, floats: true},
		{name: "diamond", src: diamondSrc, kernel: "diamond",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 64,
			dynBytes: 4 * 8, floats: true},
		{name: "priv", src: privSrc, kernel: "priv",
			global: [3]int{32, 2, 1}, local: [3]int{8, 1, 1}, scalar: 60,
			dynBytes: 4 * 8, floats: true},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			runFixture(t, fx)
		})
	}
}
