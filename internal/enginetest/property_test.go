// Randomized differential property test: seeded random NDRange shapes,
// work-group sizes, scalar arguments and input buffers are run through
// every registered backend with a fixed worker count, and the full trace
// streams (hashed per worker, including instruction identity) plus the
// final memory images must agree exactly.
package enginetest_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

// stageSrc exercises barriers, static and dynamic __local memory, and
// cross-work-item data flow through the local arena.
const stageSrc = `
#define T 8
__kernel void stage(__global float* out, __global float* in,
                    __local float* dyn, int n, float bias) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0) + get_global_size(0) * get_global_id(1);
    __local float sbuf[T];
    sbuf[l % T] = in[g % n] + bias;
    dyn[l] = in[g % n] * 2.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int i = 0; i < ls; i++) {
        acc += dyn[(l + i) % ls] + sbuf[i % T];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g % n] = acc + sbuf[(T - 1) - (l % T)];
}
`

// scrambleSrc exercises helper-function calls, vector arithmetic and
// shuffles, math builtins, unsigned wrap-around and integer division.
const scrambleSrc = `
float mixup(float a, float b) {
    return mad(a, b, 1.5f) + fabs(a - b);
}
__kernel void scramble(__global float4* vout, __global float4* vin,
                       __global int* iout, int n, float s) {
    int g = get_global_id(0) + get_global_size(0) * get_global_id(1);
    if (g >= n) {
        return;
    }
    float4 v = vin[g];
    float d = dot(v, v) + 1.0f;
    float4 w = (float4)(mixup(v.x, s), sqrt(fabs(v.y) + 1.0f), v.z * s, rsqrt(d));
    vout[g] = w * (float4)(0.5f, 1.5f, -1.0f, 2.0f) + v.yxwz;
    uint u = (uint)g * 2654435761u;
    int k = (int)(u >> 7);
    iout[g] = (k % 97) + (g << 2) - (k / 3);
}
`

// hashTracer folds every trace event into one FNV-style accumulator.
// Instruction identity is hashed by pointer: both backends execute the
// same vm.Program in-process, so identical streams hash identically and
// any divergence in instruction attribution is caught.
type hashTracer struct{ h uint64 }

func (t *hashTracer) mix(vals ...uint64) {
	for _, v := range vals {
		t.h ^= v
		t.h *= 1099511628211
	}
}

func (t *hashTracer) GroupBegin(group [3]int, linear int) {
	t.mix(1, uint64(group[0]), uint64(group[1]), uint64(group[2]), uint64(linear))
}

func (t *hashTracer) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	s := uint64(0)
	if store {
		s = 1
	}
	t.mix(2, uint64(uintptr(unsafe.Pointer(in))), uint64(wi), addr, uint64(size), s)
}

func (t *hashTracer) Barrier(wiCount int)    { t.mix(3, uint64(wiCount)) }
func (t *hashTracer) Instrs(wi int, n int64) { t.mix(4, uint64(wi), uint64(n)) }
func (t *hashTracer) GroupEnd()              { t.mix(5) }

func TestBackendPropertyRandom(t *testing.T) {
	const (
		seed    = 0x5eed
		workers = 3
	)
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(seed))
	plat := opencl.NewPlatform()

	for trial := 0; trial < trials; trial++ {
		for _, kernel := range []string{"stage", "scramble"} {
			kernel := kernel
			// Draw the trial's shape deterministically, outside t.Run, so
			// the sequence does not depend on subtest scheduling.
			lx := 1 << rng.Intn(4) // 1..8
			ly := 1 + rng.Intn(2)
			gx := lx * (1 + rng.Intn(4))
			gy := ly * (1 + rng.Intn(3))
			scalar := float32(rng.NormFloat64())
			nitems := gx * gy
			input := make([]float32, 4*nitems)
			for i := range input {
				input[i] = float32(rng.NormFloat64())
			}
			t.Run(fmt.Sprintf("%s/trial%d", kernel, trial), func(t *testing.T) {
				ctx := opencl.NewContext(plat.Devices()[0])
				src, defs := stageSrc, map[string]string(nil)
				if kernel == "scramble" {
					src = scrambleSrc
				}
				prog, err := ctx.CompileProgram(kernel, src, defs)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}

				var args []interface{}
				var outBuf *opencl.Buffer
				switch kernel {
				case "stage":
					in := ctx.NewBuffer(nitems * 4)
					in.WriteFloat32(input[:nitems])
					outBuf = ctx.NewBuffer(nitems * 4)
					args = []interface{}{outBuf, in, opencl.LocalMem{Size: lx * ly * 4}, int32(nitems), scalar}
				case "scramble":
					vin := ctx.NewBuffer(nitems * 16)
					vin.WriteFloat32(input)
					outBuf = ctx.NewBuffer(nitems * 16)
					iout := ctx.NewBuffer(nitems * 4)
					args = []interface{}{outBuf, vin, iout, int32(nitems), scalar}
				}
				vargs, err := opencl.VMArgs(args...)
				if err != nil {
					t.Fatalf("args: %v", err)
				}
				cfg := vm.Config{
					GlobalSize: [3]int{gx, gy, 1},
					LocalSize:  [3]int{lx, ly, 1},
					Args:       vargs,
				}

				mem := ctx.Mem()
				initial := append([]byte(nil), mem.Data...)

				var wantMem []byte
				var wantHash []uint64
				for bi, backend := range backends {
					mem.Data = mem.Data[:len(initial)]
					copy(mem.Data, initial)
					tracers := make([]*hashTracer, workers)
					for i := range tracers {
						tracers[i] = &hashTracer{h: 1469598103934665603}
					}
					cfg.Backend = backend
					opts := &vm.LaunchOpts{
						Workers:   workers,
						TracerFor: func(w int) vm.Tracer { return tracers[w%workers] },
					}
					if err := prog.VM().Launch(kernel, cfg, mem, opts); err != nil {
						t.Fatalf("%s: launch %dx%d/%dx%d: %v", backend, gx, gy, lx, ly, err)
					}
					hashes := make([]uint64, workers)
					for i, tr := range tracers {
						hashes[i] = tr.h
					}
					if bi == 0 {
						wantMem = append([]byte(nil), mem.Data...)
						wantHash = hashes
						continue
					}
					if !bytes.Equal(mem.Data, wantMem) {
						t.Errorf("memory differs from interpreter (global %dx%d local %dx%d)", gx, gy, lx, ly)
					}
					for i := range hashes {
						if hashes[i] != wantHash[i] {
							t.Errorf("worker %d trace hash differs: interp %#x, %s %#x (global %dx%d local %dx%d)",
								i, wantHash[i], backend, hashes[i], gx, gy, lx, ly)
						}
					}
				}
			})
		}
	}
}
