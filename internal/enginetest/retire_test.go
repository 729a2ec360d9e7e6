package enginetest_test

import (
	"testing"

	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

type countTracer struct{ n int64 }

func (t *countTracer) GroupBegin(group [3]int, linear int)                            {}
func (t *countTracer) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {}
func (t *countTracer) Barrier(wiCount int)                                            {}
func (t *countTracer) Instrs(wi int, n int64)                                         { t.n += n }
func (t *countTracer) GroupEnd()                                                      {}

func TestRetireParity(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"plain", `__kernel void k(__global int* o) { int g = get_global_id(0); o[g] = g + 1; }`},
		{"call", `int two(int a) { return a + 2; }
__kernel void k(__global int* o) { int g = get_global_id(0); o[g] = two(g); }`},
		{"ret", `__kernel void k(__global int* o, int n) { int g = get_global_id(0); if (g >= n) { return; } o[g] = g; }`},
		{"conv", `__kernel void k(__global int* o) { int g = get_global_id(0); uint u = (uint)g * 7u; o[g] = (int)(u >> 1); }`},
		{"div", `__kernel void k(__global int* o) { int g = get_global_id(0); o[g] = (g % 97) + (g << 2) - (g / 3); }`},
		{"vec", `__kernel void k(__global float4* o, __global float4* i) { int g = get_global_id(0); float4 v = i[g]; o[g] = v * (float4)(1.0f, 2.0f, 3.0f, 4.0f) + v.yxwz; }`},
		{"dot", `__kernel void k(__global float* o, __global float4* i) { int g = get_global_id(0); float4 v = i[g]; o[g] = dot(v, v) + rsqrt(fabs(v.x) + 1.0f); }`},
	}
	plat := opencl.NewPlatform()
	for _, tc := range cases {
		ctx := opencl.NewContext(plat.Devices()[0])
		prog, err := ctx.CompileProgram(tc.name, tc.src, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		o := ctx.NewBuffer(8 * 16)
		i := ctx.NewBuffer(8 * 16)
		var args []interface{}
		switch tc.name {
		case "ret":
			args = []interface{}{o, int32(6)}
		case "vec", "dot":
			args = []interface{}{o, i}
		default:
			args = []interface{}{o}
		}
		vargs, err := opencl.VMArgs(args...)
		if err != nil {
			t.Fatalf("%s: args: %v", tc.name, err)
		}
		got := make([]int64, len(backends))
		for bi, backend := range backends {
			tr := &countTracer{}
			cfg := vm.Config{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{8, 1, 1}, Backend: backend, Args: vargs}
			opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
			if err := prog.VM().Launch("k", cfg, ctx.Mem(), opts); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, backend, err)
			}
			got[bi] = tr.n
		}
		for bi := 1; bi < len(backends); bi++ {
			if got[bi] != got[0] {
				t.Errorf("%s: retired instruction counts differ: interp=%d %s=%d",
					tc.name, got[0], backends[bi], got[bi])
			}
		}
	}
}
