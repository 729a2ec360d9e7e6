package lower_test

import (
	"errors"
	"testing"

	"grover/internal/apps"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/opt"
)

// typingProbes are kernels whose lowering once broke the IR's typing
// rules, or gave them a meaning OpenCL C does not: sema refuses the
// first six, and the rest compile.
var typingProbes = []string{
	`__kernel void k(__global float4* o, float4 v) { o[0] = ~v; }`,
	`__kernel void k(__global float* o, float f) { o[0] = ~f; }`,
	`__kernel void k(__global int4* o, int4 v) { o[0] = !v; }`,
	`__kernel void k(__global int4* o) { int4 c = (int4)(1,2,3,4) == (int4)(2); o[0] = c; }`,
	`__kernel void k(__global int4* o, int4 a) { int4 s = a && (int4)(1); o[0] = s; }`,
	`__kernel void k(__global int4* o, int4 a) { o[0] = a ? a : a; }`,
	`__kernel void k(__global float* p, __global long* o) { o[4] = (long)((p + 3) - p); }`,
	`__kernel void k(__global ulong* o) { o[0] = get_global_size(3); o[1] = get_local_size(5); o[2] = get_num_groups(7); }`,
	`__kernel void k(__global int* o) { o++; ++o; o += 2; o -= 1; o[0] = o == 0; o[1] = 0 != o; o[2] = !o; (void)o; }`,
	`__kernel void k(__global int* o) { int4 v = (int4)(1); v++; v.x--; int a[2][3]; *a[1] = 2; o[0] = **a + v.y; }`,
	`float4 f(float x) { if (x > 0) return (float4)(x); } __kernel void k(__global float4* o) { o[0] = f(1.0f); }`,
	`__kernel void k(__global float4* o, int2 a, float4 v) { o[0] = (float4)(a, 1.0f, 2.0f) + (float4)((int4)(v)); }`,
}

// FuzzCompile: for every source clc.Parse accepts, lowering either fails
// at a position or gives IR that ir.Verify accepts (lower.Module verifies
// what it returns), and opt.Optimize keeps it verified. A failure is a
// typing gap in sema or lowering.
func FuzzCompile(f *testing.F) {
	for _, app := range apps.All() {
		f.Add(app.Source)
	}
	for _, src := range typingProbes {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := clc.Parse("f.cl", src, nil)
		if err != nil {
			return
		}
		m, err := lower.Module(file)
		if err != nil {
			var e *clc.Error
			if !errors.As(err, &e) || e.Pos.Line < 1 {
				t.Fatalf("lowering error without a position: %v", err)
			}
			return
		}
		opt.Optimize(m)
		if err := ir.Verify(m); err != nil {
			t.Fatalf("optimized IR: %v", err)
		}
	})
}
