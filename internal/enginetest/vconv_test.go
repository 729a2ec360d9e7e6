package enginetest_test

import (
	"encoding/binary"
	"math"
	"testing"

	"grover/internal/enginetest"
	"grover/internal/vm"
	"grover/opencl"
)

// TestVectorConvertEngines checks that both engines agree on vector
// conversions whose destination register bank outnumbers the source's:
// int4 → float4 after several float4 temporaries, and double4 → float4
// in a kernel with no int vector at all. Float and int vector registers
// are numbered separately, so a conversion must index the bank it writes.
func TestVectorConvertEngines(t *testing.T) {
	for name, src := range map[string]string{
		"int4-to-float4": `__kernel void conv(__global float4* o) {
    int i = get_global_id(0);
    float4 a = (float4)(1.5f, 2.5f, 3.5f, 4.5f);
    float4 b = a * 2.0f;
    float4 c = b + a;
    float4 d = c - b;
    int4 n = (int4)(i, -i, 7, -7);
    float4 z = n;
    o[i] = z + d;
}
`,
		"double4-to-float4": `__kernel void conv(__global float4* o) {
    int i = get_global_id(0);
    double4 a = (double4)(0.25, -1.5, 3.0, 1e10);
    float4 z = a;
    o[i] = z * (float)i;
}
`,
	} {
		var ref []float32
		for _, engine := range enginetest.Engines() {
			got := runConv(t, engine, src)
			if ref == nil {
				ref = got
				continue
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Errorf("%s: %s o[%d] = %v, interp %v", name, engine, i, got[i], ref[i])
				}
			}
		}
	}
}

// runConv runs src's kernel conv over four work-items on engine and
// returns the sixteen floats it stores.
func runConv(t *testing.T, engine, src string) []float32 {
	t.Helper()
	mod, err := opencl.CompileModule("conv", src, nil)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	mem := vm.NewGlobalMem(1 << 12)
	out := mem.Alloc(16 * 4)
	cfg := vm.Config{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}, Backend: engine, Args: []vm.Arg{vm.BufArg(out)}}
	if err := prog.Launch("conv", cfg, mem, nil); err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	got := make([]float32, 16)
	for i := range got {
		got[i] = math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[4*i:]))
	}
	return got
}
