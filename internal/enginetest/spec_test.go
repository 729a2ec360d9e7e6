package enginetest_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"grover/internal/clc"
	"grover/internal/enginetest"
	"grover/internal/vm"
	"grover/opencl"
)

// TestSpecEngines checks both engines against the scalar table: for each
// integer kind k, one kernel applies every operator to every pair of the
// table's operands of k, one pair per work-item, and stores (k)(x op y)
// or the comparison's int. A probe kernel stores each of
// enginetest.SpecProbes. wgvec's specialized opcodes (opAddI32, opLtU, …)
// and its generic ones both run here.
func TestSpecEngines(t *testing.T) {
	for _, k := range enginetest.IntKinds {
		ops := enginetest.SpecOperands(k)
		n := len(ops) * len(ops)
		as, bs := make([]int64, n), make([]int64, n)
		for i := range as {
			as[i], bs[i] = ops[i/len(ops)], ops[i%len(ops)]
		}
		var src strings.Builder
		fmt.Fprintf(&src, `__kernel void spec(__global %[1]s* a, __global %[1]s* b, __global long* o) {
    int i = get_global_id(0);
    int n = get_global_size(0);
    %[1]s x = a[i];
    %[1]s y = b[i];
`, k)
		for j, op := range enginetest.IntOps {
			e := fmt.Sprintf("(%s)(x %s y)", k, op)
			if op.IsCompare() {
				e = fmt.Sprintf("x %s y", op)
			}
			guard := ""
			if op == clc.OpDiv || op == clc.OpRem {
				guard = "if (y != 0) "
			}
			fmt.Fprintf(&src, "    %so[%d * n + i] = %s;\n", guard, j, e)
		}
		src.WriteString("}\n")
		for _, engine := range enginetest.Engines() {
			got := runSpec(t, engine, src.String(), n, len(enginetest.IntOps)*n, k, as, bs)
			for j, op := range enginetest.IntOps {
				for i := range as {
					want, ok := enginetest.SpecInt(op, k, enginetest.Promoted(k), as[i], bs[i])
					if ok && got[j*n+i] != want {
						t.Errorf("%s: (%s)%d %s (%s)%d = %d, want %d", engine, k, as[i], op, k, bs[i], got[j*n+i], want)
					}
				}
			}
		}
	}
	var src strings.Builder
	src.WriteString("__kernel void spec(__global long* o) {\n")
	for i, p := range enginetest.SpecProbes {
		fmt.Fprintf(&src, "    o[%d] = %s;\n", i, p.Expr)
	}
	src.WriteString("}\n")
	for _, engine := range enginetest.Engines() {
		got := runSpec(t, engine, src.String(), 1, len(enginetest.SpecProbes), 0, nil, nil)
		for i, p := range enginetest.SpecProbes {
			if got[i] != p.Want {
				t.Errorf("%s: %s = %d, want %d", engine, p.Expr, got[i], p.Want)
			}
		}
	}
}

// TestSizeofExprEngines: sizeof of an expression has the operand's type's
// size and a ulong's type, and leaves the operand unevaluated — the index
// of o[i++] is not incremented — on both engines.
func TestSizeofExprEngines(t *testing.T) {
	const src = `__kernel void spec(__global long* o) {
    int i = 0;
    char c = 1;
    short s = 2;
    float4 v = (float4)(0.0f);
    float arr[5];
    o[0] = sizeof i;
    o[1] = sizeof(o[0]);
    o[2] = sizeof c + sizeof s;
    o[3] = sizeof(o[i++]);
    o[4] = i;
    o[5] = sizeof v;
    o[6] = sizeof arr;
    o[7] = sizeof (c) * 2;
    o[8] = sizeof(float);
    o[9] = sizeof o;
    o[10] = sizeof -1 < 0;
    o[11] = sizeof(sizeof(int));
}
`
	want := []int64{4, 8, 3, 8, 0, 16, 20, 2, 4, 8, 0, 8}
	for _, engine := range enginetest.Engines() {
		got := runSpec(t, engine, src, 1, len(want), 0, nil, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: o[%d] = %d, want %d", engine, i, got[i], want[i])
			}
		}
	}
}

// runSpec compiles src as the repo does, runs its kernel spec over items
// work-items on engine with operand buffers as and bs of kind k (none when
// as is nil) and an output buffer of outs longs, and returns the output.
func runSpec(t *testing.T, engine, src string, items, outs int, k clc.ScalarKind, as, bs []int64) []int64 {
	t.Helper()
	mod, err := opencl.CompileModule("spec", src, nil)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", k, err, src)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	mem := vm.NewGlobalMem(1 << 16)
	var args []vm.Arg
	for _, vals := range [][]int64{as, bs} {
		if vals == nil {
			continue
		}
		buf := mem.Alloc(len(vals) * k.Size())
		for i, v := range vals {
			var le [8]byte
			binary.LittleEndian.PutUint64(le[:], uint64(v))
			copy(buf.Bytes()[i*k.Size():], le[:k.Size()])
		}
		args = append(args, vm.BufArg(buf))
	}
	out := mem.Alloc(outs * 8)
	args = append(args, vm.BufArg(out))
	cfg := vm.Config{GlobalSize: [3]int{items, 1, 1}, LocalSize: [3]int{items, 1, 1}, Backend: engine, Args: args}
	if err := prog.Launch("spec", cfg, mem, nil); err != nil {
		t.Fatalf("%s on %s: %v", k, engine, err)
	}
	got := make([]int64, outs)
	for i := range got {
		got[i] = int64(binary.LittleEndian.Uint64(out.Bytes()[8*i:]))
	}
	return got
}
