package enginetest_test

import (
	"encoding/binary"
	"fmt"
	"math"
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
// enginetest.SpecProbes, and a third the result of each compound
// assignment of its table. wgvec's specialized opcodes (opAddI32, opLtI, …)
// and its generic ones (opIntBin, opCmpI) both run here.
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
	// A compound assignment computes in its operands' usual arithmetic
	// conversions' type and converts the result back (C99 §6.5.16.2); a
	// shift keeps the left operand's type.
	compound := []struct {
		stmts string // leave the result in x
		want  int64
	}{
		{"int x = 3; x *= 0.5f;", 1},
		{"int x = 7; x *= 1.5f;", 10},
		{"float x = 2.5f; x += 1; x *= 2;", 7},
		{"int x = 1; x <<= 33L;", 2},
	}
	src.Reset()
	src.WriteString("__kernel void spec(__global long* o) {\n")
	for i, c := range compound {
		fmt.Fprintf(&src, "    { %s o[%d] = x; }\n", c.stmts, i)
	}
	src.WriteString("}\n")
	for _, engine := range enginetest.Engines() {
		got := runSpec(t, engine, src.String(), 1, len(compound), 0, nil, nil)
		for i, c := range compound {
			if got[i] != c.want {
				t.Errorf("%s: %s gives x = %d, want %d", engine, c.stmts, got[i], c.want)
			}
		}
	}
}

// floatRows are the float table's expressions: x op y for each arithmetic
// operator, the same less x — whose result shows whether x op y was
// rounded to the operands' precision before the subtraction, which a store
// of x op y does not — and x op y for each comparison.
var floatRows = func() []floatRow {
	arith := []clc.Op{clc.OpAdd, clc.OpSub, clc.OpMul, clc.OpDiv}
	var rows []floatRow
	for _, op := range arith {
		rows = append(rows, floatRow{op: op})
	}
	for _, op := range arith {
		rows = append(rows, floatRow{op: op, less: true})
	}
	for op := clc.OpEq; op <= clc.OpGe; op++ {
		rows = append(rows, floatRow{op: op})
	}
	return rows
}()

// floatRow is x op y, or (x op y) - x with less set.
type floatRow struct {
	op   clc.Op
	less bool
}

func (r floatRow) expr(k clc.ScalarKind) string {
	switch {
	case r.less:
		return fmt.Sprintf("(x %s y) - x", r.op)
	case r.op.IsCompare():
		return fmt.Sprintf("(%s)(x %s y)", k, r.op)
	}
	return fmt.Sprintf("x %s y", r.op)
}

// want is the row's value at x and y.
func (r floatRow) want(k clc.ScalarKind, x, y float64) float64 {
	if r.less {
		return specFloat(clc.OpSub, k, specFloat(r.op, k, x, y), x)
	}
	return specFloat(r.op, k, x, y)
}

// floatOperands are the float table's operands: signed zeros and
// infinities, a NaN, the extremes of the normal and subnormal ranges of
// float and of double, and values whose sums, products and quotients
// round (an ulp above 1, 2^24 and 2^53, where adding 1 rounds to even,
// 0.1 and 3).
var floatOperands = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 3, -2.5,
	1 + 0x1p-23, 1 + 0x1p-52, 0x1p24, 0x1p53,
	math.MaxFloat32, 0x1p-126, math.SmallestNonzeroFloat32, 0x1p-140,
	math.MaxFloat64, 0x1p-1022, math.SmallestNonzeroFloat64, 0x1p-1060,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// specFloat is a op b in Go's own arithmetic at the precision of kind k:
// float32 for a float, float64 for a double. A comparison gives 1 or 0.
func specFloat(op clc.Op, k clc.ScalarKind, a, b float64) float64 {
	if k == clc.KFloat {
		x, y := float32(a), float32(b)
		switch op {
		case clc.OpAdd:
			return float64(x + y)
		case clc.OpSub:
			return float64(x - y)
		case clc.OpMul:
			return float64(x * y)
		case clc.OpDiv:
			return float64(x / y)
		}
		a, b = float64(x), float64(y) // exact: comparing widened floats
	}
	switch op {
	case clc.OpAdd:
		return a + b
	case clc.OpSub:
		return a - b
	case clc.OpMul:
		return a * b
	case clc.OpDiv:
		return a / b
	}
	var v bool
	switch op {
	case clc.OpEq:
		v = a == b
	case clc.OpNe:
		v = a != b
	case clc.OpLt:
		v = a < b
	case clc.OpLe:
		v = a <= b
	case clc.OpGt:
		v = a > b
	case clc.OpGe:
		v = a >= b
	}
	if v {
		return 1
	}
	return 0
}

// TestSpecFloatEngines checks both engines against Go's float arithmetic:
// for float and double, as scalars and as four-lane vectors, one kernel
// evaluates every expression of floatRows at every pair of floatOperands,
// one pair per work-item or vector lane, and stores the result, a
// comparison's as 0 or 1 of the kind. Vectors take the arithmetic rows
// only: neither engine evaluates a vector comparison. A result must have
// the oracle's bits, or be a NaN where the oracle's is.
func TestSpecFloatEngines(t *testing.T) {
	ops := floatOperands
	n := len(ops) * len(ops) // a multiple of 4
	for _, k := range []clc.ScalarKind{clc.KFloat, clc.KDouble} {
		as, bs := make([]int64, n), make([]int64, n)
		for i := range as {
			as[i], bs[i] = floatBits(k, ops[i/len(ops)]), floatBits(k, ops[i%len(ops)])
		}
		for _, lanes := range []int{1, 4} {
			typ, items, table := k.String(), n, floatRows
			if lanes > 1 {
				typ, items, table = fmt.Sprintf("%s%d", k, lanes), n/lanes, floatRows[:8]
			}
			var src strings.Builder
			fmt.Fprintf(&src, `__kernel void spec(__global %[1]s* a, __global %[1]s* b, __global %[1]s* o) {
    int i = get_global_id(0);
    int n = get_global_size(0);
    %[1]s x = a[i];
    %[1]s y = b[i];
`, typ)
			for j, row := range table {
				fmt.Fprintf(&src, "    o[%d * n + i] = %s;\n", j, row.expr(k))
			}
			src.WriteString("}\n")
			// runSpec's output holds outs longs: enough for the results of
			// kind k at k's own size.
			outs := len(table) * n * k.Size() / 8
			for _, engine := range enginetest.Engines() {
				got := runSpec(t, engine, src.String(), items, outs, k, as, bs)
				for j, row := range table {
					for i := range as {
						x, y := floatValue(k, as[i]), floatValue(k, bs[i])
						v, want := floatAt(got, k, j*n+i), row.want(k, x, y)
						if math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
							t.Errorf("%s, %s: %s at x=%v, y=%v is %v, want %v", engine, typ, row.expr(k), x, y, v, want)
						}
					}
				}
			}
		}
	}
}

// floatBits is x of kind k in its memory image, as runSpec takes an operand.
func floatBits(k clc.ScalarKind, x float64) int64 {
	if k == clc.KFloat {
		return int64(math.Float32bits(float32(x)))
	}
	return int64(math.Float64bits(x))
}

// floatValue is the float of kind k whose memory image is bits.
func floatValue(k clc.ScalarKind, bits int64) float64 {
	if k == clc.KFloat {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(uint64(bits))
}

// floatAt is element m of an output of kind k that runSpec read as longs.
func floatAt(out []int64, k clc.ScalarKind, m int) float64 {
	if k == clc.KFloat {
		return floatValue(k, out[m/2]>>(32*(m%2)))
	}
	return floatValue(k, out[m])
}

// TestSizeofExprEngines: sizeof of an expression has the operand's type's
// size and a ulong's type, and leaves the operand unevaluated — the index
// of o[i++] is not incremented — on both engines. A string literal is an
// array of its chars and a null, in an expression and in an array size.
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
    o[12] = sizeof "abc";
    o[13] = sizeof("") + sizeof "a\tb\0";
    char str[sizeof "abcdef"];
    o[14] = sizeof str;
}
`
	want := []int64{4, 8, 3, 8, 0, 16, 20, 2, 4, 8, 0, 8, 4, 1 + 5, 7}
	for _, engine := range enginetest.Engines() {
		got := runSpec(t, engine, src, 1, len(want), 0, nil, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: o[%d] = %d, want %d", engine, i, got[i], want[i])
			}
		}
	}
}

// TestPointerDifferenceEngines: the difference of two pointers to one type
// in one address space is a long count of elements (C99 §6.5.6p9), on
// both engines, for int and float4 elements and either sign; ++, -- and
// += step a pointer by elements, and a vector by 1 in every lane.
func TestPointerDifferenceEngines(t *testing.T) {
	const src = `__kernel void spec(__global long* o) {
    int a[8];
    int* p = a;
    __local float4 v[4];
    o[0] = (o + 3) - o;
    o[1] = (p + 5) - p;
    o[2] = p - (p + 5);
    o[3] = &v[3] - v;
    o[4] = (long)(v - &v[2]);
    o[5] = (a + 7) - p;
    int* q = p++;
    ++p;
    p += 3;
    p--;
    o[6] = p - q;
    int4 w = (int4)(1, 2, 3, 4);
    w++;
    --w.y;
    o[7] = w.x + 10 * w.y + 100 * w.z + 1000 * w.w;
}
`
	want := []int64{3, 5, -5, 3, -2, 7, 4, 2 + 2*10 + 4*100 + 5*1000}
	for _, engine := range enginetest.Engines() {
		got := runSpec(t, engine, src, 1, len(want), 0, nil, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: o[%d] = %d, want %d", engine, i, got[i], want[i])
			}
		}
	}
}

// TestWorkItemDimsEngines: outside dimensions 0-2 the size queries answer
// 1 and the id queries 0 (OpenCL 1.2 §6.12.1), on both engines, for a
// constant dimension and for one known only at run time.
func TestWorkItemDimsEngines(t *testing.T) {
	const src = `__kernel void spec(__global long* o) {
    int d = 3 + (int)get_local_id(0);
    o[0] = get_global_size(3);
    o[1] = get_local_size(5);
    o[2] = get_num_groups(7);
    o[3] = get_global_id(3);
    o[4] = get_local_id(4);
    o[5] = get_group_id(3);
    o[6] = get_global_size(d);
    o[7] = get_local_size(d);
    o[8] = get_num_groups(d);
    o[9] = get_local_id(d);
}
`
	want := []int64{1, 1, 1, 0, 0, 0, 1, 1, 1, 0}
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
