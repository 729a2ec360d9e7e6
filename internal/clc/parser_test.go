package clc

import (
	"errors"
	"strings"
	"testing"
)

const transposeSrc = `
#define S 16
__kernel void transpose(__global float* out, __global const float* in,
                        int W, int H) {
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    lm[ly][lx] = in[(wy*S+ly)*W + (wx*S+lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    float val = lm[lx][ly];
    out[gy*H + gx] = val;
}
`

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.cl", src, nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseTranspose(t *testing.T) {
	f := mustParse(t, transposeSrc)
	if len(f.Funcs) != 1 {
		t.Fatalf("got %d functions, want 1", len(f.Funcs))
	}
	fn := f.Funcs[0]
	if !fn.IsKernel {
		t.Error("kernel qualifier lost")
	}
	if fn.Name != "transpose" {
		t.Errorf("name = %q", fn.Name)
	}
	if len(fn.Params) != 4 {
		t.Fatalf("got %d params, want 4", len(fn.Params))
	}
	p0, ok := fn.Params[0].Type.(*PointerType)
	if !ok || p0.Space != ASGlobal {
		t.Errorf("param 0 type = %v", fn.Params[0].Type)
	}
	// The __local array decl is the first statement.
	decl, ok := fn.Body.Stmts[0].(*DeclStmt)
	if !ok {
		t.Fatalf("first stmt is %T", fn.Body.Stmts[0])
	}
	if decl.Space != ASLocal {
		t.Errorf("decl space = %v", decl.Space)
	}
	arr, ok := decl.Type.(*ArrayType)
	if !ok || arr.Len != 16 {
		t.Fatalf("decl type = %v", decl.Type)
	}
	inner, ok := arr.Elem.(*ArrayType)
	if !ok || inner.Len != 16 || !TypesEqual(inner.Elem, TypeFloat) {
		t.Fatalf("inner type = %v", arr.Elem)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := LexAll("t", `a+b <<= 0x1F 3.5f "s\n" 'c' // comment
	/* block */ ident_2`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"a", "+", "b", "<<=", "0x1F", "3.5f", "s\n", "c", "ident_2"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{"/* unterminated", `"unterminated`, "'u", `'\`, "@", "0x"}
	for _, src := range cases {
		if _, err := LexAll("t", src); err == nil {
			t.Errorf("LexAll(%q): expected error", src)
		}
	}
}

// ProcessText preprocesses src and joins the tokens' texts with spaces.
func ProcessText(pp *Preprocessor, src string) (string, error) {
	toks, err := pp.Process("t", src)
	var texts []string
	for _, t := range toks {
		texts = append(texts, t.Text)
	}
	return strings.TrimSpace(strings.Join(texts, " ")), err
}

func TestPreprocessorObjectMacro(t *testing.T) {
	pp, err := NewPreprocessor(map[string]string{"N": "42"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ProcessText(pp, "int x = N;\n#define M (N+1)\nint y = M;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("output %q lacks 42", out)
	}
	if !strings.Contains(out, "( 42 + 1 )") {
		t.Errorf("output %q lacks expanded M", out)
	}
}

func TestPreprocessorFunctionMacro(t *testing.T) {
	pp, _ := NewPreprocessor(nil)
	out, err := ProcessText(pp, "#define IDX(i,j) ((i)*16+(j))\nint k = IDX(a, b+1);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ReplaceAll(out, " ", ""), "((a)*16+(b+1))") {
		t.Errorf("expansion wrong: %q", out)
	}
}

func TestPreprocessorConditionals(t *testing.T) {
	pp, _ := NewPreprocessor(map[string]string{"USE_A": "1"})
	out, err := ProcessText(pp, "#ifdef USE_A\nint a;\n#else\nint b;\n#endif\n#ifndef USE_A\nint c;\n#endif")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int a") || strings.Contains(out, "int b") || strings.Contains(out, "int c") {
		t.Errorf("conditional handling wrong: %q", out)
	}
}

func TestPreprocessorErrors(t *testing.T) {
	pp, _ := NewPreprocessor(nil)
	for _, src := range []string{
		"#include <foo.h>",
		"#endif",
		"#else",
		"#ifdef X\nint a;",
		"#bogusdirective",
	} {
		if _, err := ProcessText(pp, src); err == nil {
			t.Errorf("Process(%q): expected error", src)
		}
	}
}

func TestPreprocessorRecursiveMacro(t *testing.T) {
	pp, _ := NewPreprocessor(nil)
	// Self-referential macro must not loop forever.
	out, err := ProcessText(pp, "#define X X\nint v = X;")
	if err != nil {
		t.Fatalf("recursive macro: %v", err)
	}
	if !strings.Contains(out, "X") {
		t.Errorf("output %q", out)
	}
}

func TestParseExpressions(t *testing.T) {
	src := `
float helper(float a, float b) { return a > b ? a : b; }
__kernel void k(__global float* buf, __global int* ibuf, int n) {
    int i = get_global_id(0);
    float x = buf[i] * 2.0f + 1.0f;
    x += helper(x, (float)n);
    int mask = (i << 2) | (i & 3) ^ (~i % 7);
    int logical = (i < n) && (x >= 0.0f) || !mask;
    i++;
    --i;
    float4 v = (float4)(x, x+1.0f, x+2.0f, x+3.0f);
    float s = v.x + v.w;
    float2 lo = v.lo;
    buf[i] = s + lo.y + (logical ? 1.0f : 0.0f) + (float)sizeof(int);
    ibuf[i] = mask;
}
`
	f := mustParse(t, src)
	if len(f.Funcs) != 2 {
		t.Fatalf("got %d funcs", len(f.Funcs))
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
__kernel void k(__global int* a, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        total += i;
        if (total > 100) break;
    }
    int j = 0;
    while (j < n) { j++; }
    do { j--; } while (j > 0);
    a[0] = total + j;
}
`
	mustParse(t, src)
}

func TestSemaErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared": `__kernel void k(__global int* a) { a[0] = bogus; }`,
		"redecl":     `__kernel void k(__global int* a) { int x; int x; }`,
		"badcall":    `__kernel void k(__global int* a) { a[0] = nosuchfn(1); }`,
		"argcount":   `int f(int a) { return a; } __kernel void k(__global int* o) { o[0] = f(1,2); }`,
		"localinit":  `__kernel void k(__global int* a) { __local int x[4] = {0}; }`,
		"deref":      `__kernel void k(__global int* a, int n) { a[0] = *n; }`,
		"badswizzle": `__kernel void k(__global float* a) { float2 v; a[0] = v.z; }`,
		"voidret":    `__kernel void k(__global int* a) { return 3; }`,
		"badindex":   `__kernel void k(__global float* a) { a[1.5f] = 0.0f; }`,
		"assignarr":  `__kernel void k(__global int* a) { __local int lm[4]; lm = 0; }`,
	}
	for _, c := range refusedConstructs {
		cases[c.msg] = c.src
	}
	for name, src := range cases {
		if _, err := Parse("t.cl", src, nil); err == nil {
			t.Errorf("%s: expected a semantic error", name)
		}
	}
}

// refusedConstructs are constructs of OpenCL C the subset refuses, each
// with the position and the message of its error: vector operands of the
// relational, equality and logical operators and a vector condition of ?:
// (implemented nowhere yet), ~ on floats (§6.3.f), and differences of
// pointers to different types or address spaces (C99 §6.5.6p3).
var refusedConstructs = []struct{ src, pos, msg string }{
	{`__kernel void k(__global float4* o, float4 v) { o[0] = ~v; }`, "t.cl:1:56", "operator ~ requires an integer operand, found float4"},
	{`__kernel void k(__global double4* o, double4 v) { o[0] = ~v; }`, "t.cl:1:58", "operator ~ requires an integer operand, found double4"},
	{`__kernel void k(__global float* o, float f) { o[0] = ~f; }`, "t.cl:1:54", "operator ~ requires an integer operand, found float"},
	{`__kernel void k(__global int4* o, int4 v) { o[0] = !v; }`, "t.cl:1:52", "operator ! on a vector operand is not supported"},
	{`__kernel void k(__global int4* o) { int4 c = (int4)(1,2,3,4) == (int4)(2); o[0] = c; }`, "t.cl:1:62", "operator == on vector operands is not supported"},
	{`__kernel void k(__global int* o, float4 v) { o[0] = v < 1.0f; }`, "t.cl:1:55", "operator < on vector operands is not supported"},
	{`__kernel void k(__global int4* o, int4 a) { int4 s = a && (int4)(1); o[0] = s; }`, "t.cl:1:56", "operator && on vector operands is not supported"},
	{`__kernel void k(__global int* o, int4 a) { o[0] = 1 || a; }`, "t.cl:1:53", "operator || on vector operands is not supported"},
	{`__kernel void k(__global int4* o, int4 a) { o[0] = a ? a : a; }`, "t.cl:1:52", "a vector condition of ?: is not supported"},
	{`__kernel void k(__global float* p, __global int* q, __global long* o) { o[0] = p - q; }`, "t.cl:1:82", "difference of pointers __global float* and __global int*"},
	{`__kernel void k(__global float* p, __local float* l, __global long* o) { o[4] = p - l; }`, "t.cl:1:83", "difference of pointers __global float* and __local float*"},
}

// TestRefusedConstructs: each refused construct is a compile error at its
// position that names it.
func TestRefusedConstructs(t *testing.T) {
	for _, c := range refusedConstructs {
		_, err := Parse("t.cl", c.src, nil)
		var e *Error
		if !errors.As(err, &e) || e.Pos.String() != c.pos || e.Msg != c.msg {
			t.Errorf("%s\n  got %v, want %s: %s", c.src, err, c.pos, c.msg)
		}
	}
}

func TestSwizzleParsing(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want []int
		err  bool
	}{
		{"x", 4, []int{0}, false},
		{"xyzw", 4, []int{0, 1, 2, 3}, false},
		{"wzyx", 4, []int{3, 2, 1, 0}, false},
		{"s0", 4, []int{0}, false},
		{"s13", 4, []int{1, 3}, false},
		{"lo", 4, []int{0, 1}, false},
		{"hi", 4, []int{2, 3}, false},
		{"even", 4, []int{0, 2}, false},
		{"odd", 4, []int{1, 3}, false},
		{"z", 2, nil, true},
		{"q", 4, nil, true},
		{"s9", 4, nil, true},
	}
	for _, c := range cases {
		got, err := parseSwizzle(Pos{}, c.name, c.n)
		if c.err {
			if err == nil {
				t.Errorf("parseSwizzle(%q,%d): expected error", c.name, c.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSwizzle(%q,%d): %v", c.name, c.n, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseSwizzle(%q,%d) = %v, want %v", c.name, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseSwizzle(%q,%d) = %v, want %v", c.name, c.n, got, c.want)
				break
			}
		}
	}
}

func TestTypePromotion(t *testing.T) {
	cases := []struct {
		a, b, want Type
	}{
		{TypeInt, TypeInt, TypeInt},
		{TypeInt, TypeFloat, TypeFloat},
		{TypeFloat, TypeDouble, TypeDouble},
		{TypeChar, TypeShort, TypeInt},
		{TypeUInt, TypeInt, TypeUInt},
		{TypeLong, TypeUInt, TypeLong},
		{TypeULong, TypeLong, TypeULong},
		{&VectorType{Elem: TypeFloat, Len: 4}, TypeFloat, &VectorType{Elem: TypeFloat, Len: 4}},
	}
	for _, c := range cases {
		if got := Promote(c.a, c.b); !TypesEqual(got, c.want) {
			t.Errorf("Promote(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeSizes(t *testing.T) {
	if TypeFloat.Size() != 4 || TypeDouble.Size() != 8 || TypeChar.Size() != 1 {
		t.Error("scalar sizes wrong")
	}
	v3 := &VectorType{Elem: TypeFloat, Len: 3}
	if v3.Size() != 16 {
		t.Errorf("float3 size = %d, want 16 (padded)", v3.Size())
	}
	arr := &ArrayType{Elem: &ArrayType{Elem: TypeFloat, Len: 16}, Len: 16}
	if arr.Size() != 1024 {
		t.Errorf("float[16][16] size = %d", arr.Size())
	}
}

func TestLookupNamedType(t *testing.T) {
	if LookupNamedType("float4") == nil || LookupNamedType("int2") == nil ||
		LookupNamedType("uchar16") == nil {
		t.Error("vector type lookup failed")
	}
	if LookupNamedType("float5") != nil || LookupNamedType("floaty") != nil {
		t.Error("bogus vector type accepted")
	}
	if !TypesEqual(LookupNamedType("size_t"), TypeULong) {
		t.Error("size_t should map to ulong")
	}
}

func TestParseVectorKernel(t *testing.T) {
	src := `
__kernel void vadd(__global float4* a, __global float4* b, __global float4* c) {
    size_t i = get_global_id(0);
    c[i] = a[i] + b[i];
    c[i].xy = a[i].yx;
}
`
	mustParse(t, src)
}

func TestParseAttributes(t *testing.T) {
	src := `
__kernel __attribute__((reqd_work_group_size(16,16,1)))
void k(__global float* a) { a[get_global_id(0)] = 0.0f; }
`
	mustParse(t, src)
}

// TestParserNeverPanics feeds pseudo-random mutations of a valid kernel to
// the full front-end pipeline; every outcome must be a value or an error,
// never a panic.
func TestParserNeverPanics(t *testing.T) {
	base := []byte(transposeSrc)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	junk := []byte("{}[]()#*/+-<>;,.\"'\\\x00&|^%!~?:=0123456789abcXYZ_ \n\t")
	for trial := 0; trial < 300; trial++ {
		src := append([]byte(nil), base...)
		for edit := 0; edit < 1+next(6); edit++ {
			pos := next(len(src))
			switch next(3) {
			case 0: // mutate
				src[pos] = junk[next(len(junk))]
			case 1: // delete
				src = append(src[:pos], src[pos+1:]...)
			case 2: // insert
				src = append(src[:pos], append([]byte{junk[next(len(junk))]}, src[pos:]...)...)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated input: %v\nsource:\n%s", r, src)
				}
			}()
			_, _ = Parse("fuzz.cl", string(src), nil)
		}()
	}
}
