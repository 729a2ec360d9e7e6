package clc

import (
	"strings"
	"testing"
)

// parseConstExpr parses a standalone constant expression for fold tests.
func parseConstExpr(t *testing.T, src string) Expr {
	t.Helper()
	toks, err := LexAll("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p := &Parser{toks: toks, file: "t"}
	e, err := p.parseCondExpr()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFoldConstInt(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"16*16", 256},
		{"(4+2)*8", 48},
		{"1 << 10", 1024},
		{"256 >> 2", 64},
		{"-3 + 5", 2},
		{"~0 & 0xFF", 255},
		{"7 % 3", 1},
		{"100 / 7", 14},
		{"1 ? 10 : 20", 10},
		{"0 ? 10 : 20", 20},
		{"3 < 5", 1},
		{"3 == 3 && 2 != 1", 1},
		{"0 || 0", 0},
		{"sizeof(float)", 4},
		{"sizeof(float4)", 16},
		{"sizeof 1", 4},
		{"sizeof (1L) * 2", 16},
		{"sizeof -1 < 0", 0},
		{"sizeof(sizeof(char))", 8},
		{"(int)12", 12},
		{"!5", 0},
		{"+9", 9},
	}
	for _, c := range cases {
		e := parseConstExpr(t, c.src)
		got, err := FoldConstInt(e)
		if err != nil {
			t.Errorf("Fold(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Fold(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestFoldConstIntErrors(t *testing.T) {
	for _, src := range []string{"x + 1", "f(3)", "1/0", "5 % 0"} {
		e := parseConstExpr(t, src)
		if _, err := FoldConstInt(e); err == nil {
			t.Errorf("Fold(%q): expected error", src)
		}
	}
}

func TestArraySizeConstExpressions(t *testing.T) {
	src := `
#define S 8
__kernel void k(__global float* out) {
    __local float a[S*S];
    __local float b[S+1][S];
    __local float c[(S << 1)];
    int lx = get_local_id(0);
    a[lx] = 0.0f; b[0][lx] = 0.0f; c[lx] = 0.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[lx] = a[lx] + b[0][lx] + c[lx];
}
`
	f, err := Parse("t.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]int{}
	for _, st := range f.Funcs[0].Body.Stmts {
		if d, ok := st.(*DeclStmt); ok {
			if at, ok := d.Type.(*ArrayType); ok {
				decls[d.Name] = at.Len
			}
		}
	}
	if decls["a"] != 64 || decls["b"] != 9 || decls["c"] != 16 {
		t.Errorf("array sizes = %v", decls)
	}
}

func TestNegativeArraySizeRejected(t *testing.T) {
	src := `__kernel void k(__global float* o) { __local float a[4-8]; o[0]=a[0]; }`
	if _, err := Parse("t.cl", src, nil); err == nil {
		t.Fatal("negative array size accepted")
	}
}

func TestMultiLineBlockComments(t *testing.T) {
	src := `
/* a comment
   spanning
   several lines */
__kernel void k(__global float* a) {
    /* another
       one */ a[get_global_id(0)] = 1.0f; // trailing
}
`
	if _, err := Parse("t.cl", src, nil); err != nil {
		t.Fatalf("multi-line block comment broke parsing: %v", err)
	}
}

func TestCommentInsideStringPreserved(t *testing.T) {
	// The comment stripper must not eat comment-looking text inside
	// character constants.
	src := `__kernel void k(__global int* a) { a[0] = '/'; a[1] = '*'; }`
	f, err := Parse("t.cl", src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Funcs) != 1 {
		t.Fatal("function lost")
	}
}

func TestStripUnterminatedBlockComment(t *testing.T) {
	if _, err := Parse("t.cl", "/* never closed", nil); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("err = %v, want unterminated block comment", err)
	}
}

func TestPreprocessorIf(t *testing.T) {
	pp, _ := NewPreprocessor(map[string]string{"TILE": "16"})
	out, err := ProcessText(pp, `#if TILE > 8
int big;
#elif TILE > 4
int mid;
#else
int small;
#endif
#if defined(TILE) && !defined(NOPE)
int hasTile;
#endif
#if UNKNOWN_IDENT
int never;
#endif`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "int big") || strings.Contains(out, "int mid") || strings.Contains(out, "int small") {
		t.Errorf("#if branch selection wrong: %q", out)
	}
	if !strings.Contains(out, "hasTile") {
		t.Errorf("defined() handling wrong: %q", out)
	}
	if strings.Contains(out, "never") {
		t.Errorf("unknown identifiers must evaluate to 0: %q", out)
	}
}

func TestPreprocessorElifChain(t *testing.T) {
	pp, _ := NewPreprocessor(map[string]string{"V": "2"})
	out, err := ProcessText(pp, `#if V == 1
int a;
#elif V == 2
int b;
#elif V == 3
int c;
#else
int d;
#endif`)
	if err != nil {
		t.Fatal(err)
	}
	for frag, want := range map[string]bool{"int a": false, "int b": true, "int c": false, "int d": false} {
		if strings.Contains(out, frag) != want {
			t.Errorf("elif chain: %q presence = %v, want %v", frag, !want, want)
		}
	}
}

func TestPreprocessorIfErrors(t *testing.T) {
	pp, _ := NewPreprocessor(nil)
	for _, src := range []string{
		"#elif 1\n#endif",
		"#if defined(\nint a;\n#endif",
		"#if 1 +\nint a;\n#endif",
	} {
		if _, err := ProcessText(pp, src); err == nil {
			t.Errorf("Process(%q): expected error", src)
		}
	}
}
