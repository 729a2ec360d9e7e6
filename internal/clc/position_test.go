package clc_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"grover/internal/apps"
	"grover/internal/clc"
	"grover/internal/enginetest"
	"grover/internal/vm"
	"grover/opencl"
)

// positionRows each give a diagnostic's position in the source, or, for a
// kernel that compiles, what its one work-item stores in o[0]. A '(' after
// a space starts an object-like macro's body.
var positionRows = []struct {
	name, src string
	pos       string // the error's position; "" when the kernel compiles
	o0        int32
}{
	{"parse error column", "__kernel void k(__global int* o) {\n        o[0] =     ;\n}\n", "t.cl:2:20", 0},
	{"lex error line", "__kernel void k(__global int* o) {\n    o[0] = 1 @ 2;\n}\n", "t.cl:2:14", 0},
	{"lex error in a directive", "__kernel void k(__global int* o) { o[0] = 1; }\n\n#define X 1 @\n", "t.cl:3:13", 0},
	{"newline char literal", "__kernel void k(__global int* o) { o[0] = '\\n';\n o[1] = ; }\n", "t.cl:2:9", 0},
	{"backslash char literal", "__kernel void k(__global int* o) { o[0] = '\\\\'; }\n", "", '\\'},
	{"continued #define", "#define F(x) \\\n ((x)+1)\n__kernel void k(__global int* o) { o[0] = F(2); }\n", "", 3},
	{"object-like #define F (x)", "#define F (x) + 2\n__kernel void k(__global int* o) { int x = 0; o[0] = F; }\n", "", 2},
	{"apostrophe in a skipped group, then a block comment", "#if 0\ndon't\n#endif\n/* it's\nmulti-line */\n__kernel void k(__global int* o) { o[0] = 5; }\n", "", 5},
}

// skippedGroupRows compile: inside a group a conditional directive skips,
// only the conditional directives count (C99 §6.10.1p6).
var skippedGroupRows = []struct{ name, src string }{
	{"#include in #if 0", "#if 0\n#include <x>\n#endif\n"},
	{"#error in a skipped #ifdef", "#ifdef NOPE\n#error never\n#endif\n"},
	{"#elif under a skipped group", "#ifdef NOPE\n#if 1\n#elif 1/0\n#endif\n#endif\n"},
}

const skippedGroupKernel = "__kernel void k(__global int* o) { o[0] = 7; }\n"

func TestSourcePositions(t *testing.T) {
	for _, row := range positionRows {
		_, err := clc.Parse("t.cl", row.src, nil)
		if row.pos != "" {
			if err == nil || !strings.HasPrefix(err.Error(), row.pos+":") {
				t.Errorf("%s: err = %v, want one at %s", row.name, err, row.pos)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		for _, engine := range enginetest.Engines() {
			if got := runOne(t, row.src, engine); got != row.o0 {
				t.Errorf("%s on %s: o[0] = %d, want %d", row.name, engine, got, row.o0)
			}
		}
	}
}

func TestSkippedGroups(t *testing.T) {
	for _, row := range skippedGroupRows {
		if _, err := clc.Parse("t.cl", row.src+skippedGroupKernel, nil); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
	}
}

// TestStillAccepted: sources the front end accepted when it rendered
// each line to text keep compiling.
func TestStillAccepted(t *testing.T) {
	for _, src := range []string{
		"#if 0\ndon't @ $ \"\n#endif\n",
		"#if 0\n#if 1 @\n#else\n'\n#endif\n#endif\n",
		"#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n",
		"#define F (x) x\n#define x 7\n#undef x\n#define G F\n",
	} {
		if _, err := clc.Parse("t.cl", src+skippedGroupKernel, nil); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// runOne runs kernel k of src as one work-item on engine and returns o[0].
func runOne(t *testing.T, src, engine string) int32 {
	t.Helper()
	mod, err := opencl.CompileModule("t.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	mem := vm.NewGlobalMem(64)
	o := mem.Alloc(16)
	cfg := vm.Config{GlobalSize: [3]int{1, 1, 1}, LocalSize: [3]int{1, 1, 1}, Backend: engine, Args: []vm.Arg{vm.BufArg(o)}}
	if err := prog.Launch("k", cfg, mem, nil); err != nil {
		t.Fatal(err)
	}
	return int32(binary.LittleEndian.Uint32(o.Bytes()))
}

// TestTokensSitAtTheirSource: over the app sources, every token the
// preprocessor returns has its text at its position in the source, or
// comes from a macro whose name starts there; the EOF token sits at the
// source's end.
func TestTokensSitAtTheirSource(t *testing.T) {
	for _, app := range apps.All() {
		defines := clc.PredefinedMacros()
		for k, v := range app.Defines {
			defines[k] = v
		}
		pp, err := clc.NewPreprocessor(defines)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := pp.Process(app.ID+".cl", app.Source)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		lines := strings.Split(app.Source, "\n")
		expanded := 0
		for _, tok := range toks {
			p := tok.Pos
			if p.File != app.ID+".cl" || p.Line < 1 || p.Line > len(lines) || p.Col < 1 || p.Col > len(lines[p.Line-1])+1 {
				t.Fatalf("%s: token %q at %s is outside the source", app.ID, tok.Text, p)
			}
			at := lines[p.Line-1][p.Col-1:]
			if tok.Kind == clc.TokEOF {
				if p.Line != len(lines) || at != "" {
					t.Errorf("%s: EOF at %s, not at the end of the source", app.ID, p)
				}
				continue
			}
			text := tok.Text
			switch tok.Kind {
			case clc.TokCharLit:
				text = "'"
			case clc.TokStringLit:
				text = `"`
			}
			if strings.HasPrefix(at, text) {
				continue
			}
			name := at[:len(at)-len(strings.TrimLeft(at, "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"))]
			if _, ok := defines[name]; name == "" || !ok && !strings.Contains(app.Source, "#define "+name) {
				t.Errorf("%s: token %q at %s: the source there is %q, not the token or a macro name", app.ID, tok.Text, p, at)
			}
			expanded++
		}
		if expanded == 0 {
			t.Errorf("%s: no token came from a macro", app.ID)
		}
	}
}

// macroChain defines M0 to M<levels-1>, each expanding to the next one
// twice, and uses M0 in a kernel: the use expands to 2^levels tokens.
func macroChain(levels int) string {
	var b strings.Builder
	for i := 0; i < levels-1; i++ {
		fmt.Fprintf(&b, "#define M%d M%d M%d\n", i, i+1, i+1)
	}
	fmt.Fprintf(&b, "#define M%d 1 +\n__kernel void k(__global int* o) { o[0] = M0 0; }\n", levels-1)
	return b.String()
}

// TestMacroExpansionIsCapped: a source whose macros expand exponentially
// is refused quickly at the use, not expanded until the worker gives out.
func TestMacroExpansionIsCapped(t *testing.T) {
	start := time.Now()
	_, err := clc.Parse("t.cl", macroChain(40), nil)
	elapsed := time.Since(start)
	var e *clc.Error
	if !errors.As(err, &e) || e.Pos.Line != 41 || e.Pos.Col != 43 || !strings.Contains(e.Msg, "macro expansion produces more than") {
		t.Fatalf("40 levels: err = %v, want the cap at t.cl:41:43", err)
	}
	t.Logf("40 levels refused in %v", elapsed)
	if elapsed > 100*time.Millisecond {
		t.Errorf("40 levels took %v to refuse, want under 100ms", elapsed)
	}
	// A chain inside the cap still compiles: 2^11 ones summed.
	if got := runOne(t, macroChain(12), enginetest.Engines()[0]); got != 1<<11 {
		t.Errorf("12 levels: o[0] = %d, want %d", got, 1<<11)
	}
	// The cap grows with the source: 7,000 uses of an 11-token indexing
	// macro, 77,000 replacement tokens in all, still parse.
	var b strings.Builder
	b.WriteString("#define IDX(i, j) ((i) * 64 + (j))\n__kernel void k(__global int* o) {\n\tint s = 0;\n")
	for i := 0; i < 7000; i++ {
		b.WriteString("\ts += o[IDX(s, 1)];\n")
	}
	b.WriteString("\to[0] = s;\n}\n")
	if _, err := clc.Parse("t.cl", b.String(), nil); err != nil {
		t.Errorf("7,000 uses of a small macro: %v", err)
	}
}

// FuzzParse: the front end never panics, and every error it returns names
// a position inside its input.
func FuzzParse(f *testing.F) {
	for _, app := range apps.All() {
		f.Add(app.Source)
	}
	for _, row := range positionRows {
		f.Add(row.src)
	}
	for _, row := range skippedGroupRows {
		f.Add(row.src + skippedGroupKernel)
	}
	f.Add(macroChain(40))
	f.Fuzz(func(t *testing.T, src string) {
		_, err := clc.Parse("f.cl", src, nil)
		if err == nil {
			return
		}
		var e *clc.Error
		if !errors.As(err, &e) {
			t.Fatalf("error without a position: %v", err)
		}
		lines := strings.Split(src, "\n")
		if p := e.Pos; p.File != "f.cl" || p.Line < 1 || p.Line > len(lines) || p.Col < 1 || p.Col > len(lines[p.Line-1])+1 {
			t.Fatalf("error outside the input: %v", err)
		}
	})
}
