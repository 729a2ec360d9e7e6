package clc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"grover/internal/clc"
	"grover/internal/enginetest"
)

// TestSpecScalar checks clc's integer semantics against the scalar table
// (enginetest.SpecInt, written from OpenCL 1.2 §6.3 and §6.2.3): every
// operator on every integer kind, carried out in that kind, over the
// table's edge operands and a seeded sample, and every conversion from
// long to each integer kind and bool.
func TestSpecScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var longs []int64
	for _, k := range enginetest.IntKinds {
		ops := enginetest.SpecOperands(k)
		for i := 0; i < 6; i++ {
			ops = append(ops, clc.NormInt(int64(rng.Uint64()), k))
		}
		longs = append(longs, ops...)
		for _, op := range enginetest.IntOps {
			for _, a := range ops {
				for _, b := range ops {
					want, ok := enginetest.SpecInt(op, k, k, a, b)
					got, err := intOp(op, k, a, b)
					switch {
					case !ok && err == nil:
						t.Errorf("%s: %d %s %d = %d, want an error", k, a, op, b, got)
					case ok && (err != nil || got != want):
						t.Errorf("%s: %d %s %d = %d (%v), want %d", k, a, op, b, got, err, want)
					}
				}
			}
		}
	}
	longs = append(longs, 200, 256, 40000, 1<<35, -5, 7)
	for _, k := range append([]clc.ScalarKind{clc.KBool}, enginetest.IntKinds...) {
		for _, x := range longs {
			want := enginetest.SpecConvert(x, k)
			if got := clc.NormInt(x, k); got != want {
				t.Errorf("NormInt(%d, %s) = %d, want %d", x, k, got, want)
			}
			if got, _ := clc.ConvertScalar(x, 0, clc.KLong, k); got != want {
				t.Errorf("ConvertScalar(%d, long → %s) = %d, want %d", x, k, got, want)
			}
		}
	}
}

func intOp(op clc.Op, k clc.ScalarKind, a, b int64) (int64, error) {
	if !op.IsCompare() {
		return clc.IntBin(op, k, a, b)
	}
	if clc.IntCmp(op, k, a, b) {
		return 1, nil
	}
	return 0, nil
}

// TestSpecFold checks FoldConstInt against the scalar table through
// constant expressions: for each kind k, (k)(A op B) and A op B over the
// table's operands, where A and B are literals cast to k. C carries a
// narrow kind's operation out in int, so the table does too.
func TestSpecFold(t *testing.T) {
	for _, k := range enginetest.IntKinds {
		var exprs []string
		var wants []int64
		var defined []bool
		ops := enginetest.SpecOperands(k)
		for _, op := range enginetest.IntOps {
			for _, a := range ops {
				for _, b := range ops {
					want, ok := enginetest.SpecInt(op, k, enginetest.Promoted(k), a, b)
					exprs = append(exprs, specExpr(op, k, a, b))
					wants = append(wants, want)
					defined = append(defined, ok)
				}
			}
		}
		for i, init := range foldInits(t, exprs) {
			got, err := clc.FoldConstInt(init)
			switch {
			case !defined[i] && err == nil:
				t.Errorf("%s = %d, want an error", exprs[i], got)
			case defined[i] && (err != nil || got != wants[i]):
				t.Errorf("%s = %d (%v), want %d", exprs[i], got, err, wants[i])
			}
		}
	}
	var exprs []string
	for _, p := range enginetest.SpecProbes {
		exprs = append(exprs, p.Expr)
	}
	for i, init := range foldInits(t, exprs) {
		if got, err := clc.FoldConstInt(init); err != nil || got != enginetest.SpecProbes[i].Want {
			t.Errorf("%s = %d (%v), want %d", exprs[i], got, err, enginetest.SpecProbes[i].Want)
		}
	}
}

// specExpr spells a op b for operands of kind k: cast back to k, or an
// int for a comparison.
func specExpr(op clc.Op, k clc.ScalarKind, a, b int64) string {
	e := fmt.Sprintf("((%s)0x%xUL %s (%s)0x%xUL)", k, uint64(a), op, k, uint64(b))
	if op.IsCompare() {
		return e
	}
	return fmt.Sprintf("(%s)%s", k, e)
}

// foldInits parses one kernel that declares a long initialized by each
// expression and returns the initializers.
func foldInits(t *testing.T, exprs []string) []clc.Expr {
	t.Helper()
	var src strings.Builder
	src.WriteString("__kernel void k(__global long* o) {\n")
	for i, e := range exprs {
		fmt.Fprintf(&src, "    long v%d = %s;\n", i, e)
	}
	src.WriteString("}\n")
	f, err := clc.Parse("spec.cl", src.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var inits []clc.Expr
	for _, st := range f.Funcs[0].Body.Stmts {
		inits = append(inits, st.(*clc.DeclStmt).Init)
	}
	return inits
}

// TestSpecSizes checks the folder where a program meets it: an array size
// that wraps to zero or below is refused, one over clc.MaxObjectBytes is
// refused with its position, the arm of ?: not taken is not evaluated, and
// #if evaluates in long.
func TestSpecSizes(t *testing.T) {
	for size, want := range map[string]string{
		"(1 << 33) >> 30":      "array size must be positive, got 0",
		"0x7fffffff + 1":       "array size must be positive, got -2147483648",
		"3000000000":           "array t exceeds the 67108864-byte limit",
		"4096][4097":           "array t exceeds the 67108864-byte limit",
		"0xFFFFFFFFFFFFFFFFUL": "array t exceeds the 67108864-byte limit",
		"16777216":             "",
		"1UL << 33":            "array t exceeds",
		"0 ? 16 / 0 : 1":       "",
		"1 ? 16 : 1 % 0":       "",
		"0 ? 1 : 16 / 0":       "integer division by zero",
	} {
		src := "__kernel void k() { __local float t[" + size + "]; t[0] = 0.0f; }"
		_, err := clc.Parse("t.cl", src, nil)
		switch {
		case want == "" && err != nil:
			t.Errorf("[%s]: %v", size, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), "t.cl:1:") || !strings.Contains(err.Error(), want)):
			t.Errorf("[%s]: err = %v, want %q", size, err, want)
		}
	}
	pp, err := clc.NewPreprocessor(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := clc.ProcessText(pp, "#if (1 << 33) > 0 && -1 < 0xFFFFFFFF\nint wide;\n#endif\n")
	if err != nil || !strings.Contains(out, "wide") {
		t.Errorf("#if does not fold in long: %q, %v", out, err)
	}
	out, err = clc.ProcessText(pp, "#define N 0\n#if N ? 16 / N : 1\nint taken;\n#endif\n")
	if err != nil || !strings.Contains(out, "taken") {
		t.Errorf("#if evaluates the arm of ?: not taken: %q, %v", out, err)
	}
}
