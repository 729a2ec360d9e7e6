package exprtree

import (
	"math/big"
	"strings"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
)

func compileKernel(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := clc.Parse("t.cl", src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, fn := range m.Funcs {
		if fn.IsKernel {
			return fn
		}
	}
	t.Fatal("no kernel")
	return nil
}

// findStore returns the n-th store whose pointer chain roots at a local
// alloca.
func findLocalStore(fn *ir.Function, n int) *ir.Instr {
	count := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if bi, ok := ir.RootOf(in.Args[0]).(*ir.Instr); ok && bi.Space == clc.ASLocal {
				if count == n {
					return in
				}
				count++
			}
		}
	}
	return nil
}

const treeSrc = `
#define S 16
__kernel void k(__global float* out, __global float* in, int W) {
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wy*S + ly)*W + wx*S + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[(wx*S + ly)*W + wy*S + lx] = lm[lx][ly];
}
`

func TestBuildForwardsSingleStoreVariables(t *testing.T) {
	fn := compileKernel(t, treeSrc)
	st := findLocalStore(fn, 0)
	if st == nil {
		t.Fatal("no local store found")
	}
	tb := NewBuilder(fn)
	tree, err := tb.Build(st.Args[1])
	if err != nil {
		t.Fatal(err)
	}
	// The stored value is the global load; its tree must reach through the
	// variables lx/ly/wx/wy down to the work-item query leaves.
	if !ContainsWorkItem(tree, "get_local_id") {
		t.Error("tree should contain get_local_id leaves (forwarded through variables)")
	}
	if !ContainsWorkItem(tree, "get_group_id") {
		t.Error("tree should contain get_group_id leaves")
	}
	s := Render(tree)
	for _, frag := range []string{"lx", "ly", "wx", "wy", "W", "in"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered tree %q missing %q", s, frag)
		}
	}
}

func TestExtractAffineSimple(t *testing.T) {
	fn := compileKernel(t, treeSrc)
	st := findLocalStore(fn, 0)
	// The innermost index of lm[ly][lx] is lx.
	idx := st.Args[0].(*ir.Instr) // index ... lx
	tb := NewBuilder(fn)
	node, err := tb.Build(idx.Args[1])
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	aff, err := ExtractAffine(node, reg)
	if err != nil {
		t.Fatal(err)
	}
	key := LocalIDKey(0)
	if aff.Coeff(key).Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("lx coefficient = %s, want 1 (affine %s)", aff.Coeff(key), aff)
	}
	if len(aff.Coeffs) != 1 || aff.Const.Sign() != 0 {
		t.Errorf("affine = %s, want pure lx", aff)
	}
}

func TestExtractAffineLinearCombination(t *testing.T) {
	fn := compileKernel(t, `
__kernel void k(__global float* out) {
    __local float lm[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    lm[3*lx + (ly << 2) - 5] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[0];
}
`)
	st := findLocalStore(fn, 0)
	idx := st.Args[0].(*ir.Instr)
	tb := NewBuilder(fn)
	node, err := tb.Build(idx.Args[1])
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	aff, err := ExtractAffine(node, reg)
	if err != nil {
		t.Fatal(err)
	}
	if aff.Coeff(LocalIDKey(0)).Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("lx coeff = %s, want 3", aff.Coeff(LocalIDKey(0)))
	}
	if aff.Coeff(LocalIDKey(1)).Cmp(big.NewRat(4, 1)) != 0 {
		t.Errorf("ly coeff = %s, want 4 (shift by 2)", aff.Coeff(LocalIDKey(1)))
	}
	if aff.Const.Cmp(big.NewRat(-5, 1)) != 0 {
		t.Errorf("const = %s, want -5", aff.Const)
	}
}

func TestExtractAffineNonLinearLocalID(t *testing.T) {
	fn := compileKernel(t, `
__kernel void k(__global float* out) {
    __local float lm[256];
    int lx = get_local_id(0);
    lm[lx * lx] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[0];
}
`)
	st := findLocalStore(fn, 0)
	idx := st.Args[0].(*ir.Instr)
	tb := NewBuilder(fn)
	node, _ := tb.Build(idx.Args[1])
	reg := NewRegistry()
	if _, err := ExtractAffine(node, reg); err == nil {
		t.Fatal("lx*lx must be rejected as non-affine")
	}
}

func TestExtractAffineOpaqueLoopVariable(t *testing.T) {
	fn := compileKernel(t, `
__kernel void k(__global float* out, __global float* in, int n) {
    __local float lm[64];
    int lx = get_local_id(0);
    for (int i = 0; i < n; i++) {
        lm[lx] = in[i*64 + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        out[i*64 + lx] = lm[lx] + 1.0f;
        barrier(CLK_LOCAL_MEM_FENCE);
    }
}
`)
	st := findLocalStore(fn, 0)
	tb := NewBuilder(fn)
	// The stored value's tree: in[i*64+lx]; extract affine of the load's
	// pointer index. Find the global load in the tree.
	tree, err := tb.Build(st.Args[1])
	if err != nil {
		t.Fatal(err)
	}
	var idxNode *Node
	tree.Walk(func(n *Node) {
		if in := n.Instr(); in != nil && in.Op == ir.OpIndex && idxNode == nil {
			idxNode = n.Children[1]
		}
	})
	if idxNode == nil {
		t.Fatal("no index node in GL tree")
	}
	reg := NewRegistry()
	aff, err := ExtractAffine(idxNode, reg)
	if err != nil {
		t.Fatal(err)
	}
	// i is a multi-store variable: must appear as an opaque term with
	// coefficient 64.
	foundOpaque := false
	for _, k := range aff.Terms() {
		if strings.HasPrefix(k, "$") && aff.Coeff(k).Cmp(big.NewRat(64, 1)) == 0 {
			foundOpaque = true
			if reg.Term(k).Name != "i" {
				t.Errorf("opaque term named %q, want i", reg.Term(k).Name)
			}
		}
	}
	if !foundOpaque {
		t.Errorf("affine %s lacks the 64*i opaque term", aff)
	}
}

func TestMarkState(t *testing.T) {
	fn := compileKernel(t, treeSrc)
	st := findLocalStore(fn, 0)
	tb := NewBuilder(fn)
	tree, _ := tb.Build(st.Args[1])
	marked := MarkState(tree, func(n *Node) bool {
		in := n.Instr()
		return in != nil && in.Op == ir.OpWorkItem && in.Func == "get_local_id"
	})
	if !marked {
		t.Fatal("root should be marked (subtree contains get_local_id)")
	}
	// Every marked internal node must have at least one marked child or be
	// a local-id leaf.
	tree.Walk(func(n *Node) {
		if !n.State || n.IsLeaf() {
			return
		}
		any := false
		for _, c := range n.Children {
			if c.State {
				any = true
			}
		}
		if !any {
			t.Error("marked internal node without marked child")
		}
	})
	// Constant leaves must not be marked.
	tree.Walk(func(n *Node) {
		if _, ok := n.Value.(*ir.ConstInt); ok && n.State {
			t.Error("constant leaf marked")
		}
	})
}

func TestMatchPattern(t *testing.T) {
	fn := compileKernel(t, `
#define S 8
__kernel void k(__global float* out, int W) {
    __local float a[64];
    __local float b[64];
    __local float c[64];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    a[ly*S + lx] = 1.0f;           /* hi-lo */
    b[lx] = 2.0f;                  /* flat */
    for (int i = 0; i < 4; i++) {
        c[i*32 + (ly*S + lx)] = 3.0f; /* derived: + → + → * */
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = a[lx] + b[lx] + c[lx];
}
`)
	tb := NewBuilder(fn)
	wantKinds := []PatternKind{PatternHiLo, PatternFlat}
	for i, want := range wantKinds {
		st := findLocalStore(fn, i)
		idx := st.Args[0].(*ir.Instr)
		node, err := tb.Build(idx.Args[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := MatchPattern(node); got != want {
			t.Errorf("store %d: pattern = %s, want %s", i, got, want)
		}
	}
	// The derived pattern: i*32 + (ly*8+lx). Depending on association the
	// matcher sees hi-lo at the top or derived below; both are mul-bearing.
	st := findLocalStore(fn, 2)
	idx := st.Args[0].(*ir.Instr)
	node, err := tb.Build(idx.Args[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := MatchPattern(node); got == PatternFlat {
		t.Errorf("derived store classified as flat")
	}
}

func TestCountNodes(t *testing.T) {
	fn := compileKernel(t, treeSrc)
	st := findLocalStore(fn, 0)
	tb := NewBuilder(fn)
	tree, _ := tb.Build(st.Args[1])
	if tree.CountNodes() < 10 {
		t.Errorf("GL tree suspiciously small: %d nodes", tree.CountNodes())
	}
}
