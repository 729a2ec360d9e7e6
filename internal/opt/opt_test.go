package opt

import (
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/vm"
)

func compileNoOpt(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := clc.Parse("t.cl", src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

func countInstrs(fn *ir.Function) int {
	total := 0
	for _, b := range fn.Blocks {
		total += len(b.Instrs)
	}
	return total
}

func countInBlocks(fn *ir.Function, blocks map[*ir.Block]bool, op ir.Op) int {
	total := 0
	for _, b := range fn.Blocks {
		if blocks != nil && !blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == op {
				total++
			}
		}
	}
	return total
}

// runKernel executes kernel k over n work-items with one int buffer and
// returns the buffer contents.
func runKernel(t *testing.T, m *ir.Module, kernel string, n int, extra ...vm.Arg) []int32 {
	t.Helper()
	p, err := vm.Prepare(m)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	g := vm.NewGlobalMem(1 << 16)
	buf := g.Alloc(n * 4)
	args := append([]vm.Arg{vm.BufArg(buf)}, extra...)
	cfg := vm.Config{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{n, 1, 1}, Args: args}
	if err := p.Launch(kernel, cfg, g, nil); err != nil {
		t.Fatalf("launch: %v", err)
	}
	return buf.ReadInt32s(n)
}

const loopSrc = `
__kernel void k(__global int* out, int n) {
    int gx = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc += (gx * 7 + 3) + i;   /* gx*7+3 is loop invariant */
    }
    out[gx] = acc;
}
`

func TestOptimizePreservesSemantics(t *testing.T) {
	ref := compileNoOpt(t, loopSrc)
	opt := compileNoOpt(t, loopSrc)
	Optimize(opt)
	const n = 8
	want := runKernel(t, ref, "k", n, vm.IntArg(10))
	got := runKernel(t, opt, "k", n, vm.IntArg(10))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	m := compileNoOpt(t, loopSrc)
	fn := m.Kernel("k")
	// Identify loop blocks by name prefix before optimizing.
	loopBlocks := map[*ir.Block]bool{}
	for _, b := range fn.Blocks {
		if len(b.Name) >= 3 && b.Name[:3] == "for" {
			loopBlocks[b] = true
		}
	}
	mulBefore := countInBlocks(fn, loopBlocks, ir.OpMul)
	if mulBefore == 0 {
		t.Fatal("expected the gx*7 multiply inside the loop before LICM")
	}
	Optimize(m)
	mulAfter := countInBlocks(fn, loopBlocks, ir.OpMul)
	if mulAfter != 0 {
		t.Errorf("gx*7 still inside the loop after LICM (%d muls)", mulAfter)
	}
}

func TestCSEMergesDuplicates(t *testing.T) {
	m := compileNoOpt(t, `
__kernel void k(__global int* out) {
    int gx = get_global_id(0);
    out[gx] = (gx * 3 + 1) + (gx * 3 + 1);
}
`)
	fn := m.Kernel("k")
	before := countInBlocks(fn, nil, ir.OpMul)
	Optimize(m)
	after := countInBlocks(fn, nil, ir.OpMul)
	if after >= before {
		t.Errorf("CSE did not merge: %d muls before, %d after", before, after)
	}
	got := runKernel(t, m, "k", 4)
	for i, v := range got {
		want := int32(2 * (i*3 + 1))
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := compileNoOpt(t, `
__kernel void k(__global int* out) {
    int gx = get_global_id(0);
    int unused = gx * 12345;
    out[gx] = gx;
}
`)
	fn := m.Kernel("k")
	before := countInstrs(fn)
	Optimize(m)
	after := countInstrs(fn)
	if after >= before {
		t.Errorf("DCE removed nothing: %d before, %d after", before, after)
	}
	if countInBlocks(fn, nil, ir.OpStore) == 0 {
		t.Error("DCE must keep stores")
	}
	got := runKernel(t, m, "k", 4)
	for i, v := range got {
		if v != int32(i) {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

func TestPeepholeFoldsConvertChains(t *testing.T) {
	// Build a long→ulong→int chain by hand.
	fn := &ir.Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	p := &ir.Param{Name_: "out", Typ: &clc.PointerType{Elem: clc.TypeInt, Space: clc.ASGlobal}, Index: 0}
	fn.Params = []*ir.Param{p}
	b := ir.NewBuilder(fn)
	wi := b.WorkItem("get_local_id", ir.IntConst(0), clc.Pos{})
	c1 := b.Un(ir.OpConvert, clc.TypeLong, wi, clc.Pos{})
	c2 := b.Un(ir.OpConvert, clc.TypeULong, c1, clc.Pos{})
	c3 := b.Un(ir.OpConvert, clc.TypeInt, c2, clc.Pos{})
	c4 := b.Convert(c3, clc.TypeLong, clc.Pos{})
	ptr := b.Index(p, c4, clc.Pos{})
	b.Store(ptr, c3, clc.Pos{})
	b.Ret(nil, clc.Pos{})
	m := &ir.Module{Name: "t", Funcs: []*ir.Function{fn}}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	before := countInBlocks(fn, nil, ir.OpConvert)
	Optimize(m)
	after := countInBlocks(fn, nil, ir.OpConvert)
	if after >= before {
		t.Errorf("peephole did not shorten convert chain: %d → %d", before, after)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("optimized IR invalid: %v", err)
	}
}

func TestLICMDoesNotHoistVaryingLoads(t *testing.T) {
	m := compileNoOpt(t, `
__kernel void k(__global int* out, int n) {
    int gx = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc += i;           /* i changes every iteration */
    }
    out[gx] = acc;
}
`)
	Optimize(m)
	got := runKernel(t, m, "k", 4, vm.IntArg(5))
	for i, v := range got {
		if v != 10 { // 0+1+2+3+4
			t.Errorf("out[%d] = %d, want 10", i, v)
		}
	}
}

func TestLICMDoesNotSpeculateDivision(t *testing.T) {
	// n/d inside a guarded loop: hoisting would trap when d == 0 while the
	// loop body never runs.
	m := compileNoOpt(t, `
__kernel void k(__global int* out, int n, int d) {
    int gx = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc += 100 / d;
    }
    out[gx] = acc;
}
`)
	Optimize(m)
	// n = 0 → loop never executes → division by zero must not happen.
	got := runKernel(t, m, "k", 2, vm.IntArg(0), vm.IntArg(0))
	for i, v := range got {
		if v != 0 {
			t.Errorf("out[%d] = %d, want 0", i, v)
		}
	}
}

func TestOptimizeGroverTransformedKernel(t *testing.T) {
	// The optimizer must keep a transformed kernel valid and equivalent.
	src := `
#define S 8
__kernel void mm(__global float* C, __global float* A, __global float* B, int N) {
    __local float As[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    float acc = 0.0f;
    for (int t = 0; t < N/S; t++) {
        As[ly][lx] = A[gy*N + t*S + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < S; k++) {
            acc += As[ly][k] * B[(t*S+k)*N + gx];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C[gy*N + gx] = acc;
}
`
	m := compileNoOpt(t, src)
	// Sanity: optimize the original and verify.
	Optimize(m)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("optimized original invalid: %v", err)
	}
}

// TestOptimizeIsDeterministic: both arms of the if hold an expression of a
// and b that is invariant in the loop, so LICM hoists instructions out of
// two blocks in one pass, and the order they reach the preheader in — hence
// the value numbering and the printed IR, which /v1/compile and
// /v1/transform answer under a content address — must not follow Go's map
// order.
func TestOptimizeIsDeterministic(t *testing.T) {
	const src = `
__kernel void k(__global float* out, __global float* in, int a, int b, int n) {
    float acc = 0.0f;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) {
            acc += in[a * 3 + b];
        } else {
            acc -= in[b * 5 - a];
        }
    }
    out[get_global_id(0)] = acc;
}
`
	var first string
	for i := 0; i < 50; i++ {
		m := compileNoOpt(t, src)
		Optimize(m)
		if text := m.String(); i == 0 {
			first = text
		} else if text != first {
			t.Fatalf("compile %d produced different IR:\n%s\nthe first:\n%s", i, text, first)
		}
	}
}
