package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// newFunc returns a kernel with an int parameter p and an int buffer out,
// and a builder at its entry block.
func newFunc() (*ir.Function, *ir.Builder, *ir.Param, *ir.Param) {
	fn := &ir.Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	p := &ir.Param{Name_: "p", Typ: clc.TypeInt, Index: 0}
	out := &ir.Param{Name_: "out", Typ: &clc.PointerType{Elem: clc.TypeInt, Space: clc.ASGlobal}, Index: 1}
	fn.Params = []*ir.Param{p, out}
	return fn, ir.NewBuilder(fn), p, out
}

// usesOf counts the operands in fn that are v.
func usesOf(fn *ir.Function, v ir.Value) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					n++
				}
			}
		}
	}
	return n
}

// TestDCERemovesDeadChainInOneCall: a chain of n instructions, each used
// only by the next and the last by nothing, is dead as a whole, and one
// call removes all of it; stores, calls, barriers and terminators stay.
func TestDCERemovesDeadChainInOneCall(t *testing.T) {
	const n = 1000
	fn, b, p, out := newFunc()
	v := ir.Value(p)
	for i := 0; i < n; i++ {
		v = b.Bin(ir.OpAdd, clc.TypeInt, v, ir.IntConst(1), clc.Pos{})
	}
	b.Store(out, p, clc.Pos{})
	b.Call(&ir.Function{Name: "f", Ret: clc.TypeVoid}, nil, clc.Pos{})
	b.Barrier(ir.IntConst(1), clc.Pos{})
	b.Ret(nil, clc.Pos{})
	if got := DCE(fn); got != n {
		t.Fatalf("DCE removed %d instructions, want %d", got, n)
	}
	var ops []ir.Op
	for _, in := range fn.Blocks[0].Instrs {
		ops = append(ops, in.Op)
	}
	if want := []ir.Op{ir.OpStore, ir.OpCall, ir.OpBarrier, ir.OpRet}; !slices.Equal(ops, want) {
		t.Errorf("left %v, want %v", ops, want)
	}
	if got := DCE(fn); got != 0 {
		t.Errorf("a second DCE removed %d", got)
	}
}

// TestCSERewritesEveryUse: the duplicate is defined in a block that
// dominates a loop header listed above it and an exit listed below it,
// and both uses move to the value it duplicates.
func TestCSERewritesEveryUse(t *testing.T) {
	fn, b, p, out := newFunc()
	head, def, exit := fn.NewBlock("head"), fn.NewBlock("def"), fn.NewBlock("exit")
	b.Br(def, clc.Pos{})
	b.SetBlock(def)
	x := b.Bin(ir.OpMul, clc.TypeInt, p, p, clc.Pos{})
	dup := b.Bin(ir.OpMul, clc.TypeInt, p, p, clc.Pos{})
	b.Br(head, clc.Pos{})
	b.SetBlock(head)
	cond := b.Cmp(ir.OpLt, dup, ir.IntConst(10), clc.Pos{})
	b.CondBr(cond, head, exit, clc.Pos{})
	b.SetBlock(exit)
	b.Store(out, b.Bin(ir.OpAdd, clc.TypeInt, dup, ir.IntConst(1), clc.Pos{}), clc.Pos{})
	b.Ret(nil, clc.Pos{})
	if err := ir.VerifyFunc(fn); err != nil {
		t.Fatal(err)
	}
	if !CSE(fn) {
		t.Fatal("CSE changed nothing")
	}
	if n := usesOf(fn, dup); n != 0 {
		t.Errorf("%d uses of the duplicate left", n)
	}
	if n := usesOf(fn, x); n != 2 {
		t.Errorf("%d uses of the kept value, want 2 (loop header and exit)", n)
	}
	if len(def.Instrs) != 2 {
		t.Errorf("def holds %d instructions, want the kept mul and the branch", len(def.Instrs))
	}
	if err := ir.VerifyFunc(fn); err != nil {
		t.Fatal(err)
	}
}

// TestCSEKeepsConstantsApart: constants compare by value and type, so
// int 1 and long 1 are different operands, and so are 0.0 and -0.0.
func TestCSEKeepsConstantsApart(t *testing.T) {
	fn, b, p, out := newFunc()
	f := b.Convert(p, clc.TypeFloat, clc.Pos{})
	vals := []ir.Value{
		b.Convert(ir.IntConst(1), clc.TypeFloat, clc.Pos{}),
		b.Convert(ir.LongConst(1), clc.TypeFloat, clc.Pos{}),
		b.Bin(ir.OpMul, clc.TypeFloat, f, ir.FloatConst(0), clc.Pos{}),
		b.Bin(ir.OpMul, clc.TypeFloat, f, ir.FloatConst(math.Copysign(0, -1)), clc.Pos{}),
	}
	again := b.Convert(ir.IntConst(1), clc.TypeFloat, clc.Pos{})
	for _, v := range append(vals, again) {
		b.Store(out, b.Convert(v, clc.TypeInt, clc.Pos{}), clc.Pos{})
	}
	b.Ret(nil, clc.Pos{})
	if !CSE(fn) {
		t.Fatal("CSE did not merge the repeated int 1 conversion")
	}
	if usesOf(fn, again) != 0 {
		t.Error("the repeated int 1 conversion is still used")
	}
	for i, v := range vals {
		if usesOf(fn, v) == 0 {
			t.Errorf("value %d (%s) was merged into another", i, v.(*ir.Instr).Format())
		}
	}
}

// TestLoadForwardThroughForwardedLoad: b is stored from a load of a that
// is itself forwarded, so a load of b forwards to what was stored to a.
func TestLoadForwardThroughForwardedLoad(t *testing.T) {
	fn, b, p, out := newFunc()
	va := b.Alloca(clc.TypeInt, clc.ASPrivate, "a", clc.Pos{})
	vb := b.Alloca(clc.TypeInt, clc.ASPrivate, "b", clc.Pos{})
	b.Store(va, p, clc.Pos{})
	la := b.Load(va, clc.Pos{})
	b.Store(vb, la, clc.Pos{})
	lb := b.Load(vb, clc.Pos{})
	st := b.Store(out, lb, clc.Pos{})
	b.Ret(nil, clc.Pos{})
	if !LoadForward(fn) {
		t.Fatal("LoadForward changed nothing")
	}
	if countInBlocks(fn, nil, ir.OpLoad) != 0 {
		t.Errorf("loads left:\n%s", fn.Format())
	}
	if st.Args[1] != p {
		t.Errorf("the store to out stores %s, want %%p", st.Args[1])
	}
	if err := ir.VerifyFunc(fn); err != nil {
		t.Fatal(err)
	}
}

// bitsetDominators is the data-flow form LICM's dominators had before
// they were a tree under a virtual root, kept as their oracle: block i's
// dominator set is bitset row i. The entry and every block without
// predecessors are dominated by themselves alone, and any other block by
// itself and by every block that dominates all of its predecessors.
type bitsetDominators struct {
	dom      []uint64
	words, n int
}

func newBitsetDominators(preds [][]int) *bitsetDominators {
	n := len(preds)
	c := &bitsetDominators{n: n, words: (n + 63) / 64}
	full := make([]uint64, c.words)
	for i := 0; i < n; i++ {
		full[i/64] |= 1 << (i % 64)
	}
	c.dom = make([]uint64, n*c.words)
	for i := 1; i < n; i++ {
		copy(c.row(i), full)
	}
	c.dom[0] = 1
	nd := make([]uint64, c.words)
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			if len(preds[i]) == 0 {
				clear(nd)
			} else {
				copy(nd, full)
			}
			for _, p := range preds[i] {
				for w, x := range c.row(p) {
					nd[w] &= x
				}
			}
			nd[i/64] |= 1 << (i % 64)
			if row := c.row(i); !slices.Equal(nd, row) {
				copy(row, nd)
				changed = true
			}
		}
	}
	return c
}

func (c *bitsetDominators) row(i int) []uint64 { return c.dom[i*c.words : (i+1)*c.words] }

func (c *bitsetDominators) dominates(a, b int) bool {
	return c.dom[b*c.words+a/64]&(1<<(a%64)) != 0
}

// idom is the closest of b's other dominators, which every other one
// dominates, or -1.
func (c *bitsetDominators) idom(b int) int {
	best := -1
	for a := 0; a < c.n; a++ {
		if a != b && c.dominates(a, b) && (best == -1 || c.dominates(best, a)) {
			best = a
		}
	}
	return best
}

// checkDominators compares buildCFG's dominance and immediate dominators
// on fn against the bitset oracle's.
func checkDominators(t *testing.T, what string, fn *ir.Function) {
	t.Helper()
	c := buildCFG(fn)
	want := newBitsetDominators(c.preds)
	for b := range fn.Blocks {
		for a := range fn.Blocks {
			if got := c.dominates(a, b); got != want.dominates(a, b) {
				t.Errorf("%s: dominates(%d, %d) = %v, want %v", what, a, b, got, !got)
			}
		}
		if got, w := c.idom(b), want.idom(b); got != w {
			t.Errorf("%s: idom(%d) = %d, want %d", what, b, got, w)
		}
	}
}

// TestDominatorsMatchReference: on CFGs of one and of two bitset words,
// with loops, forward skips and a block without predecessors whose edge
// lands in the middle, and on random CFGs, LICM's dominators are the
// bitset oracle's. A block without predecessors is an entry of its own,
// which ir.CFG's dominator tree does not share. Every block of the random
// CFGs is reachable from the entry or from a block without predecessors:
// a cycle that neither reaches is dominated by every block in the data-flow
// form and by none in the tree.
func TestDominatorsMatchReference(t *testing.T) {
	for _, n := range []int{40, 70} {
		fn, b, p, _ := newFunc()
		blocks := []*ir.Block{fn.Blocks[0]}
		for len(blocks) < n {
			blocks = append(blocks, fn.NewBlock("b"))
		}
		dead := n - 10 // no predecessors
		for i, blk := range blocks {
			b.SetBlock(blk)
			next, far := i+1, (i*37+11)%n
			if next == dead {
				next++
			}
			if far == dead {
				far = 0
			}
			switch {
			case i == dead:
				b.Br(blocks[n/2], clc.Pos{})
			case i == n-1:
				b.Ret(nil, clc.Pos{})
			default:
				b.CondBr(p, blocks[next], blocks[far], clc.Pos{})
			}
		}
		if c := buildCFG(fn); len(c.preds[dead]) != 0 {
			t.Fatalf("n=%d: block %d has predecessors %v", n, dead, c.preds[dead])
		}
		checkDominators(t, fmt.Sprintf("n=%d", n), fn)
	}
	r := rand.New(rand.NewSource(28))
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(90)
		fn, b, p, _ := newFunc()
		blocks := []*ir.Block{fn.Blocks[0]}
		for len(blocks) < n {
			blocks = append(blocks, fn.NewBlock("b"))
		}
		// Besides the entry, a few blocks have no predecessors. Each other
		// block, in a random order, takes its first edge from a block placed
		// before it, so every block is reachable from one of those roots;
		// further edges go anywhere but into a root other than the entry.
		root := make([]bool, n)
		root[0] = true
		for i := 1; i < n; i++ {
			root[i] = r.Intn(8) == 0
		}
		succs := make([][]int, n)
		placed := []int{}
		for i := range root {
			if root[i] {
				placed = append(placed, i)
			}
		}
		for _, j := range r.Perm(n) {
			if root[j] {
				continue
			}
			for {
				from := placed[r.Intn(len(placed))]
				if len(succs[from]) < 2 {
					succs[from] = append(succs[from], j)
					break
				}
			}
			placed = append(placed, j)
		}
		for i := range succs {
			for len(succs[i]) < 2 && r.Intn(2) == 0 {
				if j := r.Intn(n); (j == 0 || !root[j]) && !slices.Contains(succs[i], j) {
					succs[i] = append(succs[i], j)
				}
			}
		}
		for i, blk := range blocks {
			b.SetBlock(blk)
			switch s := succs[i]; len(s) {
			case 0:
				b.Ret(nil, clc.Pos{})
			case 1:
				b.Br(blocks[s[0]], clc.Pos{})
			default:
				b.CondBr(p, blocks[s[0]], blocks[s[1]], clc.Pos{})
			}
		}
		checkDominators(t, fmt.Sprintf("random CFG %d (%d blocks)", iter, n), fn)
	}
}
