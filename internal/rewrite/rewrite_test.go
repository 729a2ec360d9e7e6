package rewrite

import (
	"testing"

	"grover/internal/analysis"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/opt"
	"grover/internal/vm"
)

func compileModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := clc.Parse("test.cl", src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

type runSpec struct {
	kernel     string
	globalSize [3]int
	localSize  [3]int
	argOrder   []vm.Arg
	bufs       map[int][]float32
	outIdx     int
	outLen     int
}

func runIt(t *testing.T, m *ir.Module, spec runSpec) []float32 {
	t.Helper()
	p, err := vm.Prepare(m)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	g := vm.NewGlobalMem(1 << 20)
	args := make([]vm.Arg, len(spec.argOrder))
	var outBuf *vm.Buffer
	for i, a := range spec.argOrder {
		if a.Kind == vm.ArgBuffer {
			data := spec.bufs[i]
			b := g.Alloc(len(data) * 4)
			b.WriteFloat32s(data)
			args[i] = vm.BufArg(b)
			if i == spec.outIdx {
				outBuf = b
			}
		} else {
			args[i] = a
		}
	}
	cfg := vm.Config{GlobalSize: spec.globalSize, LocalSize: spec.localSize, Args: args}
	if err := p.Launch(spec.kernel, cfg, g, nil); err != nil {
		t.Fatalf("launch %s: %v", spec.kernel, err)
	}
	return outBuf.ReadFloat32s(spec.outLen)
}

func seq(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i%251) + 0.5
	}
	return out
}

func localAllocas(fn *ir.Function) int {
	count := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.Space == clc.ASLocal {
				count++
			}
		}
	}
	return count
}

// applyPlan compiles src, optimizes it (plans run on compiled modules),
// applies the plan, and requires the rewritten kernel to produce the same
// output as the original.
func applyPlan(t *testing.T, src, plan string, spec runSpec) (*ir.Module, *Report) {
	t.Helper()
	m := compileModule(t, src)
	opt.Optimize(m)
	out, rep, err := Apply(m, spec.kernel, MustParsePlan(plan))
	if err != nil {
		t.Fatalf("apply %s: %v\n%s", plan, err, rep)
	}
	want := runIt(t, m, spec)
	got := runIt(t, out, spec)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("plan %s output[%d]: %g != %g\nreport:\n%s", plan, i, got[i], want[i], rep)
		}
	}
	return out, rep
}

const transposeSrc = `
#define S 8
__kernel void transpose(__global float* out, __global float* in, int W, int H) {
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wy*S+ly)*W + (wx*S+lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    float val = lm[lx][ly];
    out[(wx*S+ly)*H + (wy*S+lx)] = val;
}
`

func transposeSpec() runSpec {
	const W, H = 32, 16
	return runSpec{
		kernel:     "transpose",
		globalSize: [3]int{W, H, 1},
		localSize:  [3]int{8, 8, 1},
		argOrder:   []vm.Arg{{Kind: vm.ArgBuffer}, {Kind: vm.ArgBuffer}, vm.IntArg(W), vm.IntArg(H)},
		bufs:       map[int][]float32{0: make([]float32, W*H), 1: seq(W * H)},
		outIdx:     0,
		outLen:     W * H,
	}
}

// winsumSrc reuses one global element per work-item across every loop
// iteration: b[grp*WG+lid] is loop-invariant but LICM will not hoist a
// global load past the out[] stores, so stage-local has a real target.
const winsumSrc = `
#define WG 16
__kernel void winsum(__global float* out, __global float* a, __global float* b, int n) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    int grp = get_group_id(0);
    float acc = 0.0f;
    for (int i = 0; i < n; i++) {
        acc += a[gid*n + i] * b[grp*WG + lid];
    }
    out[gid] = acc;
}
`

func winsumSpec() runSpec {
	const G, N = 64, 8
	return runSpec{
		kernel:     "winsum",
		globalSize: [3]int{G, 1, 1},
		localSize:  [3]int{16, 1, 1},
		argOrder:   []vm.Arg{{Kind: vm.ArgBuffer}, {Kind: vm.ArgBuffer}, {Kind: vm.ArgBuffer}, vm.IntArg(N)},
		bufs:       map[int][]float32{0: make([]float32, G), 1: seq(G * N), 2: seq(G)},
		outIdx:     0,
		outLen:     G,
	}
}

func TestApplyBasePlan(t *testing.T) {
	spec := transposeSpec()
	out, rep := applyPlan(t, transposeSrc, "base", spec)
	if len(rep.Steps) != 1 || rep.Steps[0].Rule != "opt" {
		t.Fatalf("base plan should run only the implicit opt step, got %s", rep)
	}
	if localAllocas(out.Kernel("transpose")) == 0 {
		t.Fatalf("base plan must not remove local memory")
	}
}

func TestGroverRulePlan(t *testing.T) {
	spec := transposeSpec()
	m := compileModule(t, transposeSrc)
	opt.Optimize(m)
	out, rep, err := Apply(m, "transpose", MustParsePlan("grover"))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !rep.Changed() {
		t.Fatalf("grover plan did not change the kernel:\n%s", rep)
	}
	if rep.Steps[0].Grover == nil {
		t.Fatalf("grover step should carry the transform report")
	}
	if localAllocas(out.Kernel("transpose")) != 0 {
		t.Fatalf("grover plan left local memory behind")
	}
	// The input module must be untouched (Apply works on a clone).
	if localAllocas(m.Kernel("transpose")) == 0 {
		t.Fatalf("Apply mutated its input module")
	}
	want := runIt(t, m, spec)
	got := runIt(t, out, spec)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output[%d]: %g != %g", i, got[i], want[i])
		}
	}
}

func TestStageLocalRule(t *testing.T) {
	spec := winsumSpec()
	out, rep := applyPlan(t, winsumSrc, "stage-local(ls=16)", spec)
	if !rep.Changed() {
		t.Fatalf("stage-local did not apply:\n%s", rep)
	}
	fn := out.Kernel("winsum")
	if localAllocas(fn) == 0 {
		t.Fatalf("stage-local did not introduce a local tile:\n%s", rep)
	}
	barriers := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBarrier {
				barriers++
			}
		}
	}
	if barriers == 0 {
		t.Fatalf("staged kernel has no barrier")
	}
	// The staged kernel must be clean under the safety detectors at the
	// staging work-group size.
	res := analysis.AnalyzeKernel(fn, analysis.Options{WorkGroupSize: [3]int{16, 1, 1}})
	if res.MaxSeverity() == analysis.SeverityError {
		t.Fatalf("staged kernel has error findings: %+v", res.Findings)
	}
}

func TestStageLocalRequiresLS(t *testing.T) {
	m := compileModule(t, winsumSrc)
	opt.Optimize(m)
	if _, _, err := Apply(m, "winsum", MustParsePlan("stage-local")); err == nil {
		t.Fatalf("stage-local without ls should fail")
	}
}

func TestStageLocalNoCandidates(t *testing.T) {
	// transpose has no loops at all, so stage-local must be a clean no-op.
	m := compileModule(t, transposeSrc)
	opt.Optimize(m)
	_, rep, err := Apply(m, "transpose", MustParsePlan("stage-local(ls=8)"))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rep.Steps[0].Applied {
		t.Fatalf("stage-local should not apply to transpose: %s", rep)
	}
}

// TestRoundTrip checks the inverse pair: staging local memory into a
// loop and then running the Grover rule takes the kernel back to a
// local-memory-free form, bit-identical outputs throughout, with the
// final IR clean under the analysis detectors (what groverlint runs).
func TestRoundTrip(t *testing.T) {
	spec := winsumSpec()
	out, rep := applyPlan(t, winsumSrc, "stage-local(ls=16),grover", spec)
	fn := out.Kernel("winsum")
	stageStep, groverStep := rep.Steps[0], rep.Steps[1]
	if !stageStep.Applied {
		t.Fatalf("stage-local did not apply:\n%s", rep)
	}
	if !groverStep.Applied {
		t.Fatalf("grover did not undo the staging:\n%s", rep)
	}
	if n := localAllocas(fn); n != 0 {
		t.Fatalf("round trip left %d local allocas:\n%s", n, rep)
	}
	res := analysis.AnalyzeKernel(fn, analysis.Options{WorkGroupSize: [3]int{16, 1, 1}})
	if res.MaxSeverity() == analysis.SeverityError {
		t.Fatalf("round-tripped kernel has error findings: %+v", res.Findings)
	}
}

const hoistSrc = `
__kernel void hoistk(__global float* out, __global float* a, int n) {
    float acc = 0.0f;
    for (int i = 0; i < n; i++) {
        acc += a[get_global_id(0)];
    }
    out[get_global_id(0)] = acc;
}
`

func hoistSpec() runSpec {
	const G, N = 32, 5
	return runSpec{
		kernel:     "hoistk",
		globalSize: [3]int{G, 1, 1},
		localSize:  [3]int{8, 1, 1},
		argOrder:   []vm.Arg{{Kind: vm.ArgBuffer}, {Kind: vm.ArgBuffer}, vm.IntArg(N)},
		bufs:       map[int][]float32{0: make([]float32, G), 1: seq(G)},
		outIdx:     0,
		outLen:     G,
	}
}

func inLoopIndexes(fn *ir.Function) int {
	count := 0
	for _, l := range preheaderLoops(ir.NewCFG(fn)) {
		for b := range l.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpIndex {
					count++
				}
			}
		}
	}
	return count
}

// TestHoistAddr restricts the cleanup pipeline so LICM cannot mask the
// rule, then checks the in-loop address computation moved out.
func TestHoistAddr(t *testing.T) {
	spec := hoistSpec()
	m := compileModule(t, hoistSrc)
	baseOut, _, err := Apply(m, "hoistk", MustParsePlan("opt(passes=dce)"))
	if err != nil {
		t.Fatalf("base apply: %v", err)
	}
	hoistOut, rep, err := Apply(m, "hoistk", MustParsePlan("hoist-addr,opt(passes=dce)"))
	if err != nil {
		t.Fatalf("hoist apply: %v", err)
	}
	if !rep.Steps[0].Applied {
		t.Fatalf("hoist-addr did not apply:\n%s", rep)
	}
	before, after := inLoopIndexes(baseOut.Kernel("hoistk")), inLoopIndexes(hoistOut.Kernel("hoistk"))
	if after >= before {
		t.Fatalf("hoist-addr left %d in-loop Index instrs (was %d):\n%s", after, before, rep)
	}
	want := runIt(t, baseOut, spec)
	got := runIt(t, hoistOut, spec)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output[%d]: %g != %g", i, got[i], want[i])
		}
	}
}

func TestApplyUnknownKernel(t *testing.T) {
	m := compileModule(t, hoistSrc)
	if _, _, err := Apply(m, "nope", MustParsePlan("base")); err == nil {
		t.Fatalf("expected error for unknown kernel")
	}
}

func TestOptRuleBadPass(t *testing.T) {
	m := compileModule(t, hoistSrc)
	if _, _, err := Apply(m, "hoistk", MustParsePlan("opt(passes=bogus)")); err == nil {
		t.Fatalf("expected error for unknown pass name")
	}
}
