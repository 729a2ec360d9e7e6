package wgvec

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/opt"
	"grover/internal/vm"
)

// engines are the two executors; these tests sit inside the package, so
// they name them rather than import the shared list.
var engines = []string{vm.BackendInterp, Name}

// prepare compiles OpenCL C source the way a program is built — parse,
// lower, optimize, prepare — without the host API, which imports this
// package.
func prepare(t testing.TB, name, src string) *vm.Program {
	t.Helper()
	f, err := clc.Parse(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod)
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// slotSrc declares one variable of every kind the slot analysis has to
// tell apart.
const slotSrc = `
float series(float a, int n) {
    float s = a;
    for (int j = 0; j < n; j++) {
        s += 0.5f;
    }
    return s;
}
void bump(float* q) { *q += 1.0f; }
int twice(int m) { m += m; return m; }

__kernel void vars(__global float* out, __global float* in, int n) {
    int g = get_global_id(0);
    __global float* p = in + g;
    p++;
    float sum = 0.0f;
    float x = 1.0f;
    bump(&x);
    float acc[4];
    for (int i = 0; i < 4; i++) {
        acc[i] = 0.0f;
    }
    float4 v = (float4)(0.0f);
    v.x = x;
    float f = in[g];
    int bits = *(int*)&f;
    for (int k = 0; k < n; k++) {
        acc[k & 3] = series(*p, k);
        sum += acc[(k + 1) & 3];
    }
    out[g] = sum + v.x + (float)bits + (float)twice(g);
}
`

func isSlotOp(op opcode) bool {
	switch op {
	case opSlotLd, opSlotSt:
		return true
	}
	return false
}

// addrTracer writes down the address of every access by instruction.
type addrTracer struct{ at map[*ir.Instr][]uint64 }

func (t *addrTracer) GroupBegin([3]int, int) {}
func (t *addrTracer) Access(in *ir.Instr, _ int, addr uint64, _ int, _ bool) {
	t.at[in] = append(t.at[in], addr)
}
func (t *addrTracer) Barrier(int)       {}
func (t *addrTracer) Instrs(int, int64) {}
func (t *addrTracer) GroupEnd()         {}

// TestSlotVariables: which variables the lowering keeps in a register, that
// each variable has one path — every direct access a slot instruction, or
// none — that the frame is laid out as if every variable were in it, and
// that a slot access is traced where the variable would be: at its offset
// from the frame's base, which for a helper is not zero.
func TestSlotVariables(t *testing.T) {
	vars := []struct {
		fn, name string
		slot     bool
	}{
		{"vars", "g", true},   // read in later blocks
		{"vars", "p", true},   // a pointer variable
		{"vars", "sum", true}, // an accumulator
		{"vars", "i", true},   // loop counters
		{"vars", "k", true},
		{"vars", "bits", true}, // written in one block, read in another
		{"twice", "m", true},   // a parameter's copy
		{"series", "s", true},  // a helper's variables, called from a loop
		{"series", "j", true},
		{"vars", "x", false},   // &x goes to a helper
		{"vars", "acc", false}, // an array, indexed dynamically
		{"vars", "v", false},   // a vector, written by component
		{"vars", "f", false},   // read through a cast pointer
	}

	prog := prepare(t, "slots", slotSrc)
	m, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}

	type variable struct {
		alloca        *ir.Instr
		fn            *ir.Function
		slotOps, mems int
		accesses      []*ir.Instr
	}
	byName := map[[2]string]*variable{}
	for _, f := range prog.Module.Funcs {
		bf := m.funcs[f]
		// The layout vm.Prepare gives a frame: every alloca in order, each
		// 16-aligned, whether or not its variable lives there.
		byAlloca := map[ir.Value]*variable{}
		end := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpAlloca || in.Space == clc.ASLocal {
					continue
				}
				off := (end + 15) &^ 15
				if got := prog.AllocaOffset(in, f); got != off {
					t.Errorf("%s.%s at frame offset %d, want %d", f.Name, in.VarName, got, off)
				}
				end = off + in.Typ.(*clc.PointerType).Elem.Size()
				v := &variable{alloca: in, fn: f}
				byAlloca[in], byName[[2]string{f.Name, in.VarName}] = v, v
			}
		}
		if bf.FrameSize != end || prog.FrameSize(f) != end {
			t.Errorf("%s: frame of %d bytes (program: %d), want %d", f.Name, bf.FrameSize, prog.FrameSize(f), end)
		}
		allocas := 0
		for i := range bf.Code {
			inst := &bf.Code[i]
			if inst.Op == opAllocaP {
				allocas++
			}
			if inst.In == nil || (inst.In.Op != ir.OpLoad && inst.In.Op != ir.OpStore) {
				if isSlotOp(inst.Op) {
					t.Errorf("%s pc %d: slot instruction for %s", f.Name, i, inst.In.Op)
				}
				continue
			}
			v := byAlloca[inst.In.Args[0]]
			if !isSlotOp(inst.Op) {
				if v != nil {
					v.mems++
				}
				continue
			}
			if v == nil {
				t.Errorf("%s pc %d: slot instruction on something that is no private variable", f.Name, i)
				continue
			}
			v.slotOps++
			v.accesses = append(v.accesses, inst.In)
			moved := inst.In.Typ
			if inst.In.Op == ir.OpStore {
				moved = inst.In.Args[1].Type()
			}
			if inst.Imm != int64(prog.AllocaOffset(v.alloca, f)) || int(inst.N) != moved.Size() || inst.Retire != 1 {
				t.Errorf("%s.%s pc %d: imm %d, size %d, retire %d; want offset %d, size %d, retire 1",
					f.Name, v.alloca.VarName, i, inst.Imm, inst.N, inst.Retire, prog.AllocaOffset(v.alloca, f), moved.Size())
			}
		}
		if allocas != len(byAlloca) {
			t.Errorf("%s: %d alloca instructions for %d variables", f.Name, allocas, len(byAlloca))
		}
	}
	for _, want := range vars {
		v := byName[[2]string{want.fn, want.name}]
		switch {
		case v == nil:
			t.Errorf("%s.%s: no such variable", want.fn, want.name)
		case v.slotOps > 0 && v.mems > 0:
			t.Errorf("%s.%s has two paths: %d slot instructions and %d through memory", want.fn, want.name, v.slotOps, v.mems)
		case (v.slotOps > 0) != want.slot:
			t.Errorf("%s.%s: %d slot instructions and %d through memory, want slot=%v", want.fn, want.name, v.slotOps, v.mems, want.slot)
		}
	}
	if t.Failed() {
		return
	}

	// Traced, a slot access is at the frame's base plus the variable's
	// offset on every engine. The helpers are called from the kernel, so
	// their frames start where the kernel's ends.
	kernel := prog.Module.Kernel("vars")
	const items, n = 8, 3
	for _, backend := range engines {
		g := vm.NewGlobalMem(1 << 12)
		out, in := g.Alloc(items*4), g.Alloc((items+1)*4)
		tr := &addrTracer{at: map[*ir.Instr][]uint64{}}
		cfg := vm.Config{
			GlobalSize: [3]int{items, 1, 1}, LocalSize: [3]int{items, 1, 1}, Backend: backend,
			Args: []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.IntArg(n)},
		}
		opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
		if err := prog.Launch("vars", cfg, g, opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for _, want := range vars {
			if !want.slot {
				continue
			}
			v := byName[[2]string{want.fn, want.name}]
			base := 0
			if v.fn != kernel {
				base = prog.FrameSize(kernel)
			}
			addr := vm.MakeAddr(clc.ASPrivate, uint64(base+prog.AllocaOffset(v.alloca, v.fn)))
			seen := 0
			for _, in := range v.accesses {
				for _, got := range tr.at[in] {
					if seen++; got != addr {
						t.Fatalf("%s: %s.%s accessed at %#x, want %#x (frame base %d)", backend, want.fn, want.name, got, addr, base)
					}
				}
			}
			if seen < items {
				t.Errorf("%s: %s.%s traced %d times for %d work-items", backend, want.fn, want.name, seen, items)
			}
		}
	}
}

// TestSlotStoreRoundTrip: a value stored to a variable that lives in a
// register reads back as it does through memory, kind by kind. Compiled
// source converts a value to the variable's type before it stores it, so
// only hand-built IR gets a value outside the type's range as far as the
// store: constants typed as the variable but not normalized to it. Every
// work-item stores a under a full mask, the odd ones then b under a partial
// one, and all read the variable back once they have reconverged. A value
// of another type stored to a variable is no IR at all: Verify refuses it
// before either engine sees it.
func TestSlotStoreRoundTrip(t *testing.T) {
	f32 := func(x float64) float64 { return float64(float32(x)) }
	ints := []struct {
		typ          *clc.ScalarType
		a, b         int64
		wantA, wantB int64
	}{
		// A bool is stored as a byte: 256 reads back 0, not "true".
		{clc.TypeBool, 256, 3, 0, 3},
		{clc.TypeChar, 200, -129, -56, 127},
		{clc.TypeUChar, 300, -1, 44, 255},
		{clc.TypeShort, 40000, 1<<16 + 7, -25536, 7},
		{clc.TypeUShort, 70000, -1, 4464, 65535},
		{clc.TypeInt, 1<<32 | 5, 1 << 31, 5, math.MinInt32},
		{clc.TypeUInt, -1, 1 << 32, math.MaxUint32, 0},
		{clc.TypeLong, -7, 1 << 40, -7, 1 << 40},
		{clc.TypeULong, -1, 5, -1, 5},
	}
	floats := []struct {
		typ          *clc.ScalarType
		a, b         float64
		wantA, wantB float64
	}{
		{clc.TypeFloat, 0.1, 1e40, f32(0.1), math.Inf(1)},
		{clc.TypeDouble, 0.1, 1e40, 0.1, 1e40},
	}
	nI, nF := len(ints), len(floats)

	pos := clc.Pos{}
	fn := &ir.Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	iout := &ir.Param{Name_: "iout", Typ: &clc.PointerType{Elem: clc.TypeLong, Space: clc.ASGlobal}, Index: 0}
	fout := &ir.Param{Name_: "fout", Typ: &clc.PointerType{Elem: clc.TypeDouble, Space: clc.ASGlobal}, Index: 1}
	fn.Params = []*ir.Param{iout, fout}
	b := ir.NewBuilder(fn)
	odd, join := fn.NewBlock("odd"), fn.NewBlock("join")

	var vars []*ir.Instr
	var as, bs []ir.Value
	for _, c := range ints {
		vars = append(vars, b.Alloca(c.typ, clc.ASPrivate, c.typ.String(), pos))
		as = append(as, &ir.ConstInt{Val: c.a, Typ: c.typ})
		bs = append(bs, &ir.ConstInt{Val: c.b, Typ: c.typ})
	}
	for _, c := range floats {
		vars = append(vars, b.Alloca(c.typ, clc.ASPrivate, c.typ.String(), pos))
		as = append(as, &ir.ConstFloat{Val: c.a, Typ: c.typ})
		bs = append(bs, &ir.ConstFloat{Val: c.b, Typ: c.typ})
	}

	lid := b.Convert(b.WorkItem("get_local_id", ir.IntConst(0), pos), clc.TypeLong, pos)
	for i, v := range vars {
		b.Store(v, as[i], pos)
	}
	b.CondBr(b.Bin(ir.OpAnd, clc.TypeLong, lid, ir.LongConst(1), pos), odd, join, pos)
	b.SetBlock(odd)
	for i, v := range vars {
		b.Store(v, bs[i], pos)
	}
	b.Br(join, pos)
	b.SetBlock(join)
	for i, v := range vars {
		out, typ, row, col := ir.Value(iout), clc.Type(clc.TypeLong), nI, i
		if i >= nI {
			out, typ, row, col = fout, clc.TypeDouble, nF, i-nI
		}
		idx := b.Bin(ir.OpAdd, clc.TypeLong, b.Bin(ir.OpMul, clc.TypeLong, lid, ir.LongConst(int64(row)), pos), ir.LongConst(int64(col)), pos)
		b.Store(b.Index(out, idx, pos), b.Convert(b.Load(v, pos), typ, pos), pos)
	}
	b.Ret(nil, pos)

	mod := &ir.Module{Name: "t", Funcs: []*ir.Function{fn}}
	punned := &ir.Instr{Op: ir.OpStore, Typ: clc.TypeVoid, Args: []ir.Value{vars[0], ir.IntConst(0x3f800000)}}
	ir.InsertBefore(join.Instrs[0], punned)
	if _, err := vm.Prepare(mod); err == nil || !strings.Contains(err.Error(), "store of int") {
		t.Fatalf("a store of an int to a bool variable prepared: %v", err)
	}
	ir.RemoveInstr(punned)
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	slotStores, memStores := 0, 0
	for _, inst := range m.funcs[fn].Code {
		switch inst.Op {
		case opSlotSt:
			slotStores++
		case opSt:
			if clc.ScalarKind(inst.Kind) == clc.KInt {
				memStores++
			}
		}
	}
	if want := 2 * (nI + nF); slotStores != want || memStores != 0 {
		t.Fatalf("%d slot stores and %d int stores through memory, want %d and none", slotStores, memStores, want)
	}

	const n = 8
	for _, backend := range engines {
		g := vm.NewGlobalMem(1 << 12)
		ibuf, fbuf := g.Alloc(n*nI*8), g.Alloc(n*nF*8)
		cfg := vm.Config{
			GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{n, 1, 1}, Backend: backend,
			Args: []vm.Arg{vm.BufArg(ibuf), vm.BufArg(fbuf)},
		}
		if err := prog.Launch("k", cfg, g, nil); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for wi := 0; wi < n; wi++ {
			for i, c := range ints {
				want := c.wantA
				if wi%2 == 1 {
					want = c.wantB
				}
				if got := int64(binary.LittleEndian.Uint64(ibuf.Bytes()[(wi*nI+i)*8:])); got != want {
					t.Errorf("%s: work-item %d reads its %s back as %d, want %d", backend, wi, c.typ, got, want)
				}
			}
			for i, c := range floats {
				want := c.wantA
				if wi%2 == 1 {
					want = c.wantB
				}
				if got := math.Float64frombits(binary.LittleEndian.Uint64(fbuf.Bytes()[(wi*nF+i)*8:])); got != want {
					t.Errorf("%s: work-item %d reads its %s back as %v, want %v", backend, wi, c.typ, got, want)
				}
			}
		}
	}
}
