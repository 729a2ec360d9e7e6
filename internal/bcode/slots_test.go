package bcode_test

import (
	"testing"

	"grover/internal/bcode"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

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

func isSlotOp(op bcode.Opcode) bool {
	switch op {
	case bcode.OpSlotLdI, bcode.OpSlotLdF, bcode.OpSlotStI, bcode.OpSlotStF:
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

	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	cprog, err := ctx.CompileProgram("slots", slotSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := cprog.VM()
	m, err := bcode.Compile(prog)
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
		bf := m.Func(f)
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
			if inst.Op == bcode.OpAllocaP {
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
	for _, backend := range backends {
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
