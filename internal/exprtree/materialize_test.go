package exprtree

import (
	"math/big"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

func TestOffset(t *testing.T) {
	fn := compileKernel(t, treeSrc)
	st := findLocalStore(fn, 0)
	_, chain := ir.PointerRoot(st.Args[0])
	reg := NewRegistry()
	off, err := NewBuilder(fn).Offset(chain, reg)
	if err != nil {
		t.Fatal(err)
	}
	// lm[ly][lx] of a 16x16 float tile: 64·ly + 4·lx bytes.
	want := linsolve.NewAffine()
	want.AddScaled(linsolve.TermAffine(LocalIDKey(1)), big.NewRat(64, 1))
	want.AddScaled(linsolve.TermAffine(LocalIDKey(0)), big.NewRat(4, 1))
	if !off.Equal(want) {
		t.Errorf("offset = %s, want %s", off, want)
	}
}

func TestWorkItemCoeffs(t *testing.T) {
	aff := linsolve.NewAffine()
	aff.AddScaled(linsolve.TermAffine(LocalIDKey(0)), big.NewRat(4, 1))
	aff.AddScaled(linsolve.TermAffine(WorkItemKey("get_global_id", 0)), big.NewRat(4, 1))
	aff.AddScaled(linsolve.TermAffine(WorkItemKey("get_global_id", 2)), big.NewRat(-16, 1))
	aff.AddScaled(linsolve.TermAffine(WorkItemKey("get_group_id", 1)), big.NewRat(99, 1))
	c, ok := WorkItemCoeffs(aff)
	if !ok || c != [3]int64{8, 0, -16} {
		t.Errorf("WorkItemCoeffs = %v, %v; want [8 0 -16], true (get_global_id(d) folds into d, group ids do not count)", c, ok)
	}
	aff.AddScaled(linsolve.TermAffine(LocalIDKey(1)), big.NewRat(1, 2))
	if _, ok := WorkItemCoeffs(aff); ok {
		t.Error("a coefficient of 1/2 must report not-ok")
	}
}

const materializeSrc = `
__kernel void k(__global long* out, int n, int c) {
    int v = n;
    if (c) v = n + 1;
    out[0] = get_local_id(0) - v + n;
}
`

// materializeFixture registers the terms of the kernel's last store value
// (lx − v + n, v a two-store variable) and returns its affine form, the
// registry and the return instruction to insert before.
func materializeFixture(t *testing.T) (*linsolve.Affine, *Registry, *ir.Instr) {
	t.Helper()
	fn := compileKernel(t, materializeSrc)
	var st, ret *ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				st = in
			case ir.OpRet:
				ret = in
			}
		}
	}
	reg := NewRegistry()
	aff, err := NewBuilder(fn).Affine(st.Args[1], reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(aff.Terms()) != 3 {
		t.Fatalf("fixture affine %s, want three terms", aff)
	}
	return aff, reg, ret
}

// emitted lists the instructions placed before at, by opcode.
func emitted(at *ir.Instr) map[ir.Op][]*ir.Instr {
	out := map[ir.Op][]*ir.Instr{}
	for _, in := range at.Block.Instrs {
		if in == at {
			break
		}
		out[in.Op] = append(out[in.Op], in)
	}
	return out
}

func TestMaterializerForms(t *testing.T) {
	aff, reg, ret := materializeFixture(t)
	before := emitted(ret)
	m := NewMaterializer(ret, reg, func(*ir.Instr) bool { return false })
	if _, err := m.Affine(aff); err != nil {
		t.Fatal(err)
	}
	twice := aff.Clone().Scale(big.NewRat(3, 1))
	if _, err := m.Affine(twice); err != nil {
		t.Fatal(err)
	}
	after := emitted(ret)
	grew := func(op ir.Op) int { return len(after[op]) - len(before[op]) }
	if n := grew(ir.OpWorkItem); n != 1 {
		t.Errorf("%d get_local_id queries emitted for a term used twice, want 1", n)
	}
	if n := grew(ir.OpNeg); n != 1 {
		t.Errorf("%d negations emitted, want 1 (the −1 coefficient of v)", n)
	}
	if n := grew(ir.OpMul); n != 3 {
		t.Errorf("%d multiplies emitted, want 3 (none for ±1, one per term of the tripled form)", n)
	}
	for _, c := range []int64{7, 0} {
		v, err := m.Affine(linsolve.ConstAffine(big.NewRat(c, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := v.(*ir.ConstInt); !ok || k.Val != c || !clc.TypesEqual(k.Typ, clc.TypeLong) {
			t.Errorf("constant-only form %d materialized as %v, want a long constant", c, v)
		}
	}
	if n := len(emitted(ret)[ir.OpAdd]) - len(before[ir.OpAdd]); n != 4 {
		t.Errorf("%d adds emitted, want 4 (two per three-term form, none for constants)", n)
	}
}

func TestMaterializerReloadRule(t *testing.T) {
	aff, reg, ret := materializeFixture(t)
	before := len(emitted(ret)[ir.OpLoad])
	var asked []*ir.Instr
	m := NewMaterializer(ret, reg, func(rep *ir.Instr) bool {
		asked = append(asked, rep)
		return true
	})
	if _, err := m.Affine(aff); err != nil {
		t.Fatal(err)
	}
	// Only v's representative is an instruction other than a work-item
	// query; the parameter n is referenced as it is.
	if len(asked) != 1 || asked[0].Op != ir.OpLoad {
		t.Fatalf("reload rule asked about %v, want v's load alone", asked)
	}
	loads := emitted(ret)[ir.OpLoad]
	if len(loads) != before+1 || loads[len(loads)-1].Args[0] != asked[0].Args[0] {
		t.Errorf("re-load rule true: want one new load of v's variable before the insertion point")
	}

	aff, reg, ret = materializeFixture(t)
	before = len(emitted(ret)[ir.OpLoad])
	m = NewMaterializer(ret, reg, func(*ir.Instr) bool { return false })
	if _, err := m.Affine(aff); err != nil {
		t.Fatal(err)
	}
	if n := len(emitted(ret)[ir.OpLoad]) - before; n != 0 {
		t.Errorf("re-load rule false: %d loads emitted, want 0", n)
	}
}
