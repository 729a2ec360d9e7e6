package ir_test

import (
	"math"
	"strings"
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/rewrite"
	"grover/opencl"
)

const keySrc = `__kernel void k(__global long* a, __global double* b) {
    a[get_global_id(0)] = 42;
    b[get_global_id(0)] = 0.5;
}`

// withConst returns a clone of m whose first constant operand matching
// pick is replaced by what swap makes of it.
func withConst(t *testing.T, m *ir.Module, pick func(ir.Value) bool, swap func(ir.Value) ir.Value) *ir.Module {
	t.Helper()
	c := ir.CloneModule(m)
	for _, f := range c.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if pick(a) {
						in.Args[i] = swap(a)
						return c
					}
				}
			}
		}
	}
	t.Fatal("no such constant")
	return nil
}

// TestKeyCoversConstants: String prints a constant without its type, so
// two modules that differ only there print alike; their keys must not.
// A float constant's value is in the key too.
func TestKeyCoversConstants(t *testing.T) {
	m, err := opencl.CompileModule("k.cl", keySrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := func(typ clc.Type) clc.Type {
		switch typ {
		case clc.TypeInt:
			return clc.TypeLong
		case clc.TypeLong:
			return clc.TypeInt
		case clc.TypeFloat:
			return clc.TypeDouble
		}
		return clc.TypeFloat
	}
	is42 := func(v ir.Value) bool { c, ok := v.(*ir.ConstInt); return ok && c.Val == 42 }
	isHalf := func(v ir.Value) bool { c, ok := v.(*ir.ConstFloat); return ok && c.Val == 0.5 }
	for name, tc := range map[string]struct {
		pick func(ir.Value) bool
		swap func(ir.Value) ir.Value
		// printsAlike: String cannot tell the two modules apart.
		printsAlike bool
	}{
		"int type": {is42, func(v ir.Value) ir.Value {
			return &ir.ConstInt{Val: 42, Typ: other(v.Type())}
		}, true},
		"float type": {isHalf, func(v ir.Value) ir.Value {
			return &ir.ConstFloat{Val: 0.5, Typ: other(v.Type())}
		}, true},
		"float value": {isHalf, func(v ir.Value) ir.Value {
			return &ir.ConstFloat{Val: math.Nextafter(0.5, 1), Typ: v.Type()}
		}, false},
	} {
		c := withConst(t, m, tc.pick, tc.swap)
		if (c.String() == m.String()) != tc.printsAlike {
			t.Errorf("%s: modules print alike: %v, want %v", name, c.String() == m.String(), tc.printsAlike)
		}
		if c.Key() == m.Key() {
			t.Errorf("%s: the key does not tell the modules apart", name)
		}
	}
}

// TestKeyIgnoresPositions: where an instruction came from is not what it
// does.
func TestKeyIgnoresPositions(t *testing.T) {
	m, err := opencl.CompileModule("k.cl", keySrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := ir.CloneModule(m)
	for _, f := range c.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				in.Pos = clc.Pos{File: "elsewhere.cl", Line: in.Pos.Line + 10, Col: in.Pos.Col + 3}
			}
		}
	}
	if c.Key() != m.Key() {
		t.Errorf("moving every instruction changed the key:\n%s\n%s", m.Key(), c.Key())
	}
}

// TestKeyPlanPairs pins the plans of tune-all's kernels that rewrite into
// a kernel another plan already is, which a plan search executes once:
// hoist-addr is base on all seven; grover with hoisting or the cleanup
// pipeline is grover on all but AMD-MM; both stage-local plans are base on
// AMD-SS and ROD-SC.
func TestKeyPlanPairs(t *testing.T) {
	for _, id := range []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "AMD-MM", "PAB-ST", "ROD-SC"} {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
		prog, err := ctx.CompileProgram(id+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		plans := grover.DefaultPlanSpace(inst.ND.Local)
		keys := map[string]string{}
		for _, ps := range plans {
			p, err := rewrite.ParsePlan(ps)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Steps) == 0 {
				keys[ps] = prog.Module().Key()
			} else if rp, rep, err := prog.WithRewritePlan(app.Kernel, p); err == nil && rep.Changed() {
				keys[ps] = rp.Module().Key()
			}
		}
		if len(keys) != len(plans) {
			t.Fatalf("%s: %d of %d plans applied", id, len(keys), len(plans))
		}
		// class is the first plan whose kernel ps rewrites into.
		class := func(ps string) string {
			switch {
			case ps == "hoist-addr", strings.HasPrefix(ps, "stage-local") && (id == "AMD-SS" || id == "ROD-SC"):
				return "base"
			case strings.HasPrefix(ps, "grover,") && id != "AMD-MM":
				return "grover"
			}
			return ps
		}
		for _, a := range plans {
			for _, b := range plans {
				if same := keys[a] == keys[b]; same != (class(a) == class(b)) {
					t.Errorf("%s: %s and %s have equal keys: %v", id, a, b, same)
				}
			}
		}
	}
}
